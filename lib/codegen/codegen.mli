(** Code generation — the paper's final workflow step (§4.2): once the user
    accepts an optimized topology, SpinStreams emits the program that runs
    it on the target system. The paper targets Akka through the SS2Akka API;
    here the target is this repository's {!Ss_runtime.Executor}, and the
    emitted artifact is a standalone OCaml module.

    The generated program contains, in order: the operator descriptor table
    (including replica counts chosen by fission), the edge list, the
    behavior registry resolved from the operator catalog, the fused groups
    (executed by meta-operator actors, Algorithm 4), a synthetic source, and
    a [main] that deploys the pipeline and prints its measured rates. *)

val class_of_name : string -> string
(** Operator name with any ["#vertex"] suffix removed: the catalog class the
    registry resolves. *)

val program :
  ?fused:int list list ->
  ?fusion:[ `Auto | `Interpreted | `Closed_loop ] ->
  ?tuples:int ->
  ?seed:int ->
  ?placement:int array ->
  ?batch:Ss_runtime.Executor.batch ->
  ?telemetry:bool ->
  Ss_topology.Topology.t ->
  string
(** [program topology] renders the OCaml source. Operators whose class name
    (the operator name up to a ["#"] suffix) is not found in
    {!Ss_operators.Catalog} fall back to a cost-faithful busy-wait stub with
    the declared selectivity, so generated programs always compile and
    reproduce the profiled load. [tuples] (default 100_000) sizes the
    generated run; [fused] lists meta-operator groups. The generated run
    uses the executor's default pool, sized to the deployment machine at
    run time. [placement] (an {!Ss_placement}-style vertex->node assignment) is
    emitted as an explicit [~placement] array so the deployed program
    keeps its locality plan; omitted when [None].
    [batch] (default [`Adaptive 32]) is emitted verbatim as the generated
    run's drain policy, so the program pins it explicitly. [telemetry]
    (default [false]) makes the generated program run with telemetry on
    and print per-vertex latency snapshots.

    [fusion] (default [`Auto]) selects how fused groups execute.
    [`Auto] leaves the choice to the executor's deploy-time staging
    ({!Ss_runtime.Fused_compile}); [`Interpreted] pins the generated run
    to the interpreted Algorithm 4 walk ([~fusion:`Interpreted]);
    [`Closed_loop] additionally emits, for every fused group whose
    members all resolve to stubs, a specialized closed loop — member
    bodies inlined into one mutually recursive step set with flat
    mutable state, no intermediate lists and one routing draw per
    produced tuple in the interpreted walk's order — passed to the run
    as [~chains], so per-vertex counts stay identical to the interpreted
    executor and {!Ss_sim.Engine.replay}. Groups with catalog members
    are left to the runtime's staging, which composes their behaviors
    through their {!Ss_operators.Behavior.inline_spec} hooks. *)

val dune_stanza : name:string -> string
(** A dune [executable] stanza for the generated module. *)

val write_project :
  dir:string ->
  name:string ->
  ?fused:int list list ->
  ?fusion:[ `Auto | `Interpreted | `Closed_loop ] ->
  ?tuples:int ->
  ?seed:int ->
  ?placement:int array ->
  ?batch:Ss_runtime.Executor.batch ->
  ?telemetry:bool ->
  Ss_topology.Topology.t ->
  unit
(** Write [<dir>/<name>.ml] and [<dir>/dune] so that
    [dune exec <dir>/<name>.exe] runs the generated program. Creates [dir]
    if needed. *)
