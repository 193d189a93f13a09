(** Direct deployment of a topology on the actor runtime, without going
    through generated source code — the programmatic twin of {!Codegen}.

    Behaviors are resolved from the operator catalog by class name (the
    operator name up to a ["#"] suffix); operators outside the catalog get a
    cost-faithful busy-wait stub reproducing their profiled service time and
    declared selectivity, exactly like the generated programs do. *)

val resolve : Ss_topology.Operator.t -> Ss_operators.Behavior.t
(** Behavior lookup for a single operator: event-time window classes
    ([ewin], [ewin_wLEN_sSLIDE] — see {!Ss_event.Event_window.of_name})
    first, then the catalog, then the cost-faithful stub. *)

val registry : Ss_topology.Topology.t -> int -> Ss_operators.Behavior.t
(** Vertex-indexed resolver for {!Ss_runtime.Executor.run}. *)

val run :
  ?ingest:Ss_runtime.Executor.ingest ->
  ?mailbox_capacity:int ->
  ?fused:int list list ->
  ?fusion:[ `Interpreted | `Compiled ] ->
  ?ordered:int list ->
  ?seed:int ->
  ?tuples:int ->
  ?timeout:float ->
  ?workers:int ->
  ?placement:int array ->
  ?batch:Ss_runtime.Executor.batch ->
  ?instrument:Ss_runtime.Executor.instrument ->
  ?event_time:Ss_event.Event_time.config ->
  ?disorder:Ss_workload.Stream_gen.disorder ->
  ?stream_spec:Ss_workload.Stream_gen.spec ->
  Ss_topology.Topology.t ->
  Ss_runtime.Executor.metrics
(** [run topology] deploys the topology on the runtime and drives it with
    [tuples] (default 10_000) synthetic tuples from
    {!Ss_workload.Stream_gen} — or, with [ingest], replays a durable
    {!Ss_log.Log} instead (at-least-once; [tuples] and [stream_spec] are
    then ignored). Options ([timeout], [workers],
    [placement], [batch], [instrument], [event_time] and
    [fusion] — the fused-group execution mode, default deploy-time staging
    with interpreted fallback — included) are forwarded to
    {!Ss_runtime.Executor.run}; the returned metrics carry the supervised
    per-actor outcome (and, with [instrument.telemetry], the telemetry
    report). [disorder] (default [In_order]) perturbs the synthetic
    stream's arrival order ({!Ss_workload.Stream_gen.reorder}) to exercise
    event-time handling; it does not apply to log replays. *)

val live :
  ?mailbox_capacity:int ->
  ?seed:int ->
  ?timeout:float ->
  ?workers:int ->
  ?reserve:int ->
  ?rate:float ->
  ?tuples:int ->
  ?instrument:Ss_runtime.Executor.instrument ->
  ?event_time:Ss_event.Event_time.config ->
  ?disorder:Ss_workload.Stream_gen.disorder ->
  ?stream_spec:Ss_workload.Stream_gen.spec ->
  Ss_topology.Topology.t ->
  Ss_runtime.Executor.Live.t
(** [live topology] starts a live deployment
    ({!Ss_runtime.Executor.Live.start}) of the topology with the same
    catalog-or-stub behaviors as {!run}, driven by a synthetic stream paced
    to [rate] tuples/second ({!Ss_runtime.Executor.source_throttled};
    default: the topology source's declared rate). [tuples] bounds the
    stream (default: unbounded — the stream ends when
    {!Ss_runtime.Executor.Live.stop} is called). Partitioned-stateful
    operators resolved to stubs are migratable, so an elastic controller
    can resize every replicable operator of the topology. [event_time] and
    [disorder] behave as in {!run}; on an unbounded stream the disorder is
    applied per 1024-tuple block to keep the stream lazy. *)
