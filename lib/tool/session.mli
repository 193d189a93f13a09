(** The SpinStreams optimization workflow (paper §4.1, the GUI's model):
    an imported topology plus the stack of optimized versions prototyped
    from it. Each analysis or optimization registers a new named version;
    any version can be analyzed, simulated, exported to XML or handed to the
    code generator. *)

type t

val import : Ss_topology.Topology.t -> t
(** Start a session from an already-validated topology; the version
    ["original"] is registered. *)

val import_xml : string -> (t, string) result
(** Parse the paper's XML formalism and import. *)

val import_xml_multi : string -> (t, string) result
(** Like {!import_xml}, but a document with several sources is accepted and
    rooted with a fictitious source first
    ({!Ss_core.Multi_source.unify}) — original vertex ids shift by one. *)

val versions : t -> string list
(** Registered version names, oldest first. *)

val topology : t -> ?version:string -> unit -> Ss_topology.Topology.t
(** Default version: the most recent.
    @raise Not_found for an unknown version name. *)

val analyze : t -> ?version:string -> unit -> Ss_core.Steady_state.t
(** Steady-state prediction (Algorithm 1) of a version. *)

val latency : t -> ?version:string -> unit -> Ss_core.Latency.t
(** Analytical per-operator and end-to-end latency estimate
    ({!Ss_core.Latency}) of a version. *)

val eliminate_bottlenecks :
  t -> ?version:string -> ?max_replicas:int -> unit -> string * Ss_core.Fission.t
(** Run Algorithm 2 on a version; the parallelized topology is registered as
    a new version (named ["fission-N"] or ["fission-N-boundK"]) and
    returned with its name. *)

val fusion_candidates :
  t -> ?version:string -> ?max_size:int -> unit -> (int list * float) list
(** Legal fusion sub-graphs of a version ranked by increasing mean
    utilization (the GUI's proposal list). *)

val fuse :
  t ->
  ?version:string ->
  ?name:string ->
  int list ->
  (string * Ss_core.Fusion.outcome, string) result
(** Fuse a sub-graph of a version; on success the contracted topology is
    registered as a new version (named ["fusion-N"]). The outcome carries
    the performance prediction; when it impairs throughput the caller is
    expected to warn (the CLI does), matching the tool's alert of §5.4. *)

val auto_fuse :
  t -> ?version:string -> ?max_size:int -> ?utilization_cap:float -> unit ->
  (string * Ss_core.Fusion.auto_result) option
(** Run the automated fusion strategy ({!Ss_core.Fusion.auto}); when at
    least one group is fused, registers the coarsened topology as a new
    version ["autofusion-N"] and returns it, otherwise returns [None]. *)

val simulate :
  t -> ?version:string -> ?config:Ss_sim.Engine.config -> unit ->
  Ss_sim.Engine.result
(** Measure a version on the discrete-event simulator (the "run it on the
    SPS" step). *)

val export_xml : t -> ?version:string -> unit -> string

val generate_code :
  t ->
  ?version:string ->
  ?fused:int list list ->
  ?fusion:[ `Auto | `Interpreted | `Closed_loop ] ->
  ?tuples:int ->
  unit ->
  string
(** Render the deployable OCaml program for a version
    ({!Ss_codegen.Codegen.program}); [fusion] selects the emitted
    fused-group execution mode ([`Closed_loop] emits specialized closed
    loops for all-stub groups). *)

val execute :
  t ->
  ?version:string ->
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
  unit ->
  Ss_runtime.Executor.metrics
(** Deploy a version on the supervised actor runtime
    ({!Ss_codegen.Plan.run}) and drive it with synthetic tuples — or,
    with [ingest], replay a durable {!Ss_log.Log} with at-least-once
    delivery. Never hangs on operator failure: the returned metrics carry the structured
    per-actor outcome, and [timeout] bounds the wall-clock run.
    [workers] sizes the N:M pool the actors run on (default: the
    machine's recommended domain count);
    [placement] pins each vertex's actors to a pool locality group from an
    {!Ss_placement} node assignment (see {!Ss_runtime.Executor.run});
    [batch] sets the drain policy of pooled-actor activations (default
    [`Adaptive 32]: per-mailbox occupancy-driven drain sizes).
    [instrument] configures runtime instrumentation in one place —
    occupancy sampling and telemetry (latency/service histograms and
    per-edge counters in [metrics.telemetry]). [event_time] turns on
    watermark propagation and lateness handling
    ({!Ss_runtime.Executor.run}); [disorder] perturbs the synthetic
    stream's arrival order ({!Ss_workload.Stream_gen.reorder}).
    [fusion] selects the fused-group execution mode (default: deploy-time
    staging into flat closures, with interpreted fallback —
    {!Ss_runtime.Fused_compile}); [`Interpreted] forces the Algorithm 4
    walk. Per-vertex counts are identical either way. *)

val elastic :
  t ->
  ?version:string ->
  ?policy:Ss_elastic.Controller.policy ->
  ?epoch_length:float ->
  ?max_epochs:int ->
  ?settle:int ->
  ?workers:int ->
  ?reserve:int ->
  ?rate:float ->
  ?seed:int ->
  ?telemetry_sample:int ->
  unit ->
  Ss_elastic.Controller.live_run
(** Close the elasticity loop on a version: deploy it live
    ({!Ss_codegen.Plan.live}, starting from the version's declared replica
    degrees) under a stable offered load of [rate] tuples/second (default:
    the source's declared rate) and let the threshold controller
    ({!Ss_elastic.Controller.run_live}) adapt it epoch by epoch, resizing
    operators of the {e running} topology and charging the measured
    drain-and-swap downtime. [workers]/[reserve] size the pool and its
    dormant growth headroom; [telemetry_sample] (default 4, denser than
    {!execute}'s 32) sets the sampling stride the utilization estimate is
    scaled by. The returned run carries the per-epoch record and the final
    deployment metrics. *)

val measured_version :
  t -> ?version:string -> Ss_runtime.Executor.metrics -> (string, string) result
(** The measured-profile feedback loop: build the measured twin of a
    version from an {!execute} run's telemetry
    ({!Ss_telemetry.Telemetry.measured_topology}) and register it as a new
    version ["measured-N"]. Analyzing that version re-runs Algorithm 1 on
    live data. [Error] when the metrics carry no telemetry. *)

val runtime_report : t -> ?version:string -> Ss_runtime.Executor.metrics -> string
(** Human-readable report of an {!execute} run: outcome line, per-vertex
    consumed/produced counts, backpressure seconds and mean sampled
    mailbox occupancy, a late-tuple line when an event-time run counted
    any, the telemetry section (latency percentiles, mean service time and
    per-edge transfer counts) when telemetry was on, and the per-actor
    supervision statuses. *)

val report : t -> ?version:string -> unit -> string
(** Human-readable analysis report: per-operator table, bottlenecks,
    predicted throughput, and a comparison with the original version. *)
