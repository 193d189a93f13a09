(** Runtime observability: per-actor event sinks, aggregated latency and
    service-time histograms, per-edge transfer counters, exporters, and the
    feedback path turning measurements back into optimizer inputs.

    The design splits recording from aggregation so the hot path stays
    lock-free: every actor owns a private {!Sink} (histograms plus an edge
    counter array) that only it writes; a {!Collector} created alongside the
    run knows every sink and merges them on demand — periodically from the
    scheduler tick (a {e live} snapshot readable while the
    topology runs) and once more after all actors have joined (the final
    {!report}). Races on a sink's plain fields during a live merge can read
    slightly stale values but never tear or crash (OCaml 5 memory model);
    the final report is exact.

    The feedback path ({!to_profile}, {!measured_topology}) converts a
    report into the same shape {!Ss_workload.Profiler} produces from
    offline profiling, so Algorithm 1 can re-predict throughput from live
    measurements and the optimizer can re-run on a measured twin of the
    topology. *)

type report = {
  latency : Histogram.t array;
      (** Per topology vertex: distribution of tuple age — time since the
          source emitted the tuple — sampled when the vertex's behavior
          starts processing it. Empty for the source. *)
  service : Histogram.t array;
      (** Per vertex: measured wall-clock duration of each behavior
          invocation. Empty for the source. *)
  edges : (int * int * int) list;
      (** [(u, v, tuples)] per topology edge, in {!Ss_topology.Topology.edges}
          order: tuples transferred over that edge. *)
  late : int array;
      (** Per vertex: tuples that arrived behind the merged watermark at an
          event-time operator. All zero when event time is off. *)
  wm_lag : Histogram.t array;
      (** Per vertex: event-time distance (seconds) between the maximum
          timestamp the vertex has seen and the merged watermark, sampled
          at each watermark advance. Empty when event time is off. *)
}

(** Per-actor recording endpoint. Not thread-safe by design: exactly one
    actor writes a given sink. *)
module Sink : sig
  type t

  val record_latency : t -> int -> float -> unit
  (** [record_latency s v age] records a tuple of age [age] seconds arriving
      at vertex [v]'s behavior. *)

  val record_service : t -> int -> float -> unit
  (** [record_service s v dt] records one behavior invocation of [dt]
      seconds at vertex [v]. *)

  val incr_edge : t -> int -> unit
  (** [incr_edge s e] counts one tuple over edge index [e] (the index into
      {!Ss_topology.Topology.edges}). *)

  val add_edge : t -> int -> int -> unit
  (** [add_edge s e k] counts [k] tuples over edge index [e] at once —
      the flush path for compiled fused chains, which accumulate edge
      transfers in plain local arrays and drain them on a cadence and at
      end-of-stream. *)

  val record_late : t -> int -> unit
  (** [record_late s v] counts one tuple arriving behind the watermark at
      vertex [v]. *)

  val record_wm_lag : t -> int -> float -> unit
  (** [record_wm_lag s v lag] records the watermark's event-time lag of
      [lag] seconds behind the max observed timestamp at vertex [v]. *)
end

(** Aggregation point for one run. *)
module Collector : sig
  type t

  val create : Ss_topology.Topology.t -> t

  val sink : t -> Sink.t
  (** Register and return a fresh sink. Safe to call concurrently with
      running actors and live merges (registration is a CAS push), so live
      reconfiguration can create sinks for replicas spawned mid-run. *)

  val refresh : t -> unit
  (** Merge every sink into the cached live snapshot; called periodically
      by the scheduler tick when occupancy sampling keeps one running. *)

  val live : t -> report
  (** A snapshot readable while the topology runs: the last {!refresh}
      result when a periodic refresher is active, otherwise a fresh
      on-demand merge (runs with instrumentation ticking disabled don't
      pay for a tick they never read). *)

  val report : t -> report
  (** Merge every sink now and return the aggregate. Exact once the actors
      have joined. *)
end

val delta : since:report -> report -> report
(** [delta ~since current] is the telemetry window between two cumulative
    reports over the same topology ([since] taken earlier): histograms
    subtract per {!Histogram.diff} and edge counters subtract, clamped at
    zero (live snapshots race benignly with recording actors). The elastic
    controller uses this to score each epoch in isolation. *)

val to_profile :
  Ss_topology.Topology.t ->
  consumed:int array ->
  produced:int array ->
  report ->
  Ss_workload.Profiler.profile array
(** Per-vertex measured profile in {!Ss_workload.Profiler} shape:
    [mean_service_time] from the service histogram and [outputs_per_input]
    from the consumed/produced counters. Vertices with no measurements (the
    source, or vertices no tuple reached) fall back to their declared
    descriptor values, and every field is guaranteed finite: a vertex that
    consumed zero tuples cannot produce a NaN/inf selectivity, and a
    degenerate declared selectivity falls back to 1. *)

val measured_topology :
  Ss_topology.Topology.t ->
  consumed:int array ->
  produced:int array ->
  report ->
  Ss_topology.Topology.t
(** The measured twin: same graph, but every measured operator carries its
    measured mean service time and output selectivity (following
    {!Ss_workload.Profiler.to_operator}'s convention: the declared input
    selectivity is kept and the measured outputs-per-input is folded into
    the output selectivity), and out-edge probabilities are re-estimated
    from the edge counters. A vertex keeps its declared probabilities when
    any of its out-edges saw no tuple (a zero probability would be an
    invalid topology), and the source keeps its declared service time (the
    source callback is not a behavior and is never timed). Feeding the twin
    to Algorithm 1 re-predicts throughput from live data. *)

val to_prometheus : Ss_topology.Topology.t -> report -> string
(** Prometheus text exposition: the counter families [ss_edge_tuples_total]
    (labels [src], [dst]) and [ss_late_tuples_total] (label [operator]),
    and the histogram families [ss_latency_seconds], [ss_service_seconds]
    and [ss_watermark_lag_seconds] (label [operator], cumulative [le]
    buckets, [_sum] and [_count] series). *)
