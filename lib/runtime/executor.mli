(** Threaded actor runtime executing topologies on real tuples — the
    repository's equivalent of the paper's SS2Akka layer (§4.2).

    Each deployed unit is an actor with a bounded mailbox. The actors run
    as cooperative tasks on an N:M work-stealing pool of worker domains
    ({!Ss_sched.Sched}) — like Akka's dispatcher multiplexing actors over a
    thread pool — parking instead of blocking on a full/empty mailbox and
    draining up to a configurable batch of messages per activation.

    The deployment shape:
    - an ordinary vertex becomes one actor applying its behavior function;
    - a vertex with [n > 1] replicas becomes an emitter actor, [n] worker
      actors (each with an independent behavior instance) and a collector
      actor; stateless vertices shuffle round-robin, partitioned-stateful
      vertices route by key through the same greedy key-group assignment the
      optimizer uses;
    - a fused group becomes a single {e meta-operator} actor executing the
      paper's Algorithm 4: each input tuple is processed by the front-end
      behavior and results travel the sub-graph inside the actor until they
      exit.

    Output items are routed to one successor, sampled with the topology's
    edge probabilities (the paper's routing semantics); [router] overrides
    this with content-based routing. Termination uses end-of-stream markers
    counted per consumer.

    Every actor body runs under a {!Supervision} supervisor: an exception
    in one behavior no longer deadlocks the network — the supervisor closes
    every mailbox, blocked peers wake with {!Mailbox.Closed} and exit as
    [Cancelled], and [run] returns a structured {!Supervision.outcome}
    instead of hanging. An optional wall-clock [timeout] drives the same
    shutdown path. *)

type instrument = {
  sample_occupancy : bool;
      (** Sample entry-mailbox occupancy every millisecond (default
          [true]); when [false] [metrics.occupancy] is all zeros. *)
  telemetry : bool;
      (** Record latency/service histograms and per-edge transfer counts
          (default [false]); when [false] [metrics.telemetry] is [None]
          and the hot path is untouched (no timestamps, no counters). *)
  telemetry_sample : int;
      (** Time (and record into the histograms) every k-th behavior
          invocation per vertex — deterministically by arrival order at
          that vertex, starting with the first — so histogram counts are
          [ceil (consumed / k)] per vertex. The source's birth timestamps
          (the basis of the latency histograms) are refreshed on the same
          cadence: the clock is read every k-th emission and reused in
          between, so recorded tuple ages carry a staleness bounded by k
          source intervals. Clock reads dominate telemetry's cost on cheap
          behaviors; the default ([32]) keeps the overhead a few percent
          even on identity operators. Edge transfer counts are always
          exact. Use [1] to time every invocation and stamp every tuple
          exactly. Ignored when [telemetry] is off. *)
}
(** Runtime instrumentation configuration. When [sample_occupancy] is on,
    a periodic instrumentation pass runs at the sampling cadence on the
    pool's scheduler tick (on the calling domain), sampling occupancy and
    refreshing the live telemetry aggregate ({!Ss_telemetry.Telemetry.Collector.live}).
    Telemetry alone never forces a tick: recording happens inline in the
    actors, the live aggregate falls back to merge-on-demand, and the final
    report is merged exactly once after all actors have joined. *)

val default_instrument : instrument
(** [{ sample_occupancy = true; telemetry = false; telemetry_sample = 32 }]. *)

type metrics = {
  elapsed : float;  (** Wall-clock seconds from start to full drain. *)
  consumed : int array;
      (** Per vertex: tuples processed by the vertex's behavior. *)
  produced : int array;  (** Per vertex: tuples emitted by the behavior. *)
  late : int array;
      (** Per vertex: tuples that arrived behind the merged watermark at an
          event-time operator (dropped, dead-lettered or refired according
          to the run's lateness policy). All zero without [?event_time]. *)
  source_rate : float;  (** Source tuples per wall-clock second. *)
  blocked : float array;
      (** Per vertex: seconds its actors spent waiting on full downstream
          mailboxes (backpressure), measured on the slow path of every put:
          the park-to-resume time of the suspended task, which includes the
          scheduling delay until a worker re-runs the task after space opens
          up. Fission units aggregate their emitter, workers and
          collector. *)
  occupancy : float array;
      (** Per vertex: mean sampled occupancy of its entry mailbox (sampled
          every millisecond by the pool's scheduler tick; see
          [instrument.sample_occupancy]); 0 for the source and for
          non-entry members of fused groups. *)
  telemetry : Ss_telemetry.Telemetry.report option;
      (** With [instrument.telemetry]: per-vertex latency histograms (tuple
          age at behavior start, from source emission), per-vertex service
          histograms (behavior invocation durations) and per-edge transfer
          counts. [None] otherwise. *)
  actors : Supervision.report list;
      (** Per-actor completion status, in completion order. *)
  outcome : Supervision.outcome;
      (** [Finished], the first actor failure, or a timeout. *)
}

type router = Ss_operators.Tuple.t -> int
(** Returns the index of the chosen successor in the vertex's out-edge list
    (as given by [Topology.succs]). *)

type batch = [ `Fixed of int | `Adaptive of int ]
(** Drain policy for pooled-actor mailbox activations. [`Fixed b] always
    offers to drain up to [b] messages. [`Adaptive batch_max] (the
    default, with [batch_max = 32]) sizes each mailbox's drain from an
    EWMA of the occupancy observed at its activations, within
    [\[1, batch_max\]]: deep queues earn big amortized drains, near-empty
    latency-sensitive edges drain small and yield. The policy only caps
    how much an activation {e offers} to drain; counts and routing are
    unaffected, so metrics stay worker-count- and policy-independent. *)

type ingest
(** Log-backed source configuration: replay a {!Ss_log.Log} partition set
    through the topology with at-least-once delivery (see {!ingest}). *)

val ingest :
  ?group:string -> ?commit_every:int -> ?read_batch:int -> Ss_log.Log.t -> ingest
(** [ingest log] makes {!run} consume [log] instead of its [source]
    function: one reader actor per log partition replays the partition
    from consumer group [group]'s (default ["default"]) committed offset
    to the log's current end, decoding payloads with {!Ss_log.Tuple_codec}
    and routing them exactly like a source would. Readers stripe across
    the pool's locality groups, one per partition.

    Delivery is {e at-least-once}: every tuple derived from a log record
    is tracked (Storm-style ack counting), a per-partition watermark
    advances over the contiguous prefix of fully-drained records, and the
    group's offset is durably committed at that watermark — every
    [commit_every] records (default 512) while running, and finally when
    the run ends, {e whatever} the outcome. A run killed mid-stream
    therefore resumes from the last committed watermark and redelivers
    exactly the uncommitted suffix: records may be processed twice, never
    lost. [read_batch] (default 256) sizes each log read.

    @raise Invalid_argument if [commit_every < 1] or [read_batch < 1]. *)

val run :
  ?ingest:ingest ->
  ?event_time:Ss_event.Event_time.config ->
  ?mailbox_capacity:int ->
  ?fused:int list list ->
  ?fusion:[ `Interpreted | `Compiled ] ->
  ?chains:(int list * Fused_compile.chain) list ->
  ?flush_every:int ->
  ?routers:(int * router) list ->
  ?ordered:int list ->
  ?seed:int ->
  ?timeout:float ->
  ?workers:int ->
  ?placement:int array ->
  ?batch:batch ->
  ?instrument:instrument ->
  source:(unit -> Ss_operators.Tuple.t option) ->
  registry:(int -> Ss_operators.Behavior.t) ->
  Ss_topology.Topology.t ->
  metrics
(** [run ~source ~registry topology] deploys and executes the topology until
    [source] returns [None] and every in-flight tuple has drained — or until
    an actor fails or [timeout] elapses, in which case the run shuts down
    promptly and reports the cause in [metrics.outcome].

    With [ingest], [source] is ignored and the topology consumes a durable
    {!Ss_log.Log} instead: one reader per partition, offsets committed
    downstream of processing (see {!ingest} for the at-least-once
    contract). Ingest is not yet available on {!Live} deployments.

    With [event_time], the run processes by {e event} time: each source
    (or each ingest partition reader, independently) runs the configured
    {!Ss_event.Watermark} generator over the timestamps it emits and sends
    watermarks in-band; every deployed unit merges the watermarks of its
    upstream producers (minimum across slots — fission collectors take the
    minimum across their replicas) and forwards only advances, after first
    firing any windows of an evented behavior
    ({!Ss_operators.Behavior.make_evented}) that the new watermark closed.
    Producers announce watermark infinity before end-of-stream, so finite
    runs flush every open window. Tuples arriving behind the merged
    watermark at an evented vertex are handled by the configured
    {!Ss_event.Lateness.policy} — dropped, diverted to a dead-letter
    mailbox, or given to the behavior's refire hook — and counted in
    [metrics.late]. Without [event_time] no watermark is ever generated
    and the hot paths are untouched.

    [registry v] supplies the behavior of vertex [v] (never called for the
    source). [fused] lists disjoint vertex groups to execute as
    meta-operators; each must be a legal fusion target
    ({!Ss_topology.Topology.front_end_of}).

    [fusion] selects how fused groups execute their members (default
    [`Compiled]): under [`Compiled] each group is staged at deploy time
    into one flat closure ({!Fused_compile.plan}) whenever the run
    qualifies — no event time, no ingest, no router override on a member,
    and a group shape the planner accepts — and falls back to the
    interpreted Algorithm 4 walk otherwise; [`Interpreted] forces the
    walk everywhere. Telemetry does {e not} force the walk: the planner
    instruments the staged loop itself (local edge counters flushed every
    [flush_every] tuples — default 4096 — at end-of-stream and on actor
    failure; latency/service samples on the interpreted 1-in-k schedule),
    so compiled and interpreted runs report identical edge counts and
    histogram sample counts. A fused group whose front operator is
    replicated deploys as a {e fission unit of the whole staged loop}
    (emitter, one staged instance per replica, collector) when the group
    is linear — at most one successor per member, which keeps routing
    draws count-neutral so per-vertex counts stay bit-identical to the
    single-actor walk — and every member's operator can replicate; tuples
    route to replicas by key as soon as any member partitions state by
    key (members are assumed key-preserving). Under {!Live} deployments
    such a group is additionally {e elastic} when its staged instance can
    migrate state (every stateful member exposes an inline stateful hook
    or a migratable instance): a resize drains the workers, exports each
    staged instance's keyed state (window phases, running aggregates),
    repartitions it by key over the new generation and resumes, losing no
    tuple. [chains] supplies pre-compiled closures keyed by member set
    (compared as sorted vertex lists, e.g. from {!Ss_codegen}-emitted
    closed loops); a matching entry overrides the deploy-time planner
    under the same eligibility rules, except under telemetry (a supplied
    chain has no counter hooks, so the planner is used).
    [ordered] lists replicated
    stateless vertices whose fission must preserve the arrival order
    (paper §2): their emitter deals strictly round-robin and their
    collector reassembles results in the same order, batching per input so
    any selectivity is supported. [mailbox_capacity] defaults to 64.
    [timeout] bounds the wall-clock run time in seconds; it is checked on
    the pool's tick, and cancellation is cooperative (it takes effect when
    an actor next touches a mailbox).

    [workers] sizes the lock-free work-stealing pool every actor runs on
    (default [Domain.recommended_domain_count], at least 1); a run uses
    [workers] domains plus the calling one, whatever the actor count.
    [placement] maps each vertex to an abstract locality node
    (typically an {!Ss_placement} assignment, [placement.(v) = node]):
    node ids are normalized to dense scheduler groups (collapsed by
    modulo when there are more nodes than workers), the pool's workers
    are split across the groups as evenly as possible, and every actor of
    a vertex — including its fission units — is pinned to its vertex's
    group, so wakeups stay group-local and stealing prefers same-group
    victims. Default: one group, exactly the ungrouped behavior. Counts
    and routing are placement-independent; only locality changes.
    [batch] (default [`Adaptive 32]) sets the per-activation
    drain policy of pooled actors. Each edge gets the single-producer ring
    when one actor feeds it and the multi-producer ring otherwise (see
    {!Mailbox}). [instrument] (default
    {!default_instrument}) selects runtime instrumentation: occupancy
    sampling and/or telemetry recording; with occupancy sampling off and no
    [timeout] the pool skips its tick. Per-vertex [consumed]/[produced]
    counts — and with telemetry on, per-edge transfer counts — are
    identical across worker counts and placements for deterministic
    behaviors: routing draws depend only on per-vertex tuple ordinals, not
    on interleaving.
    @raise Invalid_argument on overlapping or illegal fused groups, a
    replicated source, a non-positive [timeout], [workers < 1], a
    non-positive [batch] or [flush_every], or an [ordered] vertex that is
    not replicated stateless. *)

(** Live deployments: run a topology on a background domain while keeping a
    handle for online observation and reconfiguration — the execution side
    of the elasticity loop (paper §1, §6). Replicated vertices whose
    operator {!Ss_topology.Operator.can_replicate}s (and, for
    partitioned-stateful vertices, whose behavior
    {!Ss_operators.Behavior.can_migrate}s) deploy as {e elastic} fission
    units: their parallelism degree can be changed while the topology runs,
    without restarting it.

    Reconfiguration is drain-and-swap per vertex: the unit's emitter stops
    feeding the current worker generation, sends a drain marker behind all
    in-flight work, collects each retiring worker's exported keyed state
    (for migratable partitioned behaviors), repartitions it over a freshly
    spawned worker generation and resumes. No tuple is lost or duplicated
    and no Eos is forged; the wall-clock cost of each swap is measured and
    accumulated per vertex as {!Live.downtime}. Worker-pool capacity can be
    grown and shrunk the same way through a dormant reserve
    ({!Ss_sched.Sched.add_workers}). *)
module Live : sig
  type t
  (** A running deployment. *)

  val start :
    ?event_time:Ss_event.Event_time.config ->
    ?mailbox_capacity:int ->
    ?fused:int list list ->
    ?fusion:[ `Interpreted | `Compiled ] ->
    ?chains:(int list * Fused_compile.chain) list ->
    ?flush_every:int ->
    ?routers:(int * router) list ->
    ?seed:int ->
    ?timeout:float ->
    ?workers:int ->
    ?reserve:int ->
    ?batch:batch ->
    ?instrument:instrument ->
    source:(unit -> Ss_operators.Tuple.t option) ->
    registry:(int -> Ss_operators.Behavior.t) ->
    Ss_topology.Topology.t ->
    t
  (** Deploy the topology on a fresh domain and return once it is running.
      Replicated elastic-eligible vertices start at their descriptor's
      [replicas] degree. Parameters mirror {!run} where shared; [workers]
      sizes the pool (default [Domain.recommended_domain_count]),
      [reserve] adds dormant worker slots for {!add_workers} (default 0),
      and telemetry defaults {e on} (the controller needs it). [fused]/[fusion]/[chains]/
      [flush_every] mirror {!run}; a fused group whose front operator is
      replicated and whose staged instance can migrate its state deploys
      as an {e elastic} unit resizable through {!resize} (address it by its
      front vertex) — other fused groups deploy as a single pinned actor.
      Ordered fission is not available live (ordered collectors cannot
      survive a degree change). With [event_time],
      watermark state survives {!resize}: the emitter chooses the swap's
      watermark floor (its own input merge), re-shapes the collector's
      replica merge through the swap, and primes each new worker at the
      floor, so in-flight windows migrate with the keyed state and no
      on-time tuple is lost or spuriously declared late.
      @raise Invalid_argument as {!run}, or if [reserve < 0]. *)

  val topology : t -> Ss_topology.Topology.t
  (** The deployed topology, as given. *)

  val elastic : t -> bool array
  (** Per vertex: whether it deployed as an elastic fission unit (and can
      therefore be {!resize}d). *)

  val degrees : t -> int array
  (** Per vertex: the currently {e applied} parallelism degree (1 for
      non-elastic vertices). *)

  val generation : t -> int
  (** Total number of completed reconfigurations across all vertices. *)

  val downtime : t -> float array
  (** Per vertex: accumulated measured reconfiguration downtime in seconds —
      wall-clock from the moment the emitter stops feeding the old
      generation to the moment the new generation is fed. *)

  val total_downtime : t -> float
  (** Sum of {!downtime}. *)

  val consumed : t -> int array
  (** Per vertex: tuples processed so far (live snapshot of the counters
      that become [metrics.consumed]). *)

  val produced : t -> int array
  (** Per vertex: tuples emitted so far. *)

  val telemetry_sample : t -> int
  (** The deployment's telemetry sampling stride
      ([instrument.telemetry_sample]): the controller multiplies sampled
      service-time sums by this to estimate total busy time. *)

  val telemetry : t -> Ss_telemetry.Telemetry.report option
  (** Live telemetry aggregate (see
      {!Ss_telemetry.Telemetry.Collector.live}); [None] only if telemetry
      was explicitly disabled in [instrument]. Successive snapshots are
      cumulative — diff them with {!Ss_telemetry.Telemetry.delta} for
      per-epoch views. *)

  val resize : t -> vertex:int -> int -> bool
  (** [resize t ~vertex d] requests parallelism degree [d] for [vertex].
      Returns [false] when the vertex is not elastic ([elastic t] is false
      there). The change is applied asynchronously by the vertex's emitter
      between input bursts; observe completion via {!degrees} /
      {!generation}.
      @raise Invalid_argument if [d < 1] or [vertex] is out of range. *)

  val add_workers : t -> int -> int
  (** Activate up to [k] dormant reserve workers; returns the number
      activated (see {!Ss_sched.Sched.add_workers}). *)

  val retire_workers : t -> int -> int
  (** Send up to [k] activated reserve workers back to dormancy; returns
      the number retired. *)

  val active_workers : t -> int
  (** Workers currently executing actors. *)

  val stop : t -> metrics
  (** Stop the source (the stream ends at the next emission), wait for the
      drain and return the final metrics. Blocks until the deployment
      domain joins; re-raises any exception that escaped it. *)
end

val source_of_list : Ss_operators.Tuple.t list -> unit -> Ss_operators.Tuple.t option
(** Stateful closure draining the list once. *)

val source_of_fn :
  count:int -> (int -> Ss_operators.Tuple.t) -> unit -> Ss_operators.Tuple.t option
(** [source_of_fn ~count f] emits [f 0 .. f (count-1)] without materializing
    the stream. *)

val source_throttled :
  rate:float ->
  (unit -> Ss_operators.Tuple.t option) ->
  unit ->
  Ss_operators.Tuple.t option
(** [source_throttled ~rate source] paces [source] to [rate] tuples per
    wall-clock second by sleeping before each emission until its scheduled
    slot ([i /. rate] seconds after the first call). Deficits are caught up
    without sleeping, so the long-run rate converges to [rate] even after a
    stall. Live elasticity runs use this to present a {e stable offered
    load} — the regime where the paper argues a static plan beats reactive
    scaling — instead of the executor's default
    produce-at-memory-speed sources.
    @raise Invalid_argument if [rate] is not positive and finite. *)
