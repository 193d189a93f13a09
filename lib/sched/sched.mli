(** N:M cooperative work-stealing scheduler: runs any number of tasks on a
    fixed pool of domains, the repository's equivalent of Akka's dispatcher
    (paper §4.2). Where [lib/runtime] historically spawned one domain per
    actor — collapsing on fissioned topologies with hundreds of deployed
    units — a {!t} multiplexes all of them over
    [Domain.recommended_domain_count] workers by default.

    Tasks are plain thunks made resumable with effect handlers: instead of
    blocking a worker, a task {!suspend}s with a registration function that
    atomically parks it on some external condition (e.g. "this mailbox has
    an item"). The wakeup callback re-enqueues the continuation, which may
    then run on any worker. The scheduler itself knows nothing about
    mailboxes; the blocking protocol lives with the caller.

    The pool is lock-free on the hot path: each worker
    owns a Chase–Lev deque (push/pop without locks, thieves CAS the top),
    cross-domain wakeups land on a per-group lock-free injection stack, and
    idle workers spin briefly before parking on a single-waiter list where
    an enqueue wakes exactly one sleeper. Workers can further be
    partitioned into locality {e groups}: a task spawned with [?group] has
    its wakeups routed to that group's deques and its group's workers steal
    from each other before raiding foreign groups, emulating NUMA/placement
    domains in process.

    The pool terminates when every spawned task has returned or raised. *)

type t

val default_workers : unit -> int
(** The pool size used when no worker count is given:
    [Domain.recommended_domain_count ()], clamped to at least 1. *)

val create :
  ?workers:int ->
  ?groups:int array ->
  ?reserve:int ->
  unit ->
  t
(** [create ()] makes a pool with {!default_workers} workers; [?workers]
    overrides the count.

    [?groups] partitions the workers into locality groups: [groups.(g)] is
    the number of workers in group [g] (each must be [>= 1]); when both
    [?workers] and [?groups] are given the sizes must sum to [workers].
    Default: a single group containing every worker — exactly the
    historical behavior.

    [?reserve] (default 0) allocates that many extra worker slots for
    dynamic admission: their domains are spawned with the pool but sleep
    dormant (in group 0) until {!add_workers} activates them, so the
    elastic controller can grow and shrink the worker count mid-run without
    spawning or joining a domain. Reserve slots do not count toward
    [workers]/[groups].

    @raise Invalid_argument if [workers < 1], a group is empty, the
    group sizes disagree with [workers], or [reserve < 0]. *)

val workers : t -> int
(** Number of worker domains active from the start (excludes the reserve). *)

val groups : t -> int array
(** The per-group worker counts the pool was created with ([[| workers t |]]
    when [?groups] was omitted; excludes the reserve). The returned array is
    a copy. *)

val active_workers : t -> int
(** Workers currently executing tasks: [workers t] plus activated reserve
    slots. *)

val add_workers : t -> int -> int
(** [add_workers t k] activates up to [k] dormant reserve workers and
    returns how many were actually activated (0 when the reserve is
    exhausted). Safe to call from any domain
    while the pool runs.
    @raise Invalid_argument if [k < 0]. *)

val retire_workers : t -> int -> int
(** [retire_workers t k] sends up to [k] previously-activated reserve
    workers back to dormancy (base workers never retire) and returns how
    many were retired. A retiring worker finishes its current task slice,
    spills any queued work back to the pool, and sleeps; its tasks are
    never lost. Safe to call from any domain while the pool runs.
    @raise Invalid_argument if [k < 0]. *)

val spawn : ?group:int -> t -> (unit -> unit) -> unit
(** Register a task. Before {!run} the task is only queued; tasks spawned
    while the pool runs (including from inside other tasks) are scheduled
    immediately. An exception escaping a task is captured; {!run} re-raises
    the first one after the pool drains.

    [?group] pins the task's locality: its initial placement and every
    subsequent wakeup target that group's deques (other groups can still
    steal it when their own work runs dry — the pool stays
    work-conserving). Defaults to the spawning worker's group when called
    from inside the pool, group [0] otherwise.

    @raise Invalid_argument if [group] is out of range. *)

val run : ?tick:float * (unit -> unit) -> t -> unit
(** Run the pool to completion: spawn the worker domains, execute every
    task, join the workers. The calling domain does not execute tasks; with
    [?tick:(interval, fn)] it instead invokes [fn] every [interval] seconds
    until the pool drains (the executor uses this for occupancy sampling,
    keeping the domain count at exactly [workers t] + the caller). The
    final task's completion interrupts the tick sleep, so [run] returns
    promptly rather than up to one [interval] late.
    Re-raises the first exception that escaped a task, after all tasks have
    finished. Can only be called once per pool. *)

val suspend : register:((unit -> unit) -> bool) -> unit
(** [suspend ~register] parks the current task. [register resume] must
    atomically either install [resume] as a wakeup callback and return
    [true], or return [false] when the awaited condition already holds (or
    can never hold) — in which case the task continues immediately. [resume]
    may be called from any domain, at most once per registration; calling it
    re-enqueues the task. Callers retry their non-blocking operation after
    waking: a wakeup is a hint, not a guarantee.

    Must be called from inside a task running on a pool. *)

val yield : unit -> unit
(** Re-enqueue the current task and let the worker pick other work. Must be
    called from inside a task running on a pool. *)
