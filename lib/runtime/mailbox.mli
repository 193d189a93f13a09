(** Bounded blocking mailboxes: the runtime's equivalent of Akka's
    [BoundedMailbox] with a blocking producer (paper §5.1).

    [put] blocks while the mailbox is full — this is the
    Blocking-After-Service backpressure the cost model assumes. [take]
    blocks while it is empty.

    Two lock-free rings live behind this interface and behave identically
    at the API level:
    - {!create} builds a bounded multi-producer ring (Vyukov-style, with a
      per-slot publication stamp): producers claim slots with one CAS, so
      it backs fan-in edges — multi-predecessor entries, shuffle and
      key-partition collectors, fission merge points;
    - {!create_spsc} builds a single-producer ring whose producer needs no
      CAS at all — the executor selects it for edges with exactly one
      producing actor.

    Contract: every mailbox has {e exactly one consumer} — one domain or
    pooled task calls [take], [try_take], [take_batch] and {!on_item}, and
    at most one item waiter is outstanding at a time. The executor
    guarantees this by construction: each mailbox is drained by the one
    actor it feeds. Violating it loses items. [create_spsc] additionally
    requires at most one concurrent producer. [close], [length],
    [capacity] and [is_closed] are safe from any domain.

    A mailbox can be {!close}d (poisoned) for fault containment: every
    blocked producer and consumer wakes immediately with {!Closed} instead
    of waiting forever, pending items are discarded, and all subsequent
    operations (except {!length}, {!capacity} and {!is_closed}) raise
    {!Closed}. The supervisor uses this to unblock the whole actor network
    when one actor fails. *)

type 'a t

exception Closed
(** Raised by [put]/[take]/[try_put]/[try_take] once the mailbox is closed,
    including by callers that were already blocked when [close] ran. *)

val create : capacity:int -> 'a t
(** The multi-producer ring. The slot array is rounded up to a power of
    two; backpressure honors [capacity] exactly.
    @raise Invalid_argument if [capacity < 1]. *)

val create_spsc : capacity:int -> 'a t
(** The single-producer ring: as {!create}, plus the contract that at most
    one producer calls [put], [try_put], [try_put_chunk] and [put_batch]
    at a time (not checked).
    @raise Invalid_argument if [capacity < 1]. *)

val capacity : 'a t -> int

val put : 'a t -> 'a -> unit
(** Enqueue, blocking while full. @raise Closed if the mailbox is (or
    becomes, while blocked) closed. *)

val take : 'a t -> 'a
(** Dequeue, blocking while empty. @raise Closed if the mailbox is (or
    becomes, while blocked) closed. *)

val try_put : 'a t -> 'a -> bool
(** Non-blocking enqueue; false when full. @raise Closed when closed. *)

val try_take : 'a t -> 'a option
(** Non-blocking dequeue; [None] when empty (or when the next item is
    claimed but not yet published). @raise Closed when closed. *)

val try_put_chunk : 'a t -> 'a list -> 'a list
(** Non-blocking multi-item enqueue in one mailbox transaction (one CAS
    claims every slot on the multi-producer ring; one tail publication on
    the single-producer ring): enqueues a prefix bounded by free capacity
    and returns the suffix that did not fit — physically a tail of the
    input, so the call allocates nothing. [[]] means everything was enqueued; an empty input is a no-op
    that never raises. @raise Closed when closed and the input is
    non-empty. *)

val put_batch : 'a t -> 'a list -> unit
(** Enqueue all items in order, blocking for space as needed; equivalent
    to iterated {!put} but amortizes to one mailbox transaction per
    capacity-sized chunk. Fission emitters use this to publish a routed
    burst per worker. An empty input is a no-op.
    @raise Closed if closed, including mid-batch while blocked (items
    already enqueued are discarded by the close, like any pending item). *)

val take_batch : 'a t -> max:int -> into:'a Queue.t -> int
(** Non-blocking dequeue of up to [max] items in queue order, appended to
    the caller's reusable [into] buffer (no per-activation list is built —
    cf. stream fusion: the N:M scheduler drains a batch per activation to
    amortize dispatch cost). Returns the occupancy observed {e before}
    draining, so [min max result] items were appended and the result
    doubles as the occupancy sample behind adaptive drain sizing. (When a
    producer has claimed a slot of the prefix but not yet published it,
    the drain stops there and returns the count it appended.)
    @raise Closed when closed.
    @raise Invalid_argument if [max < 1]. *)

val on_space : 'a t -> (unit -> unit) -> bool
(** [on_space t k] atomically checks for free capacity: if the mailbox is
    full (and open), registers [k] as a one-shot wakeup callback and
    returns [true]; otherwise returns [false] without registering — the
    caller should retry its [try_put] immediately. [k] is invoked (outside
    every lock, at most once) when a slot may have freed or the
    mailbox closes; a wakeup is a hint — the caller must retry, and may
    re-register. This is the parking hook for {!Ss_sched.Sched.suspend}. *)

val on_item : 'a t -> (unit -> unit) -> bool
(** [on_item t k] — dual of {!on_space}: registers [k] only while no item
    is ready and the mailbox is open; [k] fires when an item may have
    arrived or the mailbox closes. Consumer-only: the single waiter lives
    in one atomic slot, taken by the publishing producer, so there is no
    lock on either side.
    @raise Invalid_argument if an earlier item waiter is still
    outstanding (a second consumer). *)

val length : 'a t -> int
(** Instantaneous occupancy (racy by nature; for monitoring only). Never
    raises; a closed mailbox reports 0. *)

val close : 'a t -> unit
(** Poison the mailbox: discard pending items, wake every blocked producer
    and consumer with {!Closed}, invoke every parked-task callback
    registered via {!on_space}/{!on_item} (so parked actors resume, retry,
    and observe {!Closed}), and make subsequent operations raise {!Closed}.
    Idempotent. *)

val is_closed : 'a t -> bool
