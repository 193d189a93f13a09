exception Closed

(* One bounded lock-free ring backs both channel kinds. Positions [head]
   (next to consume) and [tail] (next to claim) grow monotonically (63-bit
   counters never wrap in practice); position [pos] lives in slot
   [pos land mask]. A producer claims only while [tail - head < capacity],
   so occupancy never exceeds [capacity] and a claimed slot was always
   consumed a lap earlier.

   - SPSC: the one producer owns [tail]. It stores the slots, then
     publishes them all with [Atomic.set tail].
   - MPSC (Vyukov): producers claim [pos, pos + n) with one CAS on [tail],
     store each slot and publish it with [Atomic.set seq.(i) (pos + 1)].
     The consumer takes the prefix whose stamps match. A slot claimed but
     not yet published holds the consumer back until its producer
     publishes it, so no [Sched.suspend] may sit between a claim and its
     publish (none does: both happen inside one call below).

   [Atomic] operations are sequentially consistent, so a plain slot store
   followed by the publishing [Atomic.set] is visible to whoever reads
   that atomic, and the consumer's clearing store before [Atomic.set head]
   is visible to a producer that read [head].

   Slots hold [Obj.t], with a unique out-of-band sentinel [nil] marking an
   empty slot: values are stored with [Obj.repr] directly, avoiding a
   [Some]-box per enqueue. The array is created from a heap-allocated
   sentinel, so it is a regular (boxed) array even when ['a = float].

   Waiters. Every mailbox has exactly one consuming actor, so at most one
   item waiter is outstanding: one atomic slot, no lock. Producers may be
   many, so space waiters queue under [wlock]; [space_waiting] lets the
   consumer skip that lock while nobody is parked. The no-lost-wakeup
   arguments are at [on_item] and [on_space]. *)
type 'a t = {
  mpsc : bool;
  mask : int; (* slot-array length - 1; power of two *)
  buf : Obj.t array;
  seq : int Atomic.t array; (* MPSC publication stamps; [||] on SPSC *)
  capacity : int; (* requested bound, honored exactly (<= mask + 1) *)
  head : int Atomic.t; (* written by the consumer only *)
  tail : int Atomic.t;
  (* Producers' last view of [head]. Racy under MPSC, but every value
     written was read from [head] earlier, so it never runs ahead and a
     stale view only makes the ring look fuller. *)
  mutable cached_head : int;
  mutable cached_tail : int; (* SPSC consumer's last view of [tail] *)
  closed : bool Atomic.t;
  item_waiter : (unit -> unit) option Atomic.t;
  space_waiting : bool Atomic.t;
  wlock : Mutex.t;
  wcond : Condition.t; (* blocking put/take park on this *)
  space_waiters : (unit -> unit) Queue.t;
}

let nil : Obj.t = Obj.repr (ref ())

let make ~mpsc ~capacity =
  if capacity < 1 then invalid_arg "Mailbox.create: capacity must be >= 1";
  let rec pow2 n = if n >= capacity then n else pow2 (n * 2) in
  let slots = pow2 1 in
  {
    mpsc;
    mask = slots - 1;
    buf = Array.make slots nil;
    (* Position [i] publishes stamp [i + 1], so 0 matches no position. *)
    seq = (if mpsc then Array.init slots (fun _ -> Atomic.make 0) else [||]);
    capacity;
    head = Atomic.make 0;
    tail = Atomic.make 0;
    cached_head = 0;
    cached_tail = 0;
    closed = Atomic.make false;
    item_waiter = Atomic.make None;
    space_waiting = Atomic.make false;
    wlock = Mutex.create ();
    wcond = Condition.create ();
    space_waiters = Queue.create ();
  }

let create ~capacity = make ~mpsc:true ~capacity
let create_spsc ~capacity = make ~mpsc:false ~capacity
let capacity t = t.capacity
let is_closed t = Atomic.get t.closed
let[@inline] check_open t = if Atomic.get t.closed then raise Closed

let length t =
  if Atomic.get t.closed then 0
  else
    (* [tail] first: [head] only grows, so the difference never exceeds
       [capacity]. *)
    let tail = Atomic.get t.tail in
    Int.max 0 (tail - Atomic.get t.head)

(* Callbacks run outside every lock: a resumed task may touch this
   mailbox at once. *)
let wake_item t =
  match Atomic.exchange t.item_waiter None with Some k -> k () | None -> ()

let[@inline] notify_item t =
  match Atomic.get t.item_waiter with Some _ -> wake_item t | None -> ()

let take_space_waiters t =
  Atomic.set t.space_waiting false;
  let ws = List.of_seq (Queue.to_seq t.space_waiters) in
  Queue.clear t.space_waiters;
  ws

let wake_space t =
  Mutex.lock t.wlock;
  let ws = take_space_waiters t in
  Mutex.unlock t.wlock;
  List.iter (fun k -> k ()) ws

let[@inline] notify_space t = if Atomic.get t.space_waiting then wake_space t

(* --- producer side ------------------------------------------------- *)

(* Free slots seen from claim position [pos]; refreshes the cached head
   only when the cache shows fewer than [want]. Never overstates, because
   the cache never runs ahead of [head]. *)
let[@inline] free t pos want =
  let f = t.capacity - (pos - t.cached_head) in
  if f >= want then f
  else begin
    let h = Atomic.get t.head in
    t.cached_head <- h;
    t.capacity - (pos - h)
  end

let[@inline] store t pos x =
  let i = pos land t.mask in
  Array.unsafe_set t.buf i (Obj.repr x);
  if t.mpsc then Atomic.set (Array.unsafe_get t.seq i) (pos + 1)

(* After [store]s of [pos, pos + n): SPSC publishes them here. *)
let[@inline] published_upto t pos n =
  if not t.mpsc then Atomic.set t.tail (pos + n);
  notify_item t

let rec try_put t x =
  check_open t;
  let pos = Atomic.get t.tail in
  if free t pos 1 <= 0 then false
  else if t.mpsc && not (Atomic.compare_and_set t.tail pos (pos + 1)) then
    try_put t x
  else begin
    store t pos x;
    published_upto t pos 1;
    true
  end

let rec length_upto n lim = function
  | _ :: rest when n < lim -> length_upto (n + 1) lim rest
  | _ -> n

let try_put_chunk t xs =
  match xs with
  | [] -> []
  | _ ->
      check_open t;
      let want = length_upto 0 t.capacity xs in
      let rec claim () =
        let pos = Atomic.get t.tail in
        let n = Int.min want (free t pos want) in
        if n <= 0 then xs
        else if t.mpsc && not (Atomic.compare_and_set t.tail pos (pos + n))
        then claim ()
        else begin
          let rec fill i = function
            | x :: rest when i < n ->
                store t (pos + i) x;
                fill (i + 1) rest
            | rest -> rest
          in
          let rest = fill 0 xs in
          published_upto t pos n;
          rest
        end
      in
      claim ()

(* --- consumer side ------------------------------------------------- *)

(* Whether position [pos] (at or past [head]) has been published. *)
let[@inline] published t pos =
  if t.mpsc then
    Atomic.get (Array.unsafe_get t.seq (pos land t.mask)) = pos + 1
  else
    pos < t.cached_tail
    || begin
         t.cached_tail <- Atomic.get t.tail;
         pos < t.cached_tail
       end

let[@inline] take_slot t pos =
  let i = pos land t.mask in
  let x = Array.unsafe_get t.buf i in
  Array.unsafe_set t.buf i nil;
  x

let try_take t =
  check_open t;
  let head = Atomic.get t.head in
  if not (published t head) then None
  else begin
    let x = take_slot t head in
    Atomic.set t.head (head + 1);
    notify_space t;
    Some (Obj.obj x)
  end

(* MPSC: how many of the [want] positions from [head] are published. *)
let rec stamped t head want n =
  if n < want && published t (head + n) then stamped t head want (n + 1)
  else n

(* Returns the claimed occupancy when the whole [min max avail] prefix was
   published; otherwise the published count it stopped at. Either way
   [min max result] items were appended. *)
let take_batch t ~max ~into =
  if max < 1 then invalid_arg "Mailbox.take_batch: max must be >= 1";
  check_open t;
  let head = Atomic.get t.head in
  let tail = Atomic.get t.tail in
  let avail = tail - head in
  let want = Int.min max avail in
  let n =
    if t.mpsc then stamped t head want 0
    else begin
      t.cached_tail <- tail;
      want
    end
  in
  for pos = head to head + n - 1 do
    Queue.push (Obj.obj (take_slot t pos)) into
  done;
  if n > 0 then begin
    Atomic.set t.head (head + n);
    notify_space t
  end;
  if n = want then avail else n

(* --- waiters ------------------------------------------------------- *)

(* The consumer fills the slot {e before} re-checking for a published
   item; a producer publishes {e before} reading the slot. With
   sequentially consistent atomics, if the re-check missed the publish,
   the producer's read comes after our write and sees the callback. When
   the re-check finds an item (or [close]), we withdraw with a CAS; if a
   producer or [close] emptied the slot first, the callback is already
   being fired, so we must report [true] (parked) — [Sched.suspend] would
   otherwise resume the task twice. *)
let on_item t k =
  (not (Atomic.get t.closed))
  &&
  let w = Some k in
  if not (Atomic.compare_and_set t.item_waiter None w) then
    invalid_arg "Mailbox.on_item: an item waiter is already registered";
  if Atomic.get t.closed || published t (Atomic.get t.head) then
    not (Atomic.compare_and_set t.item_waiter w None)
  else true

(* Registration raises [space_waiting] before re-checking fullness, under
   [wlock]; the consumer publishes [head] before reading the flag. As in
   [on_item], one of the two sees the other, and a consumer that sees the
   flag takes [wlock], serializing with this registration. *)
let on_space t k =
  (not (Atomic.get t.closed))
  && begin
       Mutex.lock t.wlock;
       Atomic.set t.space_waiting true;
       let tail = Atomic.get t.tail in
       let park =
         (not (Atomic.get t.closed)) && tail - Atomic.get t.head >= t.capacity
       in
       if park then Queue.push k t.space_waiters
       else if Queue.is_empty t.space_waiters then
         Atomic.set t.space_waiting false;
       Mutex.unlock t.wlock;
       park
     end

(* Blocking slow path, built on the parking hooks: register a callback that
   flips a flag under [wlock] and broadcasts; [close] fires registered
   callbacks, so a blocked side wakes and re-observes [Closed]. Both sides
   share [wcond]; a broadcast may wake the other side too, which just
   re-checks its own flag and sleeps again. *)
let block_on t register =
  let signaled = ref false in
  let k () =
    Mutex.lock t.wlock;
    signaled := true;
    Condition.broadcast t.wcond;
    Mutex.unlock t.wlock
  in
  if register k then begin
    Mutex.lock t.wlock;
    while not !signaled do
      Condition.wait t.wcond t.wlock
    done;
    Mutex.unlock t.wlock
  end

let rec put t x =
  if not (try_put t x) then begin
    block_on t (on_space t);
    put t x
  end

let rec take t =
  match try_take t with
  | Some x -> x
  | None ->
      block_on t (on_item t);
      take t

let rec put_batch t xs =
  match try_put_chunk t xs with
  | [] -> ()
  | rest ->
      block_on t (on_space t);
      put_batch t rest

(* Pending items are never delivered: every operation checks [closed]
   first. The slots are not scrubbed, because a concurrent scrub could
   race the consumer's read; a ring pins at most [capacity] items until it
   is collected. *)
let close t =
  Mutex.lock t.wlock;
  Atomic.set t.closed true;
  let ws = take_space_waiters t in
  Condition.broadcast t.wcond;
  Mutex.unlock t.wlock;
  wake_item t;
  List.iter (fun k -> k ()) ws
