type task = unit -> unit

type _ Effect.t +=
  | Suspend : ((unit -> unit) -> bool) -> unit Effect.t
  | Yield : unit Effect.t

let suspend ~register = Effect.perform (Suspend register)
let yield () = Effect.perform Yield

let next_id = Atomic.make 0

(* Which pool+worker the current domain belongs to, so [enqueue] can route
   to the local deque instead of the injection path. *)
let dls_key : (int * int) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let default_workers () = Stdlib.max 1 (Domain.recommended_domain_count ())

(* Worker-count / group-shape resolution for [create]. *)
let resolve_shape ~workers ~groups =
  match groups with
  | Some sizes ->
      if Array.length sizes = 0 then
        invalid_arg "Sched.create: groups must be non-empty";
      Array.iter
        (fun s ->
          if s < 1 then
            invalid_arg "Sched.create: every group needs at least one worker")
        sizes;
      let sum = Array.fold_left ( + ) 0 sizes in
      (match workers with
      | Some w when w <> sum ->
          invalid_arg "Sched.create: workers must equal the sum of groups"
      | _ -> ());
      (sum, Array.copy sizes)
  | None ->
      let w =
        match workers with
        | Some w ->
            if w < 1 then invalid_arg "Sched.create: workers must be >= 1";
            w
        | None -> default_workers ()
      in
      (w, [| w |])

(* Interruptible tick loop: call [fn] every
   [interval] seconds until [finished ()]; the pipe read end becomes
   readable when the pool drains, so the final sleep is cut short instead
   of delaying join (and telemetry merge) by up to one full interval. *)
let tick_loop ~finished ~wake_rd interval fn =
  let rec loop () =
    if not (finished ()) then begin
      fn ();
      (match Unix.select [ wake_rd ] [] [] interval with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ()

let notify_tick = function
  | Some wr -> (
      try ignore (Unix.write wr (Bytes.of_string "!") 0 1)
      with Unix.Unix_error _ -> ())
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Chase–Lev work-stealing deque (Chase & Lev, SPAA '05), monomorphic
   over [task]. The owner pushes/pops at the bottom without locks;
   thieves CAS the top. OCaml's SC atomics stand in for the seq_cst
   fences of the C11 formulation (Lê et al., PPoPP '13): [top] is
   monotonic, and [pop] publishes the decremented [bottom] before
   reading [top], which is what makes the owner/thief race on the last
   element resolve through the single CAS.

   The circular buffer grows geometrically. A replaced buffer is never
   written again, and growth preserves every live entry at the same
   logical index, so a thief that read a stale buffer still sees the
   correct value for any index whose CAS it can win. Consumed slots are
   overwritten with [dummy] by the owner so the pool does not retain
   completed continuations. *)
module Deque : sig
  type t

  val create : unit -> t
  val push : t -> task -> unit
  val pop : t -> task option
  val steal : t -> task option

  (* Plain loads only — a racy emptiness hint for idle-spin probes. *)
  val nonempty : t -> bool
end = struct
  let min_capacity = 64
  let dummy : task = fun () -> ()

  type t = {
    top : int Atomic.t;
    bottom : int Atomic.t;
    buf : task array Atomic.t;
  }

  let create () =
    {
      top = Atomic.make 0;
      bottom = Atomic.make 0;
      buf = Atomic.make (Array.make min_capacity dummy);
    }

  let slot a i = i land (Array.length a - 1)

  let grow a t b =
    let a' = Array.make (2 * Array.length a) dummy in
    for i = t to b - 1 do
      a'.(slot a' i) <- a.(slot a i)
    done;
    a'

  let push q x =
    let b = Atomic.get q.bottom in
    let t = Atomic.get q.top in
    let a = Atomic.get q.buf in
    let a =
      if b - t = Array.length a then begin
        let a' = grow a t b in
        Atomic.set q.buf a';
        a'
      end
      else a
    in
    a.(slot a b) <- x;
    Atomic.set q.bottom (b + 1)

  let pop q =
    let b = Atomic.get q.bottom - 1 in
    Atomic.set q.bottom b;
    let t = Atomic.get q.top in
    if b < t then begin
      (* Deque was empty: restore bottom. *)
      Atomic.set q.bottom t;
      None
    end
    else
      let a = Atomic.get q.buf in
      let x = a.(slot a b) in
      if b > t then begin
        a.(slot a b) <- dummy;
        Some x
      end
      else begin
        (* Single element left: race thieves for it on [top]. *)
        let won = Atomic.compare_and_set q.top t (t + 1) in
        Atomic.set q.bottom (t + 1);
        if won then begin
          a.(slot a b) <- dummy;
          Some x
        end
        else None
      end

  let steal q =
    let t = Atomic.get q.top in
    let b = Atomic.get q.bottom in
    if b - t <= 0 then None
    else
      let a = Atomic.get q.buf in
      let x = a.(slot a t) in
      if Atomic.compare_and_set q.top t (t + 1) then Some x else None

  let nonempty q = Atomic.get q.bottom - Atomic.get q.top > 0
end

(* ------------------------------------------------------------------ *)
(* Lock-free locality-aware pool. *)

(* One parked worker. [state] is 0 = waiting, 1 = notified,
   2 = cancelled (the parker found work while double-checking); the CAS
   on [state] decides who owns the ticket, the mutex/condvar pair only
   carries the actual sleep. *)
type parker = { state : int Atomic.t; pm : Mutex.t; pc : Condition.t }

(* Sleep slot for a dormant reserve worker: unlike a [parker] ticket it
   is permanent, and a wakeup means "your mode changed", not "work
   arrived". *)
type dormitory = { dm : Mutex.t; dc : Condition.t }

type t = {
  id : int;
  nworkers : int; (* total slots: base + reserve *)
  base : int; (* workers active from the start *)
  base_sizes : int array; (* the created per-group shape, sans reserve *)
  group_of : int array; (* worker index -> group *)
  members : int array array; (* group -> worker indices *)
  deques : Deque.t array; (* one per worker *)
  injects : task list Atomic.t array; (* per-group Treiber stacks *)
  parked : parker list Atomic.t array; (* per-group parked workers *)
  searching : int Atomic.t; (* workers in the spin/steal phase *)
  pending : int Atomic.t;
  finished : bool Atomic.t;
  error : exn option Atomic.t;
  (* Dynamic admission: reserve slots [base, nworkers) each carry a mode
     atomic (1 = active, 0 = dormant) and a dormitory to sleep in. Their
     domains are spawned with everyone else's and immediately go dormant;
     [add_workers]/[retire_workers] CAS the mode, so growth and shrink
     never spawn or join a domain mid-run. *)
  mode : int Atomic.t array; (* length nworkers; base slots pinned to 1 *)
  dorms : dormitory array; (* length nworkers - base *)
  active : int Atomic.t;
  rmutex : Mutex.t; (* runner's finish wait, no-tick mode *)
  rcond : Condition.t;
  mutable tick_wr : Unix.file_descr option;
  mutable started : bool;
  mutable initial : (int * task) list;
}

let create ?workers ?groups ?(reserve = 0) () =
  if reserve < 0 then invalid_arg "Sched.create: reserve must be >= 0";
  let nworkers, sizes = resolve_shape ~workers ~groups in
  let slots = nworkers + reserve in
  let ngroups = Array.length sizes in
  let group_of = Array.make slots 0 in
  let members =
    let next = ref 0 in
    Array.init ngroups (fun g ->
        Array.init sizes.(g) (fun _ ->
            let w = !next in
            incr next;
            group_of.(w) <- g;
            w))
  in
  (* Reserve slots live in group 0 and are listed as stealing victims, so
     work they leave behind (or the initial deal never sends them — see
     [run]) is always reachable from active workers. *)
  members.(0) <-
    Array.append members.(0)
      (Array.init reserve (fun i -> nworkers + i));
  {
    id = Atomic.fetch_and_add next_id 1;
    nworkers = slots;
    base = nworkers;
    base_sizes = Array.copy sizes;
    group_of;
    members;
    deques = Array.init slots (fun _ -> Deque.create ());
    injects = Array.init ngroups (fun _ -> Atomic.make []);
    parked = Array.init ngroups (fun _ -> Atomic.make []);
    searching = Atomic.make 0;
    pending = Atomic.make 0;
    finished = Atomic.make false;
    error = Atomic.make None;
    mode = Array.init slots (fun w -> Atomic.make (if w < nworkers then 1 else 0));
    dorms =
      Array.init reserve (fun _ ->
          { dm = Mutex.create (); dc = Condition.create () });
    active = Atomic.make nworkers;
    rmutex = Mutex.create ();
    rcond = Condition.create ();
    tick_wr = None;
    started = false;
    initial = [];
  }

let ngroups t = Array.length t.members
let workers t = t.base
let groups t = Array.copy t.base_sizes

(* --- Treiber stacks (injection and parked lists) --- *)

let rec stack_push s x =
  let old = Atomic.get s in
  if not (Atomic.compare_and_set s old (x :: old)) then stack_push s x

let rec stack_pop s =
  match Atomic.get s with
  | [] -> None
  | x :: rest as old ->
      if Atomic.compare_and_set s old rest then Some x else stack_pop s

(* --- Idle protocol: wake exactly one parked worker per enqueue --- *)

let unpark p =
  if Atomic.compare_and_set p.state 0 1 then begin
    Mutex.lock p.pm;
    Condition.signal p.pc;
    Mutex.unlock p.pm;
    true
  end
  else false (* ticket already notified or cancelled *)

let rec wake_from stack =
  match stack_pop stack with
  | None -> false
  | Some p -> if unpark p then true else wake_from stack

(* Prefer a sleeper from the task's own group; failing that, wake any
   sleeper — foreign workers steal cross-group, so the task is still
   picked up. When nobody is parked this is [ngroups] atomic reads. *)
let wake_one t group =
  if not (wake_from t.parked.(group)) then begin
    let g = ngroups t in
    let rec scan k =
      if k < g then
        if not (wake_from t.parked.((group + k) mod g)) then scan (k + 1)
    in
    scan 1
  end

(* Searching throttle: skip the unpark when some worker is already in
   the spin/steal phase. The handoff cannot be lost: the task is
   published before [searching] is read, every searcher's scans happen
   before it decrements the counter, and a searcher that gives up
   always posts a park ticket and then rescans everything — one side
   of the race sees the other. The worst case is a burst landing on a
   single searcher, which re-wakes a peer on its way out (see
   [worker]). *)
let wake t group = if Atomic.get t.searching = 0 then wake_one t group

(* --- Enqueue: route to the local deque when the calling domain is a
   worker of the task's group, otherwise to the group's injection
   stack. The task is published (deque/stack write) before the parked
   list is scanned, while a parker pushes its ticket before its final
   rescan, so under SC atomics either the scan sees the ticket or the
   rescan sees the task — no lost wakeup. --- *)

let enqueue t ~group task =
  (match Domain.DLS.get dls_key with
  | Some (id, w) when id = t.id && t.group_of.(w) = group ->
      Deque.push t.deques.(w) task
  | _ -> stack_push t.injects.(group) task);
  wake t group

(* --- Finish / error bookkeeping --- *)

let record_error t e =
  let rec go () =
    match Atomic.get t.error with
    | Some _ -> ()
    | None ->
        if not (Atomic.compare_and_set t.error None (Some e)) then go ()
  in
  go ()

let finish t =
  Atomic.set t.finished true;
  Array.iter
    (fun stack ->
      let rec drain () =
        match stack_pop stack with
        | None -> ()
        | Some p ->
            ignore (unpark p);
            drain ()
      in
      drain ())
    t.parked;
  (* Dormant reserve workers sleep on their dormitory, not on a parker
     ticket: wake them so their domains exit and [run] can join. *)
  Array.iter
    (fun d ->
      Mutex.lock d.dm;
      Condition.broadcast d.dc;
      Mutex.unlock d.dm)
    t.dorms;
  Mutex.lock t.rmutex;
  Condition.broadcast t.rcond;
  Mutex.unlock t.rmutex;
  notify_tick t.tick_wr

let task_done t =
  if Atomic.fetch_and_add t.pending (-1) = 1 then finish t

(* Run a task body under the effect handler that implements parking. *)
let exec t group body =
  let open Effect.Deep in
  match_with body ()
    {
      retc = (fun () -> task_done t);
      exnc =
        (fun e ->
          record_error t e;
          task_done t);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend register ->
              Some
                (fun (k : (a, unit) continuation) ->
                  (* [register] may fire [resume] concurrently with (or
                     even before) returning [true]; the flag makes the
                     two resumption paths mutually exclusive. *)
                  let resumed = Atomic.make false in
                  let resume () =
                    if not (Atomic.exchange resumed true) then
                      enqueue t ~group (fun () -> continue k ())
                  in
                  if register resume then () else continue k ())
          | Yield ->
              Some
                (fun (k : (a, unit) continuation) ->
                  enqueue t ~group (fun () -> continue k ()))
          | _ -> None);
    }

let spawn ?group t body =
  let g =
    match group with
    | Some g ->
        if g < 0 || g >= ngroups t then
          invalid_arg "Sched.spawn: group out of range";
        g
    | None -> (
        match Domain.DLS.get dls_key with
        | Some (id, w) when id = t.id -> t.group_of.(w)
        | _ -> 0)
  in
  Atomic.incr t.pending;
  let task () = exec t g body in
  if t.started then enqueue t ~group:g task
  else t.initial <- (g, task) :: t.initial

(* --- Task discovery --- *)

(* Drain the group's injection stack into the calling worker's deque:
   oldest entry runs now, the rest keep arrival order in the deque so
   thieves (which steal from the top = oldest end) see FIFO-ish order. *)
let drain_inject t w inj =
  if Atomic.get inj == [] then None
  else
    match List.rev (Atomic.exchange inj []) with
    | [] -> None
    | task :: rest ->
        List.iter (Deque.push t.deques.(w)) rest;
        Some task

(* Take one task from a foreign group's injection stack, putting the
   remainder back so the pinned group keeps its work. *)
let steal_inject inj =
  if Atomic.get inj == [] then None
  else
    match List.rev (Atomic.exchange inj []) with
    | [] -> None
    | task :: rest ->
        (match List.rev rest with
        | [] -> ()
        | back ->
            let rec put () =
              let old = Atomic.get inj in
              if not (Atomic.compare_and_set inj old (back @ old)) then
                put ()
            in
            put ());
        Some task

let steal_from t w victims =
  let m = Array.length victims in
  let rec go k =
    if k >= m then None
    else
      let v = victims.((w + k) mod m) in
      if v = w then go (k + 1)
      else
        match Deque.steal t.deques.(v) with
        | Some _ as r -> r
        | None -> go (k + 1)
  in
  go 0

(* Local deque, own group's injects, group-local victims, then foreign
   groups (nearest first): locality-ordered but work-conserving. *)
let find_once t w g =
  match Deque.pop t.deques.(w) with
  | Some _ as r -> r
  | None -> (
      match drain_inject t w t.injects.(g) with
      | Some _ as r -> r
      | None -> (
          match steal_from t w t.members.(g) with
          | Some _ as r -> r
          | None ->
              let n = ngroups t in
              let rec go k =
                if k >= n then None
                else
                  let j = (g + k) mod n in
                  match steal_from t w t.members.(j) with
                  | Some _ as r -> r
                  | None -> (
                      match steal_inject t.injects.(j) with
                      | Some _ as r -> r
                      | None -> go (k + 1))
              in
              go 1))

(* --- Parking: push a ticket, re-scan everything, then sleep. The
   rescan after publishing the ticket closes the race with [enqueue]
   (publish task, then scan parked lists). Spurious wakeups are safe:
   a woken worker always rescans before parking again. --- *)

let park t w g =
  let p =
    { state = Atomic.make 0; pm = Mutex.create (); pc = Condition.create () }
  in
  stack_push t.parked.(g) p;
  match find_once t w g with
  | Some _ as r ->
      ignore (Atomic.compare_and_set p.state 0 2);
      r
  | None ->
      if Atomic.get t.finished then begin
        ignore (Atomic.compare_and_set p.state 0 2);
        None
      end
      else begin
        Mutex.lock p.pm;
        while Atomic.get p.state = 0 && not (Atomic.get t.finished) do
          Condition.wait p.pc p.pm
        done;
        Mutex.unlock p.pm;
        None
      end

(* Read-only emptiness probe used between spin rounds: a full
   [find_once] costs fenced RMWs on every deque and an exchange on
   every injection stack, which is far too expensive to repeat while
   idle — the probe is plain loads only. *)
let has_work t =
  let g = ngroups t in
  let rec inj i =
    if i >= g then false
    else if Atomic.get t.injects.(i) <> [] then true
    else inj (i + 1)
  in
  let n = Array.length t.deques in
  let rec deq i =
    if i >= n then false
    else if Deque.nonempty t.deques.(i) then true
    else deq (i + 1)
  in
  inj 0 || deq 0

(* A worker that keeps finding local work still polls its group's
   injection stack periodically so externally-resumed tasks cannot
   starve behind a long local run. *)
let inject_poll_mask = 63

(* Short: each round's probe is ~2 loads per deque/stack, but a worker
   that exhausts the spin still pays a full rescan inside [park], so
   long spins only delay the futex sleep that an idle trickle wants. *)
let spin_rounds = 8

(* A retiring worker first spills its local deque into the group's
   injection stack (its items stay reachable even while it sleeps —
   thieves do scan reserve deques, but only when searching) and hands
   off with a wakeup, then sleeps until readmitted or the pool drains. *)
let go_dormant t w g =
  let rec spill () =
    match Deque.pop t.deques.(w) with
    | Some task ->
        stack_push t.injects.(g) task;
        spill ()
    | None -> ()
  in
  spill ();
  wake_one t g;
  let d = t.dorms.(w - t.base) in
  Mutex.lock d.dm;
  while Atomic.get t.mode.(w) = 0 && not (Atomic.get t.finished) do
    Condition.wait d.dc d.dm
  done;
  Mutex.unlock d.dm

let worker t w () =
  Domain.DLS.set dls_key (Some (t.id, w));
  let g = t.group_of.(w) in
  let activations = ref 0 in
  let next () =
    incr activations;
    if !activations land inject_poll_mask = 0 then
      match drain_inject t w t.injects.(g) with
      | Some _ as r -> r
      | None -> find_once t w g
    else find_once t w g
  in
  (* The spin phase is counted in [searching] (enqueues then skip the
     unpark — see [wake]) and only pays for a real scan when the probe
     sees something. *)
  let search () =
    Atomic.incr t.searching;
    let rec spin k =
      if k = 0 then None
      else begin
        Domain.cpu_relax ();
        if has_work t then
          match next () with Some _ as r -> r | None -> spin (k - 1)
        else spin (k - 1)
      end
    in
    let r = spin spin_rounds in
    Atomic.decr t.searching;
    (match r with
    | Some _ when Atomic.get t.searching = 0 && has_work t ->
        (* Last searcher leaving with a task while more work is
           visible: re-wake one peer so a burst that the throttle
           collapsed onto this worker still ramps back up. *)
        wake_one t g
    | _ -> ());
    r
  in
  let rec loop () =
    if Atomic.get t.finished then ()
    else if Atomic.get t.mode.(w) = 0 then begin
      go_dormant t w g;
      loop ()
    end
    else
      match next () with
      | Some task ->
          task ();
          loop ()
      | None -> (
          match search () with
          | Some task ->
              task ();
              loop ()
          | None ->
              if Atomic.get t.finished then ()
              else (
                match park t w g with
                | Some task ->
                    task ();
                    loop ()
                | None -> loop ()))
  in
  loop ()

(* --- Dynamic admission over the reserve slots --- *)

let active_workers t = Atomic.get t.active

let add_workers t k =
  if k < 0 then invalid_arg "Sched.add_workers: negative count";
  let n = ref 0 in
  for w = t.base to t.nworkers - 1 do
    if !n < k && Atomic.compare_and_set t.mode.(w) 0 1 then begin
      incr n;
      Atomic.incr t.active;
      let d = t.dorms.(w - t.base) in
      Mutex.lock d.dm;
      Condition.signal d.dc;
      Mutex.unlock d.dm
    end
  done;
  !n

let retire_workers t k =
  if k < 0 then invalid_arg "Sched.retire_workers: negative count";
  let n = ref 0 in
  for i = 0 to t.nworkers - t.base - 1 do
    let w = t.nworkers - 1 - i in
    if !n < k && Atomic.compare_and_set t.mode.(w) 1 0 then begin
      incr n;
      Atomic.decr t.active
    end
  done;
  (* A retiring worker may be parked on a ticket: drain the parked lists
     so everyone rescans. Active workers that wake spuriously just park
     again — this is the control path, not the hot path. *)
  if !n > 0 then
    Array.iter
      (fun stack ->
        let rec drain () =
          match stack_pop stack with
          | None -> ()
          | Some p ->
              ignore (unpark p);
              drain ()
        in
        drain ())
      t.parked;
  !n

let run ?tick t =
  if t.started then invalid_arg "Sched.run: pool already ran";
  t.started <- true;
  (* Deal initial tasks round-robin into their group's deques, skipping
     dormant reserve slots (their owners would only spill the tasks back
     to the injection stack on startup). Safe without the owner: workers
     have not been spawned yet. *)
  let rr = Array.make (ngroups t) 0 in
  List.iter
    (fun (g, task) ->
      let ms = t.members.(g) in
      let live =
        if g = 0 then Array.length ms - (t.nworkers - t.base)
        else Array.length ms
      in
      Deque.push t.deques.(ms.(rr.(g) mod live)) task;
      rr.(g) <- rr.(g) + 1)
    (List.rev t.initial);
  t.initial <- [];
  if Atomic.get t.pending = 0 then ()
  else begin
    let pipe =
      match tick with
      | Some _ ->
          let rd, wr = Unix.pipe () in
          t.tick_wr <- Some wr;
          Some (rd, wr)
      | None -> None
    in
    let domains = Array.init t.nworkers (fun w -> Domain.spawn (worker t w)) in
    (match (tick, pipe) with
    | Some (interval, fn), Some (rd, _) ->
        tick_loop ~finished:(fun () -> Atomic.get t.finished) ~wake_rd:rd
          interval fn
    | _ ->
        Mutex.lock t.rmutex;
        while not (Atomic.get t.finished) do
          Condition.wait t.rcond t.rmutex
        done;
        Mutex.unlock t.rmutex);
    Array.iter Domain.join domains;
    (match pipe with
    | Some (rd, wr) ->
        (try Unix.close rd with Unix.Unix_error _ -> ());
        (try Unix.close wr with Unix.Unix_error _ -> ())
    | None -> ());
    match Atomic.get t.error with Some e -> raise e | None -> ()
  end
