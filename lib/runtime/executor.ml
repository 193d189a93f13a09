open Ss_prelude
open Ss_topology
open Ss_operators
module Telemetry = Ss_telemetry.Telemetry
module Sink = Ss_telemetry.Telemetry.Sink

type instrument = {
  sample_occupancy : bool;
  telemetry : bool;
  telemetry_sample : int;
}

let default_instrument =
  { sample_occupancy = true; telemetry = false; telemetry_sample = 32 }

type metrics = {
  elapsed : float;
  consumed : int array;
  produced : int array;
  late : int array;
  source_rate : float;
  blocked : float array;
  occupancy : float array;
  telemetry : Telemetry.report option;
  actors : Supervision.report list;
  outcome : Supervision.outcome;
}

type router = Tuple.t -> int

(* Provenance of a log-backed source record, threaded through every tuple
   derived from it so the ingest offset can be committed exactly when the
   record's whole derivation tree has drained (Storm-style ack counting).
   [acks] counts in-flight tuple instances of the record: it starts at 1
   when the reader emits the record and every processing step adds
   (forwards - 1); when it reaches 0 the record is complete and
   [complete] advances the partition's commit watermark. [No_track] is
   the in-process-source case and costs nothing (an immediate). *)
type track =
  | No_track
  | Track of { acks : int Atomic.t; complete : unit -> unit }

(* [settle tk d] accounts a net change of [d] in-flight instances. The
   delta must be applied {e before} the new instances are published:
   adding after a send would let a fast consumer drive the counter to 0
   while siblings are still in flight. *)
let settle tk d =
  match tk with
  | No_track -> ()
  | Track { acks; complete } ->
      if d <> 0 && Atomic.fetch_and_add acks d = -d then complete ()

(* [Timed] carries the tuple's birth timestamp (source emission time) so
   downstream vertices can record its age; it is used only when telemetry
   is on, keeping the off path allocation-identical to before. [Tracked]
   additionally carries the provenance of a log record — it only exists
   in ingest runs, so the generator-driven hot paths are untouched.

   [Drain] and [Expect] exist only inside elastic fission units. [Drain] is
   the quiesce marker the emitter appends behind all in-flight work on a
   worker channel: the worker finishes everything before it, exports its
   keyed state to the handoff channel and exits {e without} signalling
   end-of-stream. [Expect k] tells the unit's collector how many
   end-of-stream markers terminate the run (the final generation's degree) —
   unknowable at deploy time when the degree changes live. Static units
   never see either.

   [Wm (slot, w)] is an in-band watermark from one upstream producer: the
   promise that the producer will send no more tuples with event timestamp
   below [w]. [slot] identifies the producer within the receiver's merge
   array (a unit's watermark is the minimum over its upstream slots);
   producers send [Wm (slot, infinity)] before their [Eos] so finite
   streams flush every open window. [Resize (d, floor)] travels only on an
   elastic unit's collector channel: the replica set just swapped to [d]
   workers, each primed at watermark [floor], so the collector rebuilds its
   merge array. Both exist only in event-time runs — without
   [?event_time] no watermark is ever generated and the arms are dead.

   [Routed (dest, out, birth)] exists only on a replicated fused group's
   worker->collector channel: the staged chain already drew the routing
   decision inside the loop, so the worker ships the destination with the
   tuple and the collector only forwards. Workers cannot write downstream
   mailboxes directly — the unit must stay a single producer per
   downstream edge or the SPSC channel selection above breaks. *)
type msg =
  | Data of Tuple.t
  | Timed of Tuple.t * float
  | Tracked of Tuple.t * float * track
  | Eos
  | Drain
  | Expect of int
  | Wm of int * float
  | Resize of int * float
  | Routed of int * Tuple.t * float

(* Per-receiver watermark merge: one slot per upstream producer (ingest
   readers included); the unit's watermark is the minimum over slots and
   only its advances propagate. Single-threaded: each merge belongs to the
   one actor that drains the unit's input channel. *)
module Wm_merge = struct
  type t = { mutable slots : float array; mutable cur : float }

  let create k =
    { slots = Array.make (Stdlib.max 1 k) neg_infinity; cur = neg_infinity }

  let min_slots a = Array.fold_left Float.min infinity a

  let observe t slot w =
    if w > t.slots.(slot) then t.slots.(slot) <- w;
    let m = min_slots t.slots in
    if m > t.cur then begin
      t.cur <- m;
      Some m
    end
    else None

  (* Elastic generation swap: the producer set changes size and every new
     producer starts from the emitter-chosen floor. *)
  let reset t k floor =
    t.slots <- Array.make (Stdlib.max 1 k) floor;
    if floor > t.cur then begin
      t.cur <- floor;
      Some floor
    end
    else None

  (* Defensive end-of-stream advance: all producers are gone, so the merge
     can jump to infinity even if a [Wm (_, infinity)] went missing. *)
  let force t =
    if t.cur < infinity then begin
      t.cur <- infinity;
      Some infinity
    end
    else None

  let current t = t.cur
end

(* Ordered-fission worker→collector entries: one batch of results per
   input in deal order, a watermark dealt in-band (echoed in position so
   the collector forwards it after exactly the inputs dealt before it), or
   the worker's end marker. *)
type ordered_out =
  | Obatch of Tuple.t list * float * track
  | Owm of float
  | Odone

type ingest = {
  ingest_log : Ss_log.Log.t;
  ingest_group : string;
  ingest_commit_every : int;
  ingest_read_batch : int;
}

let ingest ?(group = "default") ?(commit_every = 512) ?(read_batch = 256) log =
  if commit_every < 1 then invalid_arg "Executor.ingest: commit_every must be >= 1";
  if read_batch < 1 then invalid_arg "Executor.ingest: read_batch must be >= 1";
  {
    ingest_log = log;
    ingest_group = group;
    ingest_commit_every = commit_every;
    ingest_read_batch = read_batch;
  }

(* Per-partition completion watermark: records complete out of order (their
   derivation trees drain independently), but only the contiguous prefix
   may be committed — a gap means an earlier record still has in-flight
   tuples that a crash would lose. *)
module Completion = struct
  type t = {
    mutable low : int; (* all offsets <= low are complete *)
    pending : (int, unit) Hashtbl.t; (* completed offsets above low *)
    m : Mutex.t;
  }

  let create ~start = { low = start - 1; pending = Hashtbl.create 64; m = Mutex.create () }

  let complete t off =
    Mutex.lock t.m;
    if off = t.low + 1 then begin
      t.low <- off;
      let continue = ref true in
      while !continue do
        if Hashtbl.mem t.pending (t.low + 1) then begin
          Hashtbl.remove t.pending (t.low + 1);
          t.low <- t.low + 1
        end
        else continue := false
      done
    end
    else Hashtbl.replace t.pending off ();
    Mutex.unlock t.m

  (* Next offset to consume: everything below it is fully processed. *)
  let watermark t =
    Mutex.lock t.m;
    let w = t.low + 1 in
    Mutex.unlock t.m;
    w
end

type batch = [ `Fixed of int | `Adaptive of int ]

(* Shared-memory control plane between a running deployment and the elastic
   controller. [target] is written by the controller; the unit's emitter
   polls it between input bursts and performs the swap; [applied],
   [generation] and [downtime] flow back. Only vertices flagged in
   [managed] deploy as resizable units. *)
type control = {
  target : int Atomic.t array;
  applied : int Atomic.t array;
  managed : bool array;
  generation : int Atomic.t;
  downtime : float Atomic.t array; (* cumulative quiesce seconds, per vertex *)
  stop : bool Atomic.t; (* cuts the source off at the next emission *)
}

(* Runtime handles surfaced to [Live] once deployment is complete and the
   pool is about to run. *)
type live_internals = {
  li_consumed : int Atomic.t array;
  li_produced : int Atomic.t array;
  li_collector : Telemetry.Collector.t option;
  li_pool : Ss_sched.Sched.t;
}

let source_of_list items =
  let rest = ref items in
  fun () ->
    match !rest with
    | [] -> None
    | x :: tl ->
        rest := tl;
        Some x

let source_of_fn ~count f =
  let i = ref 0 in
  fun () ->
    if !i >= count then None
    else begin
      let t = f !i in
      incr i;
      Some t
    end

let source_throttled ~rate source =
  if not (Float.is_finite rate && rate > 0.0) then
    invalid_arg "Executor.source_throttled: rate must be positive";
  let started = ref None in
  let emitted = ref 0 in
  fun () ->
    match source () with
    | None -> None
    | Some t ->
        let now = Unix.gettimeofday () in
        let t0 =
          match !started with
          | Some t0 -> t0
          | None ->
              started := Some now;
              now
        in
        let target = t0 +. (float_of_int !emitted /. rate) in
        if target > now then Unix.sleepf (target -. now);
        incr emitted;
        Some t

(* Interval between mailbox-occupancy samples, taken on the pool's tick. *)
let sample_interval = 1e-3

let run_internal ?control ?notify ?ingest ?event_time ?(reserve = 0)
    ?(mailbox_capacity = 64) ?(fused = []) ?(fusion = `Compiled) ?(chains = [])
    ?(flush_every = 4096) ?(routers = []) ?(ordered = []) ?(seed = 42) ?timeout
    ?workers ?placement ?(batch = `Adaptive 32)
    ?(instrument = default_instrument) ~source ~registry topology =
  if flush_every < 1 then
    invalid_arg "Executor.run: flush_every must be >= 1";
  let workers =
    match workers with
    | Some w when w < 1 -> invalid_arg "Executor.run: workers must be >= 1"
    | Some w -> w
    | None -> Ss_sched.Sched.default_workers ()
  in
  (match (control, ingest) with
  | Some _, Some _ ->
      invalid_arg
        "Executor: live reconfiguration and log-backed ingest cannot be \
         combined yet"
  | _ -> ());
  (* Log-backed ingest deploys the source as one reader actor per log
     partition; everything downstream sees [source_units] producers where
     it used to see one. *)
  let source_units =
    match ingest with
    | None -> 1
    | Some i -> Ss_log.Log.partitions i.ingest_log
  in
  if reserve < 0 then invalid_arg "Executor.run: reserve must be >= 0";
  (* Dynamic spawn hook: elastic emitters spawn replacement workers through
     it. Bound to [Sched.spawn] on the live pool just before the pool runs;
     reconfiguration can only be requested while the pool runs, so elastic
     units never observe the placeholder. *)
  let spawn_dyn :
      (actor:string -> vertex:int -> (unit -> unit) -> unit) ref =
    ref (fun ~actor:_ ~vertex:_ _ ->
        invalid_arg "Executor: dynamic spawn before the pool started")
  in
  (match batch with
  | `Fixed b | `Adaptive b ->
      if b < 1 then invalid_arg "Executor.run: batch must be >= 1");
  (* Per-mailbox drain-size policy, capping the messages drained per
     activation. Fixed: always offer the full cap. Adaptive: an EWMA of
     the occupancy observed at each activation (returned by
     [Mailbox.take_batch] at no extra cost) sets the next drain size —
     deep queues earn big drains, near-empty latency-bound edges drain one
     or two and yield. *)
  let new_drain () =
    match batch with
    | `Fixed b -> ((fun () -> b), fun _occ -> ())
    | `Adaptive bmax ->
        let ewma = ref 1.0 in
        ( (fun () ->
            let w = int_of_float (Float.ceil !ewma) in
            if w < 1 then 1 else if w > bmax then bmax else w),
          fun occ -> ewma := (0.75 *. !ewma) +. (0.25 *. float_of_int occ) )
  in
  if instrument.telemetry_sample < 1 then
    invalid_arg "Executor.run: telemetry_sample must be >= 1";
  let n = Topology.size topology in
  let src = Topology.source topology in
  if (Topology.operator topology src).Operator.replicas <> 1 then
    invalid_arg "Executor.run: the source operator cannot be replicated";
  (* Locality plan: [placement.(v)] is an abstract node id (typically an
     [Ss_placement] assignment). Normalize the ids to dense scheduler
     groups, collapse by modulo when there are more nodes than workers,
     and split the workers across groups as evenly as possible. Returns
     [(group_of_vertex, group_sizes)]. *)
  let placement_groups ~workers placement =
    if Array.length placement <> n then
      invalid_arg "Executor.run: placement length must equal topology size";
    Array.iter
      (fun g ->
        if g < 0 then invalid_arg "Executor.run: placement nodes must be >= 0")
      placement;
    let ids = Array.to_list placement |> List.sort_uniq compare in
    let dense = Hashtbl.create 8 in
    List.iteri (fun i id -> Hashtbl.replace dense id i) ids;
    let ngroups = Stdlib.min (List.length ids) workers in
    let group_of_vertex =
      Array.map (fun id -> Hashtbl.find dense id mod ngroups) placement
    in
    let sizes = Array.make ngroups (workers / ngroups) in
    for g = 0 to (workers mod ngroups) - 1 do
      sizes.(g) <- sizes.(g) + 1
    done;
    (group_of_vertex, sizes)
  in
  (match timeout with
  | Some limit when limit <= 0.0 ->
      invalid_arg "Executor.run: timeout must be positive"
  | _ -> ());
  List.iter
    (fun v ->
      let op = Topology.operator topology v in
      if op.Operator.kind <> Operator.Stateless || op.Operator.replicas < 2 then
        invalid_arg
          (Printf.sprintf
             "Executor.run: ordered fission requires a replicated stateless \
              operator (vertex %d)"
             v))
    ordered;
  (* Fused groups: disjoint, legal, source excluded. *)
  let group_of = Array.make n (-1) in
  let fronts = Array.of_list (List.map (fun _ -> -1) fused) in
  List.iteri
    (fun gi vs ->
      (match Topology.front_end_of topology vs with
      | Ok fe -> fronts.(gi) <- fe
      | Error e -> invalid_arg ("Executor.run: illegal fused group: " ^ e));
      List.iter
        (fun v ->
          if group_of.(v) <> -1 then
            invalid_arg "Executor.run: overlapping fused groups";
          group_of.(v) <- gi)
        vs)
    fused;
  let entry_vertex v = if group_of.(v) >= 0 then fronts.(group_of.(v)) else v in
  let is_entry v = v <> src && entry_vertex v = v in
  let sup = Supervision.create () in
  (* Expected end-of-stream markers per entry vertex: one per distinct
     upstream unit. This doubles as the channel-selection fan-in count:
     every deployed unit publishes into a given mailbox from exactly one
     actor (the unit itself, its collector, or its meta-operator), so an
     entry mailbox with one distinct upstream unit has exactly one
     producer. *)
  let expected_eos v =
    Topology.preds topology v
    |> List.map (fun (u, _) -> entry_vertex u)
    |> List.sort_uniq compare
    |> List.fold_left
         (fun acc u -> acc + if u = src then source_units else 1)
         0
  in
  (* Channel selection is static, from the topology: an edge with a single
     producing actor gets the SPSC ring; fan-in edges (multi-predecessor
     entries, fission merge points) get the MPSC ring. Every mailbox has
     one consuming actor. A unit's fan-out never matters: each out-edge
     targets a distinct mailbox, so fan-out does not add producers to any
     one of them. *)
  let new_mailbox ~spsc () =
    let mb =
      if spsc then Mailbox.create_spsc ~capacity:mailbox_capacity
      else Mailbox.create ~capacity:mailbox_capacity
    in
    Supervision.register_closer sup (fun () -> Mailbox.close mb);
    mb
  in
  (* One entry mailbox per deployed unit; SPSC when a single upstream unit
     feeds it. Replicated units consume it through their (single) emitter,
     fused groups through their (single) meta-actor, so the consumer side
     is always one actor. *)
  let entry_mailbox = Array.make n None in
  for v = 0 to n - 1 do
    if is_entry v then
      entry_mailbox.(v) <- Some (new_mailbox ~spsc:(expected_eos v = 1) ())
  done;
  let mailbox_of v =
    match entry_mailbox.(entry_vertex v) with
    | Some mb -> mb
    | None -> assert false
  in
  let consumed = Array.init n (fun _ -> Atomic.make 0) in
  let produced = Array.init n (fun _ -> Atomic.make 0) in
  (* Per-vertex seconds a producer spent parked on a full downstream
     mailbox — the backpressure felt by the vertex. Timed only on the slow
     path, after a failed [try_put]. *)
  let blocked = Array.init n (fun _ -> Atomic.make 0.0) in
  let add_blocked v dt =
    let cell = blocked.(v) in
    let rec go () =
      let old = Atomic.get cell in
      if not (Atomic.compare_and_set cell old (old +. dt)) then go ()
    in
    go ()
  in
  (* Telemetry: one collector per run, one private sink per actor (created
     here, on the deploying thread, before any actor starts). Vertices
     record tuple age and behavior duration; every successful routing choice
     counts one transfer on the chosen topology edge. *)
  let collector =
    if instrument.telemetry then Some (Telemetry.Collector.create topology)
    else None
  in
  let new_sink () = Option.map Telemetry.Collector.sink collector in
  (* Flat (u, v) -> edge-index map: the lookup sits on the telemetry send
     path, so it must be a plain array read, not a hash probe. *)
  let edge_idx = Array.make (n * n) (-1) in
  List.iteri
    (fun i (u, v, _) -> edge_idx.((u * n) + v) <- i)
    (Topology.edges topology);
  let edge_id u v = edge_idx.((u * n) + v) in
  (* How an actor body touches mailboxes. [cput] is a vertex-attributed
     put: when the mailbox is full it parks the task (the worker moves on)
     until the mailbox signals space, then retries — a wakeup is a hint,
     not a reservation, so another producer may win the slot — and
     accounts the wait as the vertex's blocked time. [cput_batch] is its
     multi-item form, publishing a burst in amortized mailbox transactions.
     [creader] builds a per-mailbox reader closure that drains a batch per
     activation into a reusable buffer to amortize scheduling cost.
     [cburst] is the burst-granular reader used by fission emitters: it
     returns a non-empty buffer of messages valid until the next call, so
     the emitter can route a whole drain and republish it with
     [cput_batch]. All raise {!Mailbox.Closed} on a poisoned mailbox. *)
  let cput v mb x =
    if not (Mailbox.try_put mb x) then begin
      let t0 = Unix.gettimeofday () in
      let rec go () =
        Ss_sched.Sched.suspend ~register:(Mailbox.on_space mb);
        if not (Mailbox.try_put mb x) then go ()
      in
      go ();
      add_blocked v (Unix.gettimeofday () -. t0)
    end
  in
  let cput_batch v mb xs =
    match Mailbox.try_put_chunk mb xs with
    | [] -> ()
    | rest ->
        let t0 = Unix.gettimeofday () in
        let rec go xs =
          Ss_sched.Sched.suspend ~register:(Mailbox.on_space mb);
          match Mailbox.try_put_chunk mb xs with [] -> () | rest -> go rest
        in
        go rest;
        add_blocked v (Unix.gettimeofday () -. t0)
  in
  let creader mb =
    let buf = Queue.create () in
    let want, observe = new_drain () in
    let rec next () =
      match Queue.take_opt buf with
      | Some x -> x
      | None ->
          observe (Mailbox.take_batch mb ~max:(want ()) ~into:buf);
          if Queue.is_empty buf then begin
            Ss_sched.Sched.suspend ~register:(Mailbox.on_item mb);
            next ()
          end
          else next ()
    in
    next
  in
  let cburst mb =
    let buf = Queue.create () in
    let want, observe = new_drain () in
    let rec fill () =
      observe (Mailbox.take_batch mb ~max:(want ()) ~into:buf);
      if Queue.is_empty buf then begin
        Ss_sched.Sched.suspend ~register:(Mailbox.on_item mb);
        fill ()
      end
    in
    fun () ->
      Queue.clear buf;
      fill ();
      buf
  in
  (* --- event time ---------------------------------------------------
     Watermarks are generated at the source(s) and travel in-band as
     [Wm (slot, w)] messages. Slot assignment is static, derived from the
     same sorted upstream-unit list as [expected_eos]: unit [u]'s slot in
     receiver [v]'s merge array is the number of producers of units sorted
     before [u] (the source expands to [source_units] reader slots, ingest
     reader [p] claiming base + p). FIFO channel order is the correctness
     backbone: a producer fires its own windows {e before} forwarding the
     watermark, so fired results reach the channel ahead of the watermark
     that would declare them late downstream. *)
  let et_on = Option.is_some event_time in
  let lateness =
    match event_time with
    | Some c -> c.Ss_event.Event_time.lateness
    | None -> Ss_event.Lateness.Drop
  in
  let new_watermark () =
    match event_time with
    | Some c -> Some (Ss_event.Watermark.create c.Ss_event.Event_time.watermark)
    | None -> None
  in
  let upstream_units v =
    Topology.preds topology v
    |> List.map (fun (u, _) -> entry_vertex u)
    |> List.sort_uniq compare
  in
  let wm_slot ~receiver u =
    let rec go acc = function
      | [] -> assert false (* [u] is an upstream unit of [receiver] *)
      | x :: tl ->
          if x = u then acc
          else go (acc + if x = src then source_units else 1) tl
    in
    go 0 (upstream_units receiver)
  in
  (* Distinct downstream entry mailboxes paired with [sender]'s slot in
     each receiver's merge; empty when event time is off, so watermark
     broadcasts vanish from the hot paths. *)
  let wm_targets sender vs =
    if not et_on then []
    else
      vs
      |> List.map entry_vertex
      |> List.sort_uniq compare
      |> List.map (fun w -> (mailbox_of w, wm_slot ~receiver:w sender))
  in
  let wm_forward v targets m =
    List.iter (fun (mb, slot) -> cput v mb (Wm (slot, m))) targets
  in
  (* The evented instance of a behavior, shared between its [efn] and its
     watermark/late hooks; [None] for ordinary behaviors. *)
  let evented_of behavior =
    match behavior.Behavior.evented with
    | Some mk -> Some (mk ())
    | None -> None
  in
  let late = Array.init n (fun _ -> Atomic.make 0) in
  let count_late snk v =
    Atomic.incr late.(v);
    match snk with Some s -> Sink.record_late s v | None -> ()
  in
  (* Successor choice for items leaving vertex [v]: a user router or a
     probabilistic sample over the out-edges. Returns the successor vertex. *)
  let chooser v rng =
    let out = Topology.succs topology v in
    match out with
    | [] -> fun _ -> None
    | edges -> (
        let dests = Array.of_list (List.map fst edges) in
        match List.assoc_opt v routers with
        | Some router ->
            fun t ->
              let i = router t in
              if i < 0 || i >= Array.length dests then
                invalid_arg
                  (Printf.sprintf
                     "Executor: router of vertex %d chose successor %d of %d" v
                     i (Array.length dests))
              else Some dests.(i)
        | None ->
            let dist = Discrete.of_weights (Array.of_list (List.map snd edges)) in
            fun _ -> Some dests.(Discrete.sample rng dist))
  in
  (* Distinct destination mailboxes used by a set of (external) successor
     vertices; Eos is broadcast to each exactly once. *)
  let eos_targets vertices =
    vertices
    |> List.map entry_vertex
    |> List.sort_uniq compare
    |> List.map (fun v -> mailbox_of v)
  in
  let external_succs v =
    Topology.succs topology v |> List.map fst
    |> List.filter (fun w -> group_of.(w) < 0 || group_of.(w) <> group_of.(v))
  in
  let opname v = (Topology.operator topology v).Operator.name in
  let actors = ref [] in
  (* [group_hint] overrides the vertex's placement group: ingest readers
     spread across the pool's locality groups (one stripe per partition)
     instead of piling onto the source's group. *)
  let add_actor ~actor ?vertex ?group_hint body =
    actors := (actor, vertex, group_hint, body) :: !actors
  in
  (* Forward one result of vertex [v] to [dest]'s mailbox: counts the edge
     transfer and propagates the tuple's birth time when telemetry is on,
     and its log-record provenance when the run is ingest-backed. *)
  let wrap out birth tk =
    match tk with
    | No_track -> Timed (out, birth)
    | Track _ -> Tracked (out, birth, tk)
  in
  (* The telemetry-off equivalent: [Data] stays the zero-overhead common
     case; tracked tuples must keep their provenance either way. *)
  let wrap_plain out tk =
    match tk with No_track -> Data out | Track _ -> Tracked (out, 0.0, tk)
  in
  let sender snk v =
    match snk with
    | Some s ->
        fun dest out birth tk ->
          Sink.incr_edge s (edge_id v dest);
          cput v (mailbox_of dest) (wrap out birth tk)
    | None ->
        fun dest out _birth tk -> cput v (mailbox_of dest) (wrap_plain out tk)
  in
  (* Route-then-send for one invocation's outputs under tracking: the
     number of surviving instances must be known (and settled) before the
     first publish, so routing decisions are materialized first. The
     untracked path keeps the original single pass. *)
  let fanout v send choose outs birth tk =
    match tk with
    | No_track ->
        List.iter
          (fun out ->
            Atomic.incr produced.(v);
            match choose out with
            | Some dest -> send dest out birth No_track
            | None -> ())
          outs
    | Track _ ->
        let routed =
          List.map
            (fun out ->
              Atomic.incr produced.(v);
              (out, choose out))
            outs
        in
        let live =
          List.fold_left
            (fun acc (_, d) -> acc + match d with Some _ -> 1 | None -> 0)
            0 routed
        in
        settle tk (live - 1);
        List.iter
          (fun (out, d) ->
            match d with Some dest -> send dest out birth tk | None -> ())
          routed
  in
  (* One behavior invocation at vertex [v], recording the input tuple's age
     and the invocation duration when telemetry is on. Timing reads the
     clock twice per invocation, which dominates telemetry's cost on cheap
     behaviors, so only every [telemetry_sample]-th invocation per vertex
     is timed (deterministically: the first, then every k-th by arrival
     order at that vertex). Edge counters stay exact regardless. *)
  let invoke snk v fn =
    match snk with
    | Some s ->
        let k = instrument.telemetry_sample in
        let left = ref 1 in
        fun t birth ->
          decr left;
          if !left <= 0 then begin
            left := k;
            let start = Unix.gettimeofday () in
            Sink.record_latency s v (start -. birth);
            let outs = fn t in
            Sink.record_service s v (Unix.gettimeofday () -. start);
            outs
          end
          else fn t
    | None -> fun t _birth -> fn t
  in

  (* Birth timestamps feed the latency histograms, whose buckets start
     at a microsecond, so the clock is read every [telemetry_sample]-th
     emission and reused in between: staleness is bounded by k source
     intervals and the per-tuple cost drops to a counter. [1] stamps
     every tuple exactly. *)
  let new_stamper snk =
    match snk with
    | Some _ ->
        let k = instrument.telemetry_sample in
        let left = ref 1 in
        let cached = ref 0.0 in
        fun () ->
          decr left;
          if !left <= 0 then begin
            left := k;
            cached := Unix.gettimeofday ()
          end;
          !cached
    | None -> fun () -> 0.0
  in
  (* Per-partition completion trackers of an ingest run, created on the
     deploying thread so the final offset commit (after the join) can read
     their watermarks even if the run was cancelled mid-stream. *)
  let completions =
    match ingest with
    | None -> [||]
    | Some i ->
        Array.init source_units (fun p ->
            Completion.create
              ~start:
                (Ss_log.Log.committed i.ingest_log ~group:i.ingest_group
                   ~partition:p))
  in

  (* --- source actor(s) --------------------------------------------- *)
  let () =
    match ingest with
    | None ->
        let rng = Rng.create seed in
        let choose = chooser src rng in
        let snk = new_sink () in
        let send = sender snk src in
        let stamped = new_stamper snk in
        let wmg = new_watermark () in
        let wmt = wm_targets src (external_succs src) in
        add_actor ~actor:(opname src) ~vertex:src (fun () ->
            let observe t =
              match wmg with
              | None -> ()
              | Some g -> (
                  match Ss_event.Watermark.observe g t.Tuple.ts with
                  | Some w -> wm_forward src wmt w
                  | None -> ())
            in
            let rec loop () =
              match source () with
              | Some t ->
                  Atomic.incr produced.(src);
                  (match choose t with
                  | Some dest -> send dest t (stamped ()) No_track
                  | None -> ());
                  observe t;
                  loop ()
              | None ->
                  wm_forward src wmt infinity;
                  List.iter (fun mb -> cput src mb Eos)
                    (eos_targets (external_succs src))
            in
            loop ())
    | Some ing ->
        (* One reader actor per log partition. Each reader replays its
           partition from the group's committed offset to the log's end,
           decodes tuples, routes them like the source would, and — on a
           [commit_every] cadence — durably commits the partition's
           completion watermark: the largest contiguous prefix of records
           whose derivation trees have fully drained. Commits therefore
           trail processing (at-least-once: a crash redelivers exactly the
           uncommitted suffix) and never lead it (zero loss). *)
        for p = 0 to source_units - 1 do
          let rng = Rng.create (seed + (104729 * (p + 1))) in
          let choose = chooser src rng in
          let snk = new_sink () in
          let send = sender snk src in
          let stamped = new_stamper snk in
          (* Per-partition watermark: reader [p] owns slot base + p in every
             downstream merge, so one stalled partition holds the merged
             watermark back — exactly the Kafka-style per-partition bound. *)
          let wmg = new_watermark () in
          let wmt =
            List.map
              (fun (mb, slot) -> (mb, slot + p))
              (wm_targets src (external_succs src))
          in
          let compl = completions.(p) in
          add_actor
            ~actor:(Printf.sprintf "%s.reader%d" (opname src) p)
            ~vertex:src ~group_hint:p
            (fun () ->
              let cursor = ref (Completion.watermark compl) in
              let committed = ref !cursor in
              let since_commit = ref 0 in
              let maybe_commit ~force () =
                if force || !since_commit >= ing.ingest_commit_every then begin
                  since_commit := 0;
                  let wm = Completion.watermark compl in
                  if wm > !committed then begin
                    Ss_log.Log.commit ing.ingest_log ~group:ing.ingest_group
                      ~partition:p wm;
                    committed := wm
                  end
                end
              in
              let emit (off, payload) =
                let t = Ss_log.Tuple_codec.decode payload in
                Atomic.incr produced.(src);
                let tk =
                  Track
                    {
                      acks = Atomic.make 1;
                      complete = (fun () -> Completion.complete compl off);
                    }
                in
                (match choose t with
                | Some dest -> send dest t (stamped ()) tk
                | None -> settle tk (-1));
                match wmg with
                | None -> ()
                | Some g -> (
                    match Ss_event.Watermark.observe g t.Tuple.ts with
                    | Some w -> wm_forward src wmt w
                    | None -> ())
              in
              let rec loop () =
                match
                  Ss_log.Log.read ing.ingest_log ~partition:p ~from:!cursor
                    ~max_records:ing.ingest_read_batch ()
                with
                | [] ->
                    maybe_commit ~force:true ();
                    wm_forward src wmt infinity;
                    List.iter (fun mb -> cput src mb Eos)
                      (eos_targets (external_succs src))
                | records ->
                    List.iter emit records;
                    (match List.rev records with
                    | (last, _) :: _ -> cursor := last + 1
                    | [] -> ());
                    since_commit := !since_commit + List.length records;
                    maybe_commit ~force:false ();
                    loop ()
              in
              loop ())
        done
  in

  (* --- per-vertex units -------------------------------------------- *)
  for v = 0 to n - 1 do
    if v <> src && group_of.(v) < 0 then begin
      let op = Topology.operator topology v in
      let behavior = registry v in
      let inbox = mailbox_of v in
      let expected = expected_eos v in
      (* With a control plane attached, every vertex that can legally change
         degree deploys as an elastic unit — even at degree 1, so growth
         from a sequential deployment needs no restart. Ordered-fission and
         fused vertices keep their static deployment (their protocols pin
         the worker set), as do partitioned-stateful operators whose
         behavior cannot export its state (resizing those live would
         silently drop state). *)
      let elastic =
        match control with
        | None -> false
        | Some ctl ->
            let ok =
              (not (List.mem v ordered))
              && Operator.can_replicate op
              &&
              match op.Operator.kind with
              | Operator.Partitioned_stateful _ -> Behavior.can_migrate behavior
              | Operator.Stateless | Operator.Stateful -> true
            in
            if ok then begin
              ctl.managed.(v) <- true;
              Atomic.set ctl.target.(v) op.Operator.replicas;
              Atomic.set ctl.applied.(v) op.Operator.replicas
            end;
            ok
      in
      if elastic then begin
        (* --- elastic fission unit: emitter, one {e generation} of
           workers at a time, collector. The swap protocol is coordinated
           entirely by the emitter, inline between input bursts:
           1. it notices [target <> applied] and stamps the clock;
           2. it appends [Drain] behind all in-flight work on every worker
              channel — FIFO order quiesces each worker after it has
              processed everything dealt to it, so no tuple is lost,
              reordered (per key) or double-processed;
           3. each worker exports its keyed state (empty for stateless
              behaviors) to the handoff channel and retires without an
              end-of-stream marker;
           4. the emitter merges the exports, repartitions them under the
              new degree's routing, spawns the next generation with state
              preloaded, and resumes dealing.
           Input never overtakes the swap (the emitter is the only dealer),
           and the wall-clock span of steps 2-4 is the measured
           reconfiguration downtime charged to the vertex. The collector is
           generation-agnostic: workers of any generation feed the same
           merge mailbox, and the final [Expect] message tells it how many
           end-of-stream markers — the last generation's degree — end the
           run. *)
        let ctl = match control with Some c -> c | None -> assert false in
        let initial = op.Operator.replicas in
        let collector_mb = new_mailbox ~spsc:false () in
        let handoff_mb : Behavior.keyed_state Mailbox.t =
          new_mailbox ~spsc:false ()
        in
        let partition_of d =
          match op.Operator.kind with
          | Operator.Partitioned_stateful keys ->
              let groups =
                Ss_core.Key_partitioning.groups_for ~keys ~replicas:d
              in
              let support = Discrete.support keys in
              Some (fun k -> groups.(((k mod support) + support) mod support))
          | Operator.Stateless | Operator.Stateful -> None
        in
        let route_of d =
          match partition_of d with
          | Some owner -> fun (t : Tuple.t) _rr -> owner t.Tuple.key
          | None -> fun (_ : Tuple.t) rr -> rr mod d
        in
        let make_worker ~gen ~r mb state =
          let snk = new_sink () in
          (* Evented behaviors migrate through their own export/import (the
             in-flight windows ride the handoff), so they take precedence
             over the plain migratable interface. *)
          let inst =
            match behavior.Behavior.evented with
            | Some mk -> `Evented (mk ())
            | None -> (
                match behavior.Behavior.migrate with
                | Some mk -> `Migratable (mk ())
                | None -> `Plain (Behavior.instantiate behavior))
          in
          (match (inst, state) with
          | `Migratable m, Some st -> m.Behavior.import_state st
          | `Evented e, Some st -> e.Behavior.eimport st
          | _ -> ());
          let fn =
            match inst with
            | `Migratable m -> m.Behavior.mfn
            | `Evented e -> e.Behavior.efn
            | `Plain f -> f
          in
          let evented =
            match inst with `Evented e -> Some e | _ -> None
          in
          let apply = invoke snk v fn in
          let stamped = new_stamper snk in
          let emit =
            match snk with
            | Some _ -> fun out birth tk -> cput v collector_mb (wrap out birth tk)
            | None -> fun out _birth tk -> cput v collector_mb (wrap_plain out tk)
          in
          let export () =
            match inst with
            | `Migratable m -> m.Behavior.export_state ()
            | `Evented e -> e.Behavior.eexport ()
            | `Plain _ -> []
          in
          let body () =
            let next = creader mb in
            let continue = ref true in
            (* Single producer (the emitter), so the merge is scalar. *)
            let mg = Wm_merge.create 1 in
            let max_seen = ref neg_infinity in
            let emit_all outs birth tk =
              settle tk (List.length outs - 1);
              List.iter
                (fun out ->
                  Atomic.incr produced.(v);
                  emit out birth tk)
                outs
            in
            let fire m =
              (match evented with
              | Some e ->
                  let outs = e.Behavior.on_watermark m in
                  if outs <> [] then emit_all outs (stamped ()) No_track
              | None -> ());
              (match snk with
              | Some s when Float.is_finite m ->
                  Sink.record_wm_lag s v (Float.max 0.0 (!max_seen -. m))
              | _ -> ());
              cput v collector_mb (Wm (r, m))
            in
            let handle t birth tk =
              match evented with
              | Some e when t.Tuple.ts < Wm_merge.current mg -> (
                  count_late snk v;
                  match lateness with
                  | Ss_event.Lateness.Drop -> settle tk (-1)
                  | Ss_event.Lateness.Side_output dl ->
                      Ss_event.Dead_letter.add dl t;
                      settle tk (-1)
                  | Ss_event.Lateness.Refire ->
                      Atomic.incr consumed.(v);
                      emit_all (e.Behavior.on_late t) birth tk)
              | _ ->
                  if et_on && t.Tuple.ts > !max_seen then
                    max_seen := t.Tuple.ts;
                  Atomic.incr consumed.(v);
                  emit_all (apply t birth) birth tk
            in
            while !continue do
              match next () with
              | Eos ->
                  (if et_on then
                     match Wm_merge.force mg with
                     | Some m -> fire m
                     | None -> ());
                  cput v collector_mb Eos;
                  continue := false
              | Drain ->
                  cput v handoff_mb (export ());
                  continue := false
              | Data t -> handle t 0.0 No_track
              | Timed (t, birth) -> handle t birth No_track
              | Tracked (t, birth, tk) -> handle t birth tk
              | Wm (_, w) -> (
                  match Wm_merge.observe mg 0 w with
                  | Some m -> fire m
                  | None -> ())
              | Expect _ | Resize _ | Routed _ ->
                  assert false (* collector channel only *)
            done
          in
          (Printf.sprintf "%s.g%d.worker%d" (opname v) gen r, body)
        in
        (* Generation 0 deploys with everyone else. *)
        let gen0_mbs =
          Array.init initial (fun _ -> new_mailbox ~spsc:true ())
        in
        Array.iteri
          (fun r mb ->
            let name, body = make_worker ~gen:0 ~r mb None in
            add_actor ~actor:name ~vertex:v body)
          gen0_mbs;
        (* emitter *)
        add_actor ~actor:(opname v ^ ".emitter") ~vertex:v (fun () ->
            let next = cburst inbox in
            let next_handoff = creader handoff_mb in
            let degree = ref initial in
            let gen = ref 0 in
            let mbs = ref gen0_mbs in
            let route = ref (route_of initial) in
            let buckets = ref (Array.make initial []) in
            let eos = ref 0 in
            let rr = ref 0 in
            let emg = Wm_merge.create expected in
            let reconfigure want =
              let t0 = Unix.gettimeofday () in
              Array.iter (fun mb -> cput v mb Drain) !mbs;
              let merged = ref [] in
              for _ = 1 to !degree do
                merged := List.rev_append (next_handoff ()) !merged
              done;
              incr gen;
              let d = want in
              (* The watermark floor of the new generation is the input
                 merge: every old worker has fired up to it (the emitter
                 broadcast each advance before dealing further input), so
                 imported windows all end above it. [Resize] must reach the
                 collector before any new-generation [Wm] can — old-gen
                 output is already enqueued at this point and the new
                 workers are not spawned yet, so putting it now, ahead of
                 the spawn, guarantees the order. *)
              let floor = Wm_merge.current emg in
              if et_on then cput v collector_mb (Resize (d, floor));
              let mbs' = Array.init d (fun _ -> new_mailbox ~spsc:true ()) in
              (* Prime each new worker with the floor as its first message
                 so its scalar merge starts where the old generation
                 stopped. *)
              if et_on && floor > neg_infinity then
                Array.iter (fun mb -> cput v mb (Wm (0, floor))) mbs';
              let parts = Array.make d None in
              (match partition_of d with
              | Some owner ->
                  let parts' = Array.make d [] in
                  List.iter
                    (fun ((k, _) as entry) ->
                      let r = owner k in
                      parts'.(r) <- entry :: parts'.(r))
                    !merged;
                  Array.iteri (fun r st -> parts.(r) <- Some st) parts'
              | None -> ());
              Array.iteri
                (fun r mb ->
                  let name, body = make_worker ~gen:!gen ~r mb parts.(r) in
                  !spawn_dyn ~actor:name ~vertex:v body)
                mbs';
              mbs := mbs';
              route := route_of d;
              buckets := Array.make d [];
              degree := d;
              rr := 0;
              Atomic.set ctl.applied.(v) d;
              (* Single writer (this emitter), so a plain read-add-set on
                 the atomic cell is race-free. *)
              Atomic.set ctl.downtime.(v)
                (Atomic.get ctl.downtime.(v)
                +. (Unix.gettimeofday () -. t0));
              Atomic.incr ctl.generation
            in
            while !eos < expected do
              let want = Atomic.get ctl.target.(v) in
              if want >= 1 && want <> !degree then reconfigure want;
              let burst = next () in
              let d = !degree and bks = !buckets and rt = !route in
              Queue.iter
                (fun m ->
                  match m with
                  | Eos -> incr eos
                  | Data t | Timed (t, _) | Tracked (t, _, _) ->
                      let r = rt t !rr in
                      incr rr;
                      bks.(r) <- m :: bks.(r)
                  | Wm (slot, w) -> (
                      (* Broadcast each advance to every worker, in deal
                         position: a worker's windows can span any key it
                         owns, so all replicas need the watermark. *)
                      match Wm_merge.observe emg slot w with
                      | Some m ->
                          for i = 0 to d - 1 do
                            bks.(i) <- Wm (0, m) :: bks.(i)
                          done
                      | None -> ())
                  | Drain | Expect _ | Resize _ | Routed _ -> assert false)
                burst;
              for r = 0 to d - 1 do
                match bks.(r) with
                | [] -> ()
                | acc ->
                    bks.(r) <- [];
                    cput_batch v !mbs.(r) (List.rev acc)
              done
            done;
            (if et_on then
               match Wm_merge.force emg with
               | Some m -> Array.iter (fun mb -> cput v mb (Wm (0, m))) !mbs
               | None -> ());
            Array.iter (fun mb -> cput v mb Eos) !mbs;
            cput v collector_mb (Expect !degree));
        (* collector *)
        let rng = Rng.create (seed + (104729 * (v + 1))) in
        let choose = chooser v rng in
        let snk = new_sink () in
        let send = sender snk v in
        let wmt = wm_targets v (external_succs v) in
        add_actor ~actor:(opname v ^ ".collector") ~vertex:v (fun () ->
            let next = creader collector_mb in
            let eos = ref 0 in
            let expect = ref (-1) in
            (* Min across the current generation's replicas; [Resize]
               re-shapes the merge at each swap. *)
            let mg = Wm_merge.create initial in
            let handle t birth tk =
              match choose t with
              | Some dest -> send dest t birth tk
              | None -> settle tk (-1)
            in
            while !expect < 0 || !eos < !expect do
              match next () with
              | Eos -> incr eos
              | Expect k -> expect := k
              | Data t -> handle t 0.0 No_track
              | Timed (t, birth) -> handle t birth No_track
              | Tracked (t, birth, tk) -> handle t birth tk
              | Wm (slot, w) -> (
                  match Wm_merge.observe mg slot w with
                  | Some m -> wm_forward v wmt m
                  | None -> ())
              | Resize (d, floor) -> (
                  match Wm_merge.reset mg d floor with
                  | Some m -> wm_forward v wmt m
                  | None -> ())
              | Drain | Routed _ -> assert false (* worker channels only *)
            done;
            (if et_on then
               match Wm_merge.force mg with
               | Some m -> wm_forward v wmt m
               | None -> ());
            List.iter (fun mb -> cput v mb Eos)
              (eos_targets (external_succs v)))
      end
      else if op.Operator.replicas = 1 then begin
        (* Standard operator: one actor (paper §4.2, standard case). *)
        let rng = Rng.create (seed + (7919 * (v + 1))) in
        let choose = chooser v rng in
        let snk = new_sink () in
        let send = sender snk v in
        let evented = evented_of behavior in
        let fn =
          match evented with
          | Some e -> e.Behavior.efn
          | None -> Behavior.instantiate behavior
        in
        let apply = invoke snk v fn in
        let stamped = new_stamper snk in
        let wmt = wm_targets v (external_succs v) in
        add_actor ~actor:(opname v) ~vertex:v (fun () ->
            let next = creader inbox in
            let eos = ref 0 in
            let mg = Wm_merge.create expected in
            let max_seen = ref neg_infinity in
            let fire m =
              (match evented with
              | Some e ->
                  let outs = e.Behavior.on_watermark m in
                  if outs <> [] then
                    fanout v send choose outs (stamped ()) No_track
              | None -> ());
              (match snk with
              | Some s when Float.is_finite m ->
                  Sink.record_wm_lag s v (Float.max 0.0 (!max_seen -. m))
              | _ -> ());
              wm_forward v wmt m
            in
            let handle t birth tk =
              match evented with
              | Some e when t.Tuple.ts < Wm_merge.current mg -> (
                  count_late snk v;
                  match lateness with
                  | Ss_event.Lateness.Drop -> settle tk (-1)
                  | Ss_event.Lateness.Side_output dl ->
                      Ss_event.Dead_letter.add dl t;
                      settle tk (-1)
                  | Ss_event.Lateness.Refire ->
                      Atomic.incr consumed.(v);
                      fanout v send choose (e.Behavior.on_late t) birth tk)
              | _ ->
                  if et_on && t.Tuple.ts > !max_seen then
                    max_seen := t.Tuple.ts;
                  Atomic.incr consumed.(v);
                  fanout v send choose (apply t birth) birth tk
            in
            while !eos < expected do
              match next () with
              | Eos -> incr eos
              | Data t -> handle t 0.0 No_track
              | Timed (t, birth) -> handle t birth No_track
              | Tracked (t, birth, tk) -> handle t birth tk
              | Wm (slot, w) -> (
                  match Wm_merge.observe mg slot w with
                  | Some m -> fire m
                  | None -> ())
              | Drain | Expect _ | Resize _ | Routed _ ->
                  assert false (* elastic units only *)
            done;
            (if et_on then
               match Wm_merge.force mg with Some m -> fire m | None -> ());
            List.iter (fun mb -> cput v mb Eos)
              (eos_targets (external_succs v)))
      end
      else if List.mem v ordered then begin
        (* Order-preserving pipelined fission (paper §2): the emitter deals
           inputs round-robin; each worker forwards one {e batch} of results
           per input (possibly empty, for selectivity); the collector pops
           worker queues in the same round-robin order, reconstructing the
           exact arrival order. *)
        let replicas = op.Operator.replicas in
        (* Emitter -> worker and worker -> collector channels each have one
           producer and one consumer, so they ride the SPSC ring. *)
        let worker_mb = Array.init replicas (fun _ -> new_mailbox ~spsc:true ()) in
        (* Each entry is one input's batch of results paired with that
           input's birth time and provenance; [None] is the worker's end
           marker. *)
        let out_mb = Array.init replicas (fun _ -> new_mailbox ~spsc:true ()) in
        add_actor ~actor:(opname v ^ ".emitter") ~vertex:v (fun () ->
            let next = cburst inbox in
            let eos = ref 0 in
            let rr = ref 0 in
            let mg = Wm_merge.create expected in
            (* Route a whole input burst, bucketing per worker, then flush
               each bucket in one amortized mailbox transaction. The strict
               round-robin deal (and thus the collector's reassembly order)
               is untouched: bucketing only batches the publication, the
               per-worker subsequences stay in deal order. *)
            let buckets = Array.make replicas [] in
            while !eos < expected do
              let burst = next () in
              Queue.iter
                (fun m ->
                  match m with
                  | Eos -> incr eos
                  | Data _ | Timed _ | Tracked _ ->
                      let r = !rr mod replicas in
                      incr rr;
                      buckets.(r) <- m :: buckets.(r)
                  | Wm (slot, w) -> (
                      (* A watermark advance takes one round-robin turn
                         like an input: the dealt-to worker echoes it in
                         position and the collector forwards it after
                         exactly the inputs dealt before it. *)
                      match Wm_merge.observe mg slot w with
                      | Some adv ->
                          let r = !rr mod replicas in
                          incr rr;
                          buckets.(r) <- Wm (0, adv) :: buckets.(r)
                      | None -> ())
                  | Drain | Expect _ | Resize _ | Routed _ ->
                      assert false (* elastic units only *))
                burst;
              for r = 0 to replicas - 1 do
                match buckets.(r) with
                | [] -> ()
                | acc ->
                    buckets.(r) <- [];
                    cput_batch v worker_mb.(r) (List.rev acc)
              done
            done;
            (if et_on then
               match Wm_merge.force mg with
               | Some adv ->
                   let r = !rr mod replicas in
                   incr rr;
                   cput v worker_mb.(r) (Wm (0, adv))
               | None -> ());
            Array.iter (fun mb -> cput v mb Eos) worker_mb);
        for r = 0 to replicas - 1 do
          let snk = new_sink () in
          let apply = invoke snk v (Behavior.instantiate behavior) in
          add_actor ~actor:(Printf.sprintf "%s.worker%d" (opname v) r)
            ~vertex:v (fun () ->
              let next = creader worker_mb.(r) in
              let continue = ref true in
              let handle t birth tk =
                Atomic.incr consumed.(v);
                let outs = apply t birth in
                List.iter (fun _ -> Atomic.incr produced.(v)) outs;
                (* The whole batch rides one entry, so the record's single
                   in-flight instance transfers with it: nothing settles
                   until the collector routes the batch. *)
                cput v out_mb.(r) (Obatch (outs, birth, tk))
              in
              while !continue do
                match next () with
                | Eos ->
                    cput v out_mb.(r) Odone;
                    continue := false
                | Data t -> handle t 0.0 No_track
                | Timed (t, birth) -> handle t birth No_track
                | Tracked (t, birth, tk) -> handle t birth tk
                | Wm (_, w) -> cput v out_mb.(r) (Owm w)
                | Drain | Expect _ | Resize _ | Routed _ ->
                    assert false (* elastic units only *)
              done)
        done;
        let rng = Rng.create (seed + (104729 * (v + 1))) in
        let choose = chooser v rng in
        let snk = new_sink () in
        let send = sender snk v in
        add_actor ~actor:(opname v ^ ".collector") ~vertex:v (fun () ->
            let next = Array.map (fun mb -> creader mb) out_mb in
            let forward birth tk outs =
              match tk with
              | No_track ->
                  List.iter
                    (fun t ->
                      match choose t with
                      | Some dest -> send dest t birth No_track
                      | None -> ())
                    outs
              | Track _ ->
                  let routed = List.map (fun t -> (t, choose t)) outs in
                  let live =
                    List.fold_left
                      (fun acc (_, d) ->
                        acc + match d with Some _ -> 1 | None -> 0)
                      0 routed
                  in
                  settle tk (live - 1);
                  List.iter
                    (fun (t, d) ->
                      match d with
                      | Some dest -> send dest t birth tk
                      | None -> ())
                    routed
            in
            let wmt = wm_targets v (external_succs v) in
            let rec collect c =
              match next.(c mod replicas) () with
              | Obatch (outs, birth, tk) ->
                  forward birth tk outs;
                  collect (c + 1)
              | Owm w ->
                  wm_forward v wmt w;
                  collect (c + 1)
              | Odone ->
                  (* The round-robin deal is sequential: the first exhausted
                     worker marks the end; the rest only hold their marker. *)
                  for r = 1 to replicas - 1 do
                    match next.((c + r) mod replicas) () with
                    | Odone -> ()
                    | Obatch _ | Owm _ -> assert false
                  done
            in
            collect 0;
            (* Defensive flush: re-announcing infinity is idempotent at the
               receivers' merges. *)
            if et_on then wm_forward v wmt infinity;
            List.iter (fun mb -> cput v mb Eos)
              (eos_targets (external_succs v)))
      end
      else begin
        (* Parallel operator: emitter, replicas, collector (§4.2). The
           emitter->worker channels are SPSC (one producer: the emitter;
           one consumer: that worker); the collector mailbox is the fission
           merge point — every worker publishes into it — so it gets the
           MPSC ring. *)
        let replicas = op.Operator.replicas in
        let worker_mb = Array.init replicas (fun _ -> new_mailbox ~spsc:true ()) in
        let collector_mb = new_mailbox ~spsc:false () in
        let route_to_replica =
          match op.Operator.kind with
          | Operator.Partitioned_stateful keys ->
              let groups = Ss_core.Key_partitioning.groups_for ~keys ~replicas in
              let support = Discrete.support keys in
              fun (t : Tuple.t) rr ->
                ignore rr;
                groups.((t.Tuple.key mod support + support) mod support)
          | Operator.Stateless | Operator.Stateful ->
              fun _ rr -> rr mod replicas
        in
        (* emitter — burst-granular like the ordered one: route the whole
           drain into per-worker buckets, publish each with one amortized
           transaction. Routing is positional (per-vertex arrival ordinal)
           or key-based, so bucketing changes neither the assignment nor
           any per-worker order. *)
        add_actor ~actor:(opname v ^ ".emitter") ~vertex:v (fun () ->
            let next = cburst inbox in
            let eos = ref 0 in
            let rr = ref 0 in
            let mg = Wm_merge.create expected in
            let buckets = Array.make replicas [] in
            while !eos < expected do
              let burst = next () in
              Queue.iter
                (fun m ->
                  match m with
                  | Eos -> incr eos
                  | Data t | Timed (t, _) | Tracked (t, _, _) ->
                      let r = route_to_replica t !rr in
                      incr rr;
                      buckets.(r) <- m :: buckets.(r)
                  | Wm (slot, w) -> (
                      (* Each advance goes to every replica, in deal
                         position within the burst. *)
                      match Wm_merge.observe mg slot w with
                      | Some adv ->
                          for i = 0 to replicas - 1 do
                            buckets.(i) <- Wm (0, adv) :: buckets.(i)
                          done
                      | None -> ())
                  | Drain | Expect _ | Resize _ | Routed _ ->
                      assert false (* elastic units only *))
                burst;
              for r = 0 to replicas - 1 do
                match buckets.(r) with
                | [] -> ()
                | acc ->
                    buckets.(r) <- [];
                    cput_batch v worker_mb.(r) (List.rev acc)
              done
            done;
            (if et_on then
               match Wm_merge.force mg with
               | Some adv ->
                   Array.iter (fun mb -> cput v mb (Wm (0, adv))) worker_mb
               | None -> ());
            Array.iter (fun mb -> cput v mb Eos) worker_mb);
        (* workers *)
        for r = 0 to replicas - 1 do
          let snk = new_sink () in
          let evented = evented_of behavior in
          let fn =
            match evented with
            | Some e -> e.Behavior.efn
            | None -> Behavior.instantiate behavior
          in
          let apply = invoke snk v fn in
          let stamped = new_stamper snk in
          let emit =
            match snk with
            | Some _ -> fun out birth tk -> cput v collector_mb (wrap out birth tk)
            | None -> fun out _birth tk -> cput v collector_mb (wrap_plain out tk)
          in
          add_actor ~actor:(Printf.sprintf "%s.worker%d" (opname v) r)
            ~vertex:v (fun () ->
              let next = creader worker_mb.(r) in
              let continue = ref true in
              let mg = Wm_merge.create 1 in
              let max_seen = ref neg_infinity in
              let emit_all outs birth tk =
                settle tk (List.length outs - 1);
                List.iter
                  (fun out ->
                    Atomic.incr produced.(v);
                    emit out birth tk)
                  outs
              in
              let fire m =
                (match evented with
                | Some e ->
                    let outs = e.Behavior.on_watermark m in
                    if outs <> [] then emit_all outs (stamped ()) No_track
                | None -> ());
                (match snk with
                | Some s when Float.is_finite m ->
                    Sink.record_wm_lag s v (Float.max 0.0 (!max_seen -. m))
                | _ -> ());
                cput v collector_mb (Wm (r, m))
              in
              let handle t birth tk =
                match evented with
                | Some e when t.Tuple.ts < Wm_merge.current mg -> (
                    count_late snk v;
                    match lateness with
                    | Ss_event.Lateness.Drop -> settle tk (-1)
                    | Ss_event.Lateness.Side_output dl ->
                        Ss_event.Dead_letter.add dl t;
                        settle tk (-1)
                    | Ss_event.Lateness.Refire ->
                        Atomic.incr consumed.(v);
                        emit_all (e.Behavior.on_late t) birth tk)
                | _ ->
                    if et_on && t.Tuple.ts > !max_seen then
                      max_seen := t.Tuple.ts;
                    Atomic.incr consumed.(v);
                    emit_all (apply t birth) birth tk
              in
              while !continue do
                match next () with
                | Eos ->
                    (if et_on then
                       match Wm_merge.force mg with
                       | Some m -> fire m
                       | None -> ());
                    cput v collector_mb Eos;
                    continue := false
                | Data t -> handle t 0.0 No_track
                | Timed (t, birth) -> handle t birth No_track
                | Tracked (t, birth, tk) -> handle t birth tk
                | Wm (_, w) -> (
                    match Wm_merge.observe mg 0 w with
                    | Some m -> fire m
                    | None -> ())
                | Drain | Expect _ | Resize _ | Routed _ ->
                    assert false (* elastic units only *)
              done)
        done;
        (* collector *)
        let rng = Rng.create (seed + (104729 * (v + 1))) in
        let choose = chooser v rng in
        let snk = new_sink () in
        let send = sender snk v in
        let wmt = wm_targets v (external_succs v) in
        add_actor ~actor:(opname v ^ ".collector") ~vertex:v (fun () ->
            let next = creader collector_mb in
            let eos = ref 0 in
            (* The fission fan-in: the unit's outgoing watermark is the
               minimum across its replicas. *)
            let mg = Wm_merge.create replicas in
            let handle t birth tk =
              match choose t with
              | Some dest -> send dest t birth tk
              | None -> settle tk (-1)
            in
            while !eos < replicas do
              match next () with
              | Eos -> incr eos
              | Data t -> handle t 0.0 No_track
              | Timed (t, birth) -> handle t birth No_track
              | Tracked (t, birth, tk) -> handle t birth tk
              | Wm (slot, w) -> (
                  match Wm_merge.observe mg slot w with
                  | Some m -> wm_forward v wmt m
                  | None -> ())
              | Drain | Expect _ | Resize _ | Routed _ ->
                  assert false (* elastic units only *)
            done;
            (if et_on then
               match Wm_merge.force mg with
               | Some m -> wm_forward v wmt m
               | None -> ());
            List.iter (fun mb -> cput v mb Eos)
              (eos_targets (external_succs v)))
      end
    end
  done;

  (* --- meta-operators (Algorithm 4) -------------------------------- *)
  let num_edges = List.length (Topology.edges topology) in
  (* Telemetry hooks for one staged fused loop: edge transfers accumulate
     in a plain local array (flushed by the hosting actor on its counter
     cadence and at end-of-stream), latency/service samples go straight
     into the actor's private sink on the interpreted executor's 1-in-k
     schedule. One record per hosting actor — the arrays are single-writer
     like the sink itself. *)
  let new_fused_tl snk =
    Option.map
      (fun s ->
        {
          Fused_compile.sample_every = instrument.telemetry_sample;
          edge_count = Array.make num_edges 0;
          edge_index = edge_id;
          record_latency = (fun v x -> Sink.record_latency s v x);
          record_service = (fun v x -> Sink.record_service s v x);
          birth = ref 0.0;
        })
      snk
  in
  let flush_edges snk tl =
    match (snk, tl) with
    | Some s, Some tl ->
        let ec = tl.Fused_compile.edge_count in
        Array.iteri
          (fun e k ->
            if k <> 0 then begin
              Sink.add_edge s e k;
              ec.(e) <- 0
            end)
          ec
    | _ -> ()
  in
  let birth_setter tl =
    match tl with
    | Some tl -> fun b -> tl.Fused_compile.birth := b
    | None -> fun (_ : float) -> ()
  in
  List.iteri
    (fun gi members ->
      let front = fronts.(gi) in
      let inbox = mailbox_of front in
      let expected = expected_eos front in
      (* Replica worker [r] of group [gi] draws from
         seed + 15485863*(gi+1) + 7919*r — keep in sync with the single
         meta-actor convention (r = 0 reproduces it) and with the
         documented seeding table in {!Ss_sim.Engine}. *)
      let group_seed r = seed + (15485863 * (gi + 1)) + (7919 * r) in
      let all_external =
        List.concat_map
          (fun v ->
            List.filter
              (fun w -> group_of.(w) <> gi)
              (List.map fst (Topology.succs topology v)))
          members
      in
      (* Deploy-time staging: compile the group into one flat closure
         ({!Fused_compile.plan}, or a caller-supplied chain matched by
         member set) whenever the run's message traffic is the plain
         [Data]/[Timed] common case. Event time (watermarks, lateness),
         ingest (tracked provenance) and router overrides all need the
         interpreted walk, as do group shapes the planner declines; count
         parity makes the choice unobservable. Telemetry no longer forces
         interpretation: the planner instruments the loop itself (supplied
         chains cannot be instrumented, so they are skipped when telemetry
         is on). *)
      let baseline_ok =
        (not et_on)
        && Option.is_none ingest
        && not (List.exists (fun v -> List.mem_assoc v routers) members)
      in
      let stage ?telemetry () =
        match fusion with
        | `Compiled ->
            Fused_compile.plan ?telemetry topology ~members ~registry
        | `Interpreted ->
            Fused_compile.interpret ?telemetry topology ~members ~registry
      in
      let stageable =
        baseline_ok && match stage () with Ok _ -> true | Error _ -> false
      in
      (* Fission of a fused group: the whole staged loop replicates, one
         instance per worker. Legality needs the group linear (routing
         draws are then count-neutral, so splitting the rng stream across
         replicas keeps per-vertex counts bit-identical to the
         single-actor walk) and every member fissionable. Routing at the
         emitter is by input-tuple key as soon as any member partitions
         state by key — members are assumed key-preserving, like the
         per-vertex fission they replace. *)
      let group_replicas =
        (Topology.operator topology front).Operator.replicas
      in
      let partitioned_keys =
        List.find_map
          (fun v ->
            match (Topology.operator topology v).Operator.kind with
            | Operator.Partitioned_stateful keys -> Some keys
            | Operator.Stateless | Operator.Stateful -> None)
          members
      in
      let replicable =
        stageable
        && Fused_compile.linear topology ~members
        && List.for_all
             (fun v -> Operator.can_replicate (Topology.operator topology v))
             members
        && not (List.exists (fun v -> List.mem v ordered) members)
      in
      let group_stateless =
        List.for_all
          (fun v -> (registry v).Behavior.state_kind = Behavior.Stateless_op)
          members
      in
      (* Elastic deployment additionally needs the staged instance to hand
         its whole state across a generation swap, and a keyed routing to
         repartition it under (stateless groups have nothing to move). *)
      let elastic_ok =
        replicable
        && Option.is_some control
        && Fused_compile.migratable ~members ~registry
        && (group_stateless || Option.is_some partitioned_keys)
      in
      (* One staged host loop, shared by the single actor and every
         replica worker: plain local counters flushed on a budget, at
         end-of-stream and on failure ([Fun.protect] — a crash downstream
         must not lose the counts and edge transfers already earned). *)
      let host_loop ~next ~tl ~snk ~rng ~staged ~prepare ~emit ~on_eos
          ~on_drain () =
        let lc = Array.make n 0 and lp = Array.make n 0 in
        let flush () =
          List.iter
            (fun v ->
              if lc.(v) <> 0 then begin
                ignore (Atomic.fetch_and_add consumed.(v) lc.(v));
                lc.(v) <- 0
              end;
              if lp.(v) <> 0 then begin
                ignore (Atomic.fetch_and_add produced.(v) lp.(v));
                lp.(v) <- 0
              end)
            members;
          flush_edges snk tl
        in
        let inst =
          staged { Fused_compile.rng; consumed = lc; produced = lp; emit }
        in
        prepare inst;
        let set_birth = birth_setter tl in
        let budget = ref flush_every in
        let step = inst.Fused_compile.step in
        let ingest_tuple t =
          step t;
          decr budget;
          if !budget <= 0 then begin
            flush ();
            budget := flush_every
          end
        in
        Fun.protect ~finally:flush (fun () ->
            let eos = ref 0 in
            let continue = ref true in
            while !continue do
              match next () with
              | Eos ->
                  incr eos;
                  if on_eos inst !eos then continue := false
              | Drain ->
                  on_drain inst;
                  continue := false
              | Data t ->
                  set_birth 0.0;
                  ingest_tuple t
              | Timed (t, birth) ->
                  set_birth birth;
                  ingest_tuple t
              | Tracked _ | Wm _ | Expect _ | Resize _ | Routed _ ->
                  assert false (* excluded by eligibility above *)
            done)
      in
      let staged_of tl =
        match stage ?telemetry:tl () with
        | Ok staged -> staged
        | Error _ -> assert false (* guarded by [stageable] *)
      in
      let staged_deployed =
        if elastic_ok then begin
          (* --- elastic fused unit: the vertex-level swap protocol
             (emitter-coordinated drain, keyed-state handoff, [Expect]
             terminated collector), hosting one staged group instance per
             worker. The staged instance's export/import carry every
             stateful member's keyed state in one flat list, so a resize
             moves window phases and running aggregates losslessly. *)
          let ctl = match control with Some c -> c | None -> assert false in
          let initial = group_replicas in
          ctl.managed.(front) <- true;
          Atomic.set ctl.target.(front) initial;
          Atomic.set ctl.applied.(front) initial;
          let collector_mb = new_mailbox ~spsc:false () in
          let handoff_mb : Behavior.keyed_state Mailbox.t =
            new_mailbox ~spsc:false ()
          in
          let partition_of d =
            match partitioned_keys with
            | Some keys ->
                let groups =
                  Ss_core.Key_partitioning.groups_for ~keys ~replicas:d
                in
                let support = Discrete.support keys in
                Some (fun k -> groups.(((k mod support) + support) mod support))
            | None -> None
          in
          let route_of d =
            match partition_of d with
            | Some owner -> fun (t : Tuple.t) _rr -> owner t.Tuple.key
            | None -> fun (_ : Tuple.t) rr -> rr mod d
          in
          let make_worker ~gen ~r mb state =
            let snk = new_sink () in
            let tl = new_fused_tl snk in
            let emit =
              match tl with
              | Some tlr ->
                  fun _ dest out ->
                    cput front collector_mb
                      (Routed (dest, out, !(tlr.Fused_compile.birth)))
              | None ->
                  fun _ dest out ->
                    cput front collector_mb (Routed (dest, out, 0.0))
            in
            let body () =
              host_loop
                ~next:(creader mb)
                ~tl ~snk
                ~rng:(Rng.create (group_seed r))
                ~staged:(staged_of tl)
                ~prepare:(fun inst ->
                  match state with
                  | Some st -> inst.Fused_compile.import st
                  | None -> ())
                ~emit
                ~on_eos:(fun _ _ ->
                  cput front collector_mb Eos;
                  true)
                ~on_drain:(fun inst ->
                  cput front handoff_mb (inst.Fused_compile.export ()))
                ()
            in
            ( Printf.sprintf "fused%d.%s.g%d.worker%d" gi (opname front) gen r,
              body )
          in
          let gen0_mbs =
            Array.init initial (fun _ -> new_mailbox ~spsc:true ())
          in
          Array.iteri
            (fun r mb ->
              let name, body = make_worker ~gen:0 ~r mb None in
              add_actor ~actor:name ~vertex:front body)
            gen0_mbs;
          (* emitter *)
          add_actor
            ~actor:(Printf.sprintf "fused%d.%s.emitter" gi (opname front))
            ~vertex:front
            (fun () ->
              let next = cburst inbox in
              let next_handoff = creader handoff_mb in
              let degree = ref initial in
              let gen = ref 0 in
              let mbs = ref gen0_mbs in
              let route = ref (route_of initial) in
              let buckets = ref (Array.make initial []) in
              let eos = ref 0 in
              let rr = ref 0 in
              let reconfigure want =
                let t0 = Unix.gettimeofday () in
                Array.iter (fun mb -> cput front mb Drain) !mbs;
                let merged = ref [] in
                for _ = 1 to !degree do
                  merged := List.rev_append (next_handoff ()) !merged
                done;
                incr gen;
                let d = want in
                let mbs' =
                  Array.init d (fun _ -> new_mailbox ~spsc:true ())
                in
                let parts = Array.make d None in
                (match partition_of d with
                | Some owner ->
                    (* Entries are keyed by tuple key (the member tag
                       rides inside the value array), so they repartition
                       under the new degree exactly like the tuples
                       themselves. *)
                    let parts' = Array.make d [] in
                    List.iter
                      (fun ((k, _) as entry) ->
                        let r = owner k in
                        parts'.(r) <- entry :: parts'.(r))
                      !merged;
                    Array.iteri (fun r st -> parts.(r) <- Some st) parts'
                | None -> ());
                Array.iteri
                  (fun r mb ->
                    let name, body = make_worker ~gen:!gen ~r mb parts.(r) in
                    !spawn_dyn ~actor:name ~vertex:front body)
                  mbs';
                mbs := mbs';
                route := route_of d;
                buckets := Array.make d [];
                degree := d;
                rr := 0;
                Atomic.set ctl.applied.(front) d;
                Atomic.set ctl.downtime.(front)
                  (Atomic.get ctl.downtime.(front)
                  +. (Unix.gettimeofday () -. t0));
                Atomic.incr ctl.generation
              in
              while !eos < expected do
                let want = Atomic.get ctl.target.(front) in
                if want >= 1 && want <> !degree then reconfigure want;
                let burst = next () in
                let bks = !buckets and rt = !route in
                Queue.iter
                  (fun m ->
                    match m with
                    | Eos -> incr eos
                    | Data t | Timed (t, _) ->
                        let r = rt t !rr in
                        incr rr;
                        bks.(r) <- m :: bks.(r)
                    | Tracked _ | Wm _ | Drain | Expect _ | Resize _
                    | Routed _ ->
                        assert false)
                  burst;
                for r = 0 to !degree - 1 do
                  match bks.(r) with
                  | [] -> ()
                  | acc ->
                      bks.(r) <- [];
                      cput_batch front !mbs.(r) (List.rev acc)
                done
              done;
              Array.iter (fun mb -> cput front mb Eos) !mbs;
              cput front collector_mb (Expect !degree));
          (* collector: forwards pre-routed results — the worker chains
             already drew destinations and counted edges — and terminates
             on the final generation's degree. *)
          add_actor
            ~actor:(Printf.sprintf "fused%d.%s.collector" gi (opname front))
            ~vertex:front
            (fun () ->
              let next = creader collector_mb in
              let eos = ref 0 in
              let expect = ref (-1) in
              let forward =
                match collector with
                | Some _ ->
                    fun dest out birth ->
                      cput front (mailbox_of dest) (Timed (out, birth))
                | None ->
                    fun dest out _ ->
                      cput front (mailbox_of dest) (Data out)
              in
              while !expect < 0 || !eos < !expect do
                match next () with
                | Eos -> incr eos
                | Expect k -> expect := k
                | Routed (dest, out, birth) -> forward dest out birth
                | Data _ | Timed _ | Tracked _ | Wm _ | Drain | Resize _ ->
                    assert false
              done;
              List.iter (fun mb -> cput front mb Eos)
                (eos_targets all_external));
          true
        end
        else if replicable && group_replicas > 1 then begin
          (* --- static replicated fused unit: emitter, [group_replicas]
             workers each hosting one staged loop, collector (§4.2 shape
             over a whole group). *)
          let replicas = group_replicas in
          let worker_mb =
            Array.init replicas (fun _ -> new_mailbox ~spsc:true ())
          in
          let collector_mb = new_mailbox ~spsc:false () in
          let route_to_replica =
            match partitioned_keys with
            | Some keys ->
                let groups =
                  Ss_core.Key_partitioning.groups_for ~keys ~replicas
                in
                let support = Discrete.support keys in
                fun (t : Tuple.t) _rr ->
                  groups.(((t.Tuple.key mod support) + support) mod support)
            | None -> fun (_ : Tuple.t) rr -> rr mod replicas
          in
          add_actor
            ~actor:(Printf.sprintf "fused%d.%s.emitter" gi (opname front))
            ~vertex:front
            (fun () ->
              let next = cburst inbox in
              let eos = ref 0 in
              let rr = ref 0 in
              let buckets = Array.make replicas [] in
              while !eos < expected do
                let burst = next () in
                Queue.iter
                  (fun m ->
                    match m with
                    | Eos -> incr eos
                    | Data t | Timed (t, _) ->
                        let r = route_to_replica t !rr in
                        incr rr;
                        buckets.(r) <- m :: buckets.(r)
                    | Tracked _ | Wm _ | Drain | Expect _ | Resize _
                    | Routed _ ->
                        assert false)
                  burst;
                for r = 0 to replicas - 1 do
                  match buckets.(r) with
                  | [] -> ()
                  | acc ->
                      buckets.(r) <- [];
                      cput_batch front worker_mb.(r) (List.rev acc)
                done
              done;
              Array.iter (fun mb -> cput front mb Eos) worker_mb);
          for r = 0 to replicas - 1 do
            let snk = new_sink () in
            let tl = new_fused_tl snk in
            let emit =
              match tl with
              | Some tlr ->
                  fun _ dest out ->
                    cput front collector_mb
                      (Routed (dest, out, !(tlr.Fused_compile.birth)))
              | None ->
                  fun _ dest out ->
                    cput front collector_mb (Routed (dest, out, 0.0))
            in
            add_actor
              ~actor:
                (Printf.sprintf "fused%d.%s.worker%d" gi (opname front) r)
              ~vertex:front
              (fun () ->
                host_loop
                  ~next:(creader worker_mb.(r))
                  ~tl ~snk
                  ~rng:(Rng.create (group_seed r))
                  ~staged:(staged_of tl)
                  ~prepare:ignore
                  ~emit
                  ~on_eos:(fun _ _ ->
                    cput front collector_mb Eos;
                    true)
                  ~on_drain:(fun _ -> assert false (* static unit *))
                  ())
          done;
          add_actor
            ~actor:(Printf.sprintf "fused%d.%s.collector" gi (opname front))
            ~vertex:front
            (fun () ->
              let next = creader collector_mb in
              let eos = ref 0 in
              let forward =
                match collector with
                | Some _ ->
                    fun dest out birth ->
                      cput front (mailbox_of dest) (Timed (out, birth))
                | None ->
                    fun dest out _ ->
                      cput front (mailbox_of dest) (Data out)
              in
              while !eos < replicas do
                match next () with
                | Eos -> incr eos
                | Routed (dest, out, birth) -> forward dest out birth
                | Data _ | Timed _ | Tracked _ | Wm _ | Drain | Expect _
                | Resize _ ->
                    assert false
              done;
              List.iter (fun mb -> cput front mb Eos)
                (eos_targets all_external));
          true
        end
        else if fusion = `Compiled && baseline_ok then begin
          (* --- single staged actor: the compiled closed loop of the whole
             group, telemetry-instrumented when the run collects it. *)
          let snk = new_sink () in
          let tl = new_fused_tl snk in
          let staged =
            let key = List.sort compare members in
            match
              match collector with
              | None ->
                  List.find_opt
                    (fun (m, _) -> List.sort compare m = key)
                    chains
              | Some _ -> None
            with
            | Some (_, chain) -> Some (Fused_compile.of_chain chain)
            | None -> (
                match Fused_compile.plan ?telemetry:tl topology ~members ~registry with
                | Ok staged -> Some staged
                | Error _ -> None)
          in
          match staged with
          | None -> false
          | Some staged ->
              let emit =
                match tl with
                | Some tlr ->
                    fun v dest out ->
                      cput v (mailbox_of dest)
                        (Timed (out, !(tlr.Fused_compile.birth)))
                | None ->
                    fun v dest out -> cput v (mailbox_of dest) (Data out)
              in
              add_actor
                ~actor:(Printf.sprintf "fused%d.%s" gi (opname front))
                ~vertex:front
                (fun () ->
                  host_loop
                    ~next:(creader inbox)
                    ~tl ~snk
                    ~rng:(Rng.create (group_seed 0))
                    ~staged ~prepare:ignore ~emit
                    ~on_eos:(fun _ eos ->
                      if eos < expected then false
                      else begin
                        List.iter (fun mb -> cput front mb Eos)
                          (eos_targets all_external);
                        true
                      end)
                    ~on_drain:(fun _ -> assert false (* static actor *))
                    ());
              true
        end
        else false
      in
      if staged_deployed then ()
      else begin
      let rng = Rng.create (group_seed 0) in
      (* Evented members keep one shared instance: its [efn] buckets from
         the Algorithm 4 walk and its watermark hooks fire from the group's
         merge below. *)
      (* Dense vertex-indexed member tables: the walk below hits them per
         tuple, so they are plain array reads, not hash probes. Non-member
         slots keep the inert defaults and are never consulted. *)
      let insts = Array.make n None in
      let fns = Array.make n (fun (_ : Tuple.t) -> ([] : Tuple.t list)) in
      List.iter
        (fun v ->
          let b = registry v in
          match b.Behavior.evented with
          | Some mk ->
              let e = mk () in
              insts.(v) <- Some e;
              fns.(v) <- e.Behavior.efn
          | None -> fns.(v) <- Behavior.instantiate b)
        members;
      let choosers = Array.make n (fun (_ : Tuple.t) -> (None : int option)) in
      List.iter (fun v -> choosers.(v) <- chooser v rng) members;
      let snk = new_sink () in
      let applies = Array.make n (fun (_ : Tuple.t) (_ : float) -> []) in
      List.iter (fun v -> applies.(v) <- invoke snk v fns.(v)) members;
      let senders =
        Array.make n (fun (_ : int) (_ : Tuple.t) (_ : float) (_ : track) -> ())
      in
      List.iter (fun v -> senders.(v) <- sender snk v) members;
      (* Members in topology order: the group watermark fires them front
         first, so an upstream member's fired results are bucketed by
         downstream members before those fire at the same watermark. *)
      let topo_members =
        Array.to_list (Topology.topological_order topology)
        |> List.filter (fun v -> List.mem v members)
      in
      (* Algorithm 4: follow each result through the sub-graph until it
         exits; the sub-graph is acyclic so the walk terminates. Intra-group
         hops count on their topology edge like external ones, so the edge
         counters see through the fusion. *)
      (* Intra-group recursion is synchronous, so a recursive hop carries
         the instance it was granted in [live] below and settles it on its
         own account when its sub-walk ends — the same protocol as a
         mailbox hop, without the mailbox. [route_outs] is the shared exit
         path: the walk feeds it behavior results, the watermark path feeds
         it window firings. *)
      let rec route_outs v outs birth tk =
        let choose = choosers.(v) in
        let deliver dest out =
          if group_of.(dest) = gi then begin
            (match snk with
            | Some s -> Sink.incr_edge s (edge_id v dest)
            | None -> ());
            process dest out birth tk
          end
          else senders.(v) dest out birth tk
        in
        match tk with
        | No_track ->
            List.iter
              (fun out ->
                Atomic.incr produced.(v);
                match choose out with
                | Some dest -> deliver dest out
                | None -> ())
              outs
        | Track _ ->
            let routed =
              List.map
                (fun out ->
                  Atomic.incr produced.(v);
                  (out, choose out))
                outs
            in
            let live =
              List.fold_left
                (fun acc (_, d) -> acc + match d with Some _ -> 1 | None -> 0)
                0 routed
            in
            settle tk (live - 1);
            List.iter
              (fun (out, d) ->
                match d with Some dest -> deliver dest out | None -> ())
              routed
      and process v t birth tk =
        Atomic.incr consumed.(v);
        route_outs v (applies.(v) t birth) birth tk
      in
      let wmt = wm_targets front all_external in
      let stamped = new_stamper snk in
      add_actor
        ~actor:(Printf.sprintf "fused%d.%s" gi (opname front))
        ~vertex:front
        (fun () ->
          let next = creader inbox in
          let eos = ref 0 in
          let mg = Wm_merge.create expected in
          let max_seen = ref neg_infinity in
          let fire m =
            List.iter
              (fun v ->
                match insts.(v) with
                | Some e ->
                    let outs = e.Behavior.on_watermark m in
                    if outs <> [] then route_outs v outs (stamped ()) No_track
                | None -> ())
              topo_members;
            (match snk with
            | Some s when Float.is_finite m ->
                Sink.record_wm_lag s front (Float.max 0.0 (!max_seen -. m))
            | _ -> ());
            wm_forward front wmt m
          in
          (* Lateness applies at the group boundary: internal hops are
             synchronous, so a tuple admitted on time stays on time through
             the walk. *)
          let admit t birth tk =
            match insts.(front) with
            | Some e when t.Tuple.ts < Wm_merge.current mg -> (
                count_late snk front;
                match lateness with
                | Ss_event.Lateness.Drop -> settle tk (-1)
                | Ss_event.Lateness.Side_output dl ->
                    Ss_event.Dead_letter.add dl t;
                    settle tk (-1)
                | Ss_event.Lateness.Refire ->
                    Atomic.incr consumed.(front);
                    route_outs front (e.Behavior.on_late t) birth tk)
            | _ ->
                if et_on && t.Tuple.ts > !max_seen then max_seen := t.Tuple.ts;
                process front t birth tk
          in
          while !eos < expected do
            match next () with
            | Eos -> incr eos
            | Data t -> admit t 0.0 No_track
            | Timed (t, birth) -> admit t birth No_track
            | Tracked (t, birth, tk) -> admit t birth tk
            | Wm (slot, w) -> (
                match Wm_merge.observe mg slot w with
                | Some m -> fire m
                | None -> ())
            | Drain | Expect _ | Resize _ | Routed _ ->
                assert false (* elastic units only *)
          done;
          (if et_on then
             match Wm_merge.force mg with Some m -> fire m | None -> ());
          List.iter (fun mb -> cput front mb Eos)
            (eos_targets all_external))
      end)
    fused;

  let actors = List.rev !actors in
  (* Entry-mailbox occupancy sampling, run by the pool's tick on the
     calling domain — no extra domain, and none at all when the caller opts
     out. *)
  let occ_sum = Array.make n 0.0 in
  let occ_samples = ref 0 in
  let sample_occ () =
    for v = 0 to n - 1 do
      match entry_mailbox.(v) with
      | Some mb -> occ_sum.(v) <- occ_sum.(v) +. float_of_int (Mailbox.length mb)
      | None -> ()
    done;
    incr occ_samples
  in
  (* One periodic instrumentation pass: occupancy sampling and the live
     telemetry aggregate share the tick cadence. Telemetry alone does not
     force a tick — on small machines a 1 ms tick costs more than all the
     recording combined; without one, [Collector.live] merges on demand and
     the final report is aggregated after the join anyway. *)
  let instr_active = instrument.sample_occupancy in
  let instr_tick () =
    sample_occ ();
    Option.iter Telemetry.Collector.refresh collector
  in
  let t0 = Unix.gettimeofday () in
  let group_of_vertex, group_sizes =
    match placement with
    | Some p -> placement_groups ~workers p
    | None -> (Array.make n 0, [| workers |])
  in
  let pool = Ss_sched.Sched.create ~workers ~groups:group_sizes ~reserve () in
  let ngroups = Array.length group_sizes in
  List.iter
    (fun (actor, vertex, group_hint, body) ->
      let group =
        match (group_hint, vertex) with
        | Some g, _ -> g mod ngroups
        | None, Some v -> group_of_vertex.(v)
        | None, None -> 0
      in
      Ss_sched.Sched.spawn ~group pool
        (Supervision.supervise sup ~actor ?vertex body))
    actors;
  (spawn_dyn :=
     fun ~actor ~vertex body ->
       Ss_sched.Sched.spawn ~group:group_of_vertex.(vertex) pool
         (Supervision.supervise sup ~actor ~vertex body));
  Option.iter
    (fun f ->
      f
        {
          li_consumed = consumed;
          li_produced = produced;
          li_collector = collector;
          li_pool = pool;
        })
    notify;
  (* Watchdog, on the same tick: trip the supervisor when the wall-clock
     budget runs out. Cancellation is cooperative — it takes effect when
     actors touch a mailbox — so a behavior spinning forever on one tuple
     is not interruptible. *)
  let watchdog () =
    match timeout with
    | Some limit
      when (not (Supervision.tripped sup))
           && Unix.gettimeofday () -. t0 >= limit ->
        Supervision.trip_timeout sup ~after:limit
    | _ -> ()
  in
  let interval =
    if instr_active then Some sample_interval
    else Option.map (fun limit -> Float.min 0.005 (limit /. 10.0)) timeout
  in
  let tick =
    Option.map
      (fun i ->
        ( i,
          fun () ->
            if instr_active then instr_tick ();
            watchdog () ))
      interval
  in
  Ss_sched.Sched.run ?tick pool;
  let elapsed = Float.max (Unix.gettimeofday () -. t0) 1e-9 in
  (* Final offset commit, whatever the outcome: after a clean drain the
     watermark is the log end; after a timeout or failure it is exactly
     the prefix whose derivation trees fully drained, so a restarted run
     redelivers the uncommitted suffix and nothing is lost. Watermarks
     are monotone from the previously committed position, so this never
     rewinds a group. *)
  (match ingest with
  | None -> ()
  | Some i ->
      Array.iteri
        (fun p compl ->
          Ss_log.Log.commit i.ingest_log ~group:i.ingest_group ~partition:p
            (Completion.watermark compl))
        completions);
  let consumed = Array.map Atomic.get consumed in
  let produced = Array.map Atomic.get produced in
  let late = Array.map Atomic.get late in
  let occupancy =
    let samples = float_of_int (Stdlib.max 1 !occ_samples) in
    Array.map (fun s -> s /. samples) occ_sum
  in
  {
    elapsed;
    consumed;
    produced;
    late;
    source_rate = float_of_int produced.(src) /. elapsed;
    blocked = Array.map Atomic.get blocked;
    occupancy;
    telemetry = Option.map Telemetry.Collector.report collector;
    actors = Supervision.reports sup;
    outcome = Supervision.outcome sup;
  }

let run ?ingest ?event_time ?mailbox_capacity ?fused ?fusion ?chains
    ?flush_every ?routers ?ordered ?seed ?timeout ?workers ?placement ?batch
    ?instrument ~source ~registry topology =
  run_internal ?ingest ?event_time ?mailbox_capacity ?fused ?fusion ?chains
    ?flush_every ?routers ?ordered ?seed ?timeout ?workers ?placement ?batch
    ?instrument ~source ~registry topology

(* ------------------------------------------------------------------ *)
(* Live deployments: the executor runs on its own domain while the caller
   keeps a handle for observation (counters, live telemetry, measured
   downtime) and mutation (degree targets, worker admission). *)
module Live = struct
  type nonrec t = {
    topology : Topology.t;
    ctl : control;
    internals : live_internals;
    instrument : instrument;
    domain : metrics Domain.t;
  }

  let start ?event_time ?(mailbox_capacity = 64) ?fused ?fusion ?chains
      ?flush_every ?(routers = []) ?(seed = 42) ?timeout ?workers
      ?(reserve = 0) ?(batch = `Adaptive 32)
      ?(instrument = { default_instrument with telemetry = true }) ~source
      ~registry topology =
    let n = Topology.size topology in
    let ctl =
      {
        target = Array.init n (fun _ -> Atomic.make 1);
        applied = Array.init n (fun _ -> Atomic.make 1);
        managed = Array.make n false;
        generation = Atomic.make 0;
        downtime = Array.init n (fun _ -> Atomic.make 0.0);
        stop = Atomic.make false;
      }
    in
    Array.iteri
      (fun v (op : Operator.t) ->
        Atomic.set ctl.target.(v) op.Operator.replicas;
        Atomic.set ctl.applied.(v) op.Operator.replicas)
      (Topology.operators topology);
    let source () = if Atomic.get ctl.stop then None else source () in
    (* The handle is only returned once deployment completed and the pool is
       about to run, so accessors never see half-built internals; a
       validation error raised before that point propagates here through
       the join. *)
    let ready_m = Mutex.create () in
    let ready_c = Condition.create () in
    let cell = ref None in
    let failed = ref false in
    let notify li =
      Mutex.lock ready_m;
      cell := Some li;
      Condition.signal ready_c;
      Mutex.unlock ready_m
    in
    let domain =
      Domain.spawn (fun () ->
          try
            run_internal ~control:ctl ~notify ?event_time ~reserve
              ~mailbox_capacity ?fused ?fusion ?chains ?flush_every ~routers
              ~seed ?timeout ?workers ~batch ~instrument ~source
              ~registry topology
          with e ->
            Mutex.lock ready_m;
            failed := true;
            Condition.signal ready_c;
            Mutex.unlock ready_m;
            raise e)
    in
    Mutex.lock ready_m;
    while !cell = None && not !failed do
      Condition.wait ready_c ready_m
    done;
    Mutex.unlock ready_m;
    match !cell with
    | Some internals -> { topology; ctl; internals; instrument; domain }
    | None ->
        ignore (Domain.join domain : metrics);
        assert false (* the domain must have raised *)

  let topology t = t.topology
  let telemetry_sample t = t.instrument.telemetry_sample
  let elastic t = Array.copy t.ctl.managed
  let degrees t = Array.map Atomic.get t.ctl.applied
  let generation t = Atomic.get t.ctl.generation
  let downtime t = Array.map Atomic.get t.ctl.downtime

  let total_downtime t =
    Array.fold_left (fun acc c -> acc +. Atomic.get c) 0.0 t.ctl.downtime

  let consumed t = Array.map Atomic.get t.internals.li_consumed
  let produced t = Array.map Atomic.get t.internals.li_produced

  let telemetry t =
    Option.map Telemetry.Collector.live t.internals.li_collector

  let resize t ~vertex degree =
    if degree < 1 then invalid_arg "Executor.Live.resize: degree must be >= 1";
    if vertex < 0 || vertex >= Array.length t.ctl.managed then
      invalid_arg "Executor.Live.resize: vertex out of range";
    if not t.ctl.managed.(vertex) then false
    else begin
      Atomic.set t.ctl.target.(vertex) degree;
      true
    end

  let add_workers t k = Ss_sched.Sched.add_workers t.internals.li_pool k
  let retire_workers t k = Ss_sched.Sched.retire_workers t.internals.li_pool k
  let active_workers t = Ss_sched.Sched.active_workers t.internals.li_pool

  let stop t =
    Atomic.set t.ctl.stop true;
    Domain.join t.domain
end
