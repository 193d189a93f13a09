open Ss_prelude
open Ss_topology

module Histogram = Ss_telemetry.Histogram

type config = {
  buffer_capacity : int;
  emitter_service_time : float;
  collector_service_time : float;
  warmup : float;
  measure : float;
  seed : int;
  track_latency : bool;
}

let default_config =
  {
    buffer_capacity = 16;
    emitter_service_time = 2e-6;
    collector_service_time = 2e-6;
    warmup = 3.0;
    measure = 15.0;
    seed = 42;
    track_latency = false;
  }

type vertex_stats = {
  arrival_rate : float;
  departure_rate : float;
  busy_fraction : float;
  mean_queue_length : float;
  mean_waiting_time : float;
}

type result = {
  stats : vertex_stats array;
  throughput : float;
  simulated_time : float;
  events : int;
  latency : Histogram.t array option;
}

(* Destination choice performed when a station emits an item. *)
type route =
  | To_none  (* sink: results leave the system *)
  | Probabilistic of Discrete.t * int array  (* distribution over stations *)
  | Round_robin of int array
  | By_key of Discrete.t * int array * int array
      (* key distribution, key-group -> replica, replica -> station *)

type station = {
  id : int;
  vertex : int;  (* owning topology vertex *)
  is_source : bool;
  is_worker : bool;  (* a serving station: latency is sampled here *)
  dist : Dist.t;
  credit_per_item : float;  (* results produced per item consumed *)
  route : route;
  capacity : int;
  (* Items are indistinguishable for rate purposes: the bounded FIFO input
     buffer reduces to a counter — except for latency tracking, where the
     [births] queue mirrors the counter with each queued item's source
     emission time. *)
  mutable queued : int;
  mutable busy : bool;
  mutable blocked : bool;
  (* Destination stations awaiting delivery, each with the carried item's
     birth time (0. when latency tracking is off). *)
  mutable pending : (int * float) list;
  births : float Queue.t;
  mutable current_birth : float;  (* birth of the item in service *)
  mutable credit : float;
  mutable rr : int;
  waiters : int Queue.t;  (* stations blocked on a full buffer here *)
  mutable service_end : float;
  mutable service_start : float;
  mutable consumed : int;
  mutable produced : int;
  mutable busy_time : float;
  (* Time-weighted integral of the buffer occupancy, for Little's-law
     waiting-time estimates. *)
  mutable queue_area : float;
  mutable queue_changed_at : float;
  (* Snapshots taken at the end of warmup. *)
  mutable consumed_mark : int;
  mutable produced_mark : int;
  mutable busy_mark : float;
  mutable queue_area_mark : float;
}

type t = {
  stations : station array;
  entry_of : int array;  (* vertex -> entry station *)
  exit_of : int array;  (* vertex -> exit station *)
  workers_of : int list array;  (* vertex -> worker stations *)
  events : (float * int * int) Heap.t;  (* time, tie-break, station *)
  rng : Rng.t;
  track : bool;  (* latency tracking on? *)
  lat : Histogram.t array;  (* per vertex: age at worker service start *)
  mutable now : float;
  mutable seq : int;
  mutable event_count : int;
}

let make_station ~id ~vertex ~is_source ~is_worker ~dist ~credit_per_item
    ~route ~capacity =
  {
    id;
    vertex;
    is_source;
    is_worker;
    dist;
    credit_per_item;
    route;
    capacity;
    queued = 0;
    busy = false;
    blocked = false;
    pending = [];
    births = Queue.create ();
    current_birth = 0.0;
    credit = 0.0;
    rr = 0;
    waiters = Queue.create ();
    service_end = 0.0;
    service_start = 0.0;
    consumed = 0;
    produced = 0;
    busy_time = 0.0;
    queue_area = 0.0;
    queue_changed_at = 0.0;
    consumed_mark = 0;
    produced_mark = 0;
    busy_mark = 0.0;
    queue_area_mark = 0.0;
  }

(* Expand the topology into stations. Vertices are processed in id order;
   entry/exit station ids are recorded so edges can be wired afterwards. *)
let build config topology =
  let n = Topology.size topology in
  let src = Topology.source topology in
  if (Topology.operator topology src).Operator.replicas <> 1 then
    invalid_arg "Engine.run: the source operator cannot be replicated";
  let stations = ref [] in
  let next_id = ref 0 in
  let entry_of = Array.make n (-1) in
  let exit_of = Array.make n (-1) in
  let workers_of = Array.make n [] in
  let fresh mk =
    let id = !next_id in
    incr next_id;
    let s = mk id in
    stations := s :: !stations;
    s
  in
  (* First pass: create stations with placeholder routes (patched below once
     every vertex's entry station is known). *)
  let placeholder = To_none in
  for v = 0 to n - 1 do
    let op = Topology.operator topology v in
    let credit = Operator.selectivity_factor op in
    if op.Operator.replicas = 1 then begin
      let s =
        fresh (fun id ->
            make_station ~id ~vertex:v ~is_source:(v = src)
              ~is_worker:(v <> src) ~dist:op.Operator.service_dist
              ~credit_per_item:credit ~route:placeholder
              ~capacity:config.buffer_capacity)
      in
      entry_of.(v) <- s.id;
      exit_of.(v) <- s.id;
      workers_of.(v) <- [ s.id ]
    end
    else begin
      let emitter =
        fresh (fun id ->
            make_station ~id ~vertex:v ~is_source:false ~is_worker:false
              ~dist:(Dist.Deterministic config.emitter_service_time)
              ~credit_per_item:1.0 ~route:placeholder
              ~capacity:config.buffer_capacity)
      in
      let workers =
        List.init op.Operator.replicas (fun _ ->
            fresh (fun id ->
                make_station ~id ~vertex:v ~is_source:false ~is_worker:true
                  ~dist:op.Operator.service_dist ~credit_per_item:credit
                  ~route:placeholder ~capacity:config.buffer_capacity))
      in
      let collector =
        fresh (fun id ->
            make_station ~id ~vertex:v ~is_source:false ~is_worker:false
              ~dist:(Dist.Deterministic config.collector_service_time)
              ~credit_per_item:1.0 ~route:placeholder
              ~capacity:config.buffer_capacity)
      in
      entry_of.(v) <- emitter.id;
      exit_of.(v) <- collector.id;
      workers_of.(v) <- List.map (fun s -> s.id) workers
    end
  done;
  let stations = Array.of_list (List.rev !stations) in
  (* Second pass: routes. *)
  for v = 0 to n - 1 do
    let op = Topology.operator topology v in
    let out = Topology.succs topology v in
    let external_route =
      match out with
      | [] -> To_none
      | edges ->
          let dests = Array.of_list (List.map (fun (w, _) -> entry_of.(w)) edges) in
          let probs = Array.of_list (List.map snd edges) in
          Probabilistic (Discrete.of_weights probs, dests)
    in
    if op.Operator.replicas = 1 then
      stations.(exit_of.(v)) <- { (stations.(exit_of.(v))) with route = external_route }
    else begin
      let workers = Array.of_list workers_of.(v) in
      let emitter_route =
        match op.Operator.kind with
        | Operator.Partitioned_stateful keys ->
            let groups =
              Ss_core.Key_partitioning.groups_for ~keys
                ~replicas:op.Operator.replicas
            in
            By_key (keys, groups, workers)
        | Operator.Stateless | Operator.Stateful -> Round_robin workers
      in
      stations.(entry_of.(v)) <-
        { (stations.(entry_of.(v))) with route = emitter_route };
      Array.iter
        (fun w ->
          stations.(w) <-
            { (stations.(w)) with route = Probabilistic (Discrete.uniform 1, [| exit_of.(v) |]) })
        workers;
      stations.(exit_of.(v)) <-
        { (stations.(exit_of.(v))) with route = external_route }
    end
  done;
  {
    stations;
    entry_of;
    exit_of;
    workers_of;
    events = Heap.create ~cmp:(fun (ta, sa, _) (tb, sb, _) ->
        match compare (ta : float) tb with 0 -> compare sa sb | c -> c);
    rng = Rng.create config.seed;
    track = config.track_latency;
    lat = Array.init n (fun _ -> Histogram.create ());
    now = 0.0;
    seq = 0;
    event_count = 0;
  }

(* Buffer occupancy changes go through here so the time-weighted occupancy
   integral stays exact. *)
let set_queued t station n =
  station.queue_area <-
    station.queue_area
    +. (float_of_int station.queued *. (t.now -. station.queue_changed_at));
  station.queue_changed_at <- t.now;
  station.queued <- n

let schedule t station duration =
  station.busy <- true;
  station.service_start <- t.now;
  station.service_end <- t.now +. duration;
  Heap.push t.events (station.service_end, t.seq, station.id);
  t.seq <- t.seq + 1

let sample_destination t station =
  match station.route with
  | To_none -> None
  | Probabilistic (dist, dests) -> Some dests.(Discrete.sample t.rng dist)
  | Round_robin dests ->
      let d = dests.(station.rr mod Array.length dests) in
      station.rr <- station.rr + 1;
      Some d
  | By_key (keys, groups, workers) ->
      let k = Discrete.sample t.rng keys in
      Some workers.(groups.(k))

(* Mutual recursion: starting a station frees a buffer slot, which wakes
   blocked senders, whose deliveries may start further stations. The graph
   is a finite DAG of stations, so the recursion is bounded. *)
(* Latency tracking: an item's birth is the simulated time its source
   service completed; it rides along through every buffer ([births] mirrors
   the occupancy counter) and pending list, and the age is sampled when a
   worker station takes the item into service — mirroring where the actor
   runtime's telemetry records it. All outputs of a service inherit the
   consumed item's birth (the credit counter makes items fungible, exactly
   like the runtime's selectivity stubs). *)
let rec try_start t station =
  if (not station.busy) && (not station.blocked) && station.pending = [] then
    if station.is_source then
      schedule t station (Dist.sample t.rng station.dist)
    else if station.queued > 0 then begin
      set_queued t station (station.queued - 1);
      if t.track then begin
        let birth = Queue.pop station.births in
        station.current_birth <- birth;
        if station.is_worker then
          Histogram.record t.lat.(station.vertex) (t.now -. birth)
      end;
      station.consumed <- station.consumed + 1;
      schedule t station (Dist.sample t.rng station.dist);
      wake_waiters t station
    end

and wake_waiters t station =
  while
    station.queued < station.capacity && not (Queue.is_empty station.waiters)
  do
    let sender = t.stations.(Queue.pop station.waiters) in
    (* The sender is blocked on the head of its pending list, which targets
       this station. *)
    (match sender.pending with
    | (dest, birth) :: rest ->
        assert (dest = station.id);
        set_queued t station (station.queued + 1);
        if t.track then Queue.push birth station.births;
        sender.pending <- rest;
        sender.blocked <- false;
        try_start t station;
        flush_pending t sender
    | [] -> assert false)
  done

and flush_pending t station =
  let rec deliver () =
    match station.pending with
    | [] -> try_start t station
    | (dest_id, birth) :: rest ->
        let dest = t.stations.(dest_id) in
        if dest.queued < dest.capacity then begin
          set_queued t dest (dest.queued + 1);
          if t.track then Queue.push birth dest.births;
          station.pending <- rest;
          try_start t dest;
          deliver ()
        end
        else begin
          Queue.push station.id dest.waiters;
          station.blocked <- true
        end
  in
  if not station.blocked then deliver ()

let on_completion t station =
  station.busy <- false;
  station.busy_time <-
    station.busy_time +. (station.service_end -. station.service_start);
  station.credit <- station.credit +. station.credit_per_item;
  let outputs = int_of_float station.credit in
  station.credit <- station.credit -. float_of_int outputs;
  let birth =
    if not t.track then 0.0
    else if station.is_source then t.now
    else station.current_birth
  in
  let rec emit k acc =
    if k = 0 then List.rev acc
    else begin
      station.produced <- station.produced + 1;
      match sample_destination t station with
      | None -> emit (k - 1) acc
      | Some dest -> emit (k - 1) ((dest, birth) :: acc)
    end
  in
  station.pending <- station.pending @ emit outputs [];
  flush_pending t station

let mark t =
  Array.iter
    (fun s ->
      (* Attribute the in-flight service proportionally to the window. *)
      let in_flight = if s.busy then t.now -. s.service_start else 0.0 in
      s.consumed_mark <- s.consumed;
      s.produced_mark <- s.produced;
      s.busy_mark <- s.busy_time +. in_flight;
      (* Flush the occupancy integral up to the mark. *)
      set_queued t s s.queued;
      s.queue_area_mark <- s.queue_area)
    t.stations;
  (* Latency histograms measure the post-warmup window only. Items born
     before the mark but served after it still count — their age is real. *)
  if t.track then Array.iter Histogram.reset t.lat

let run_until t limit =
  let continue = ref true in
  while !continue do
    match Heap.peek t.events with
    | Some (time, _, _) when time <= limit ->
        let time, _, sid = Heap.pop_exn t.events in
        t.now <- time;
        t.event_count <- t.event_count + 1;
        on_completion t t.stations.(sid)
    | Some _ | None -> continue := false
  done;
  t.now <- limit

let run ?(config = default_config) topology =
  let t = build config topology in
  Array.iter (fun s -> try_start t s) t.stations;
  run_until t config.warmup;
  mark t;
  run_until t (config.warmup +. config.measure);
  let window = config.measure in
  let per_station_busy s =
    let in_flight = if s.busy then t.now -. s.service_start else 0.0 in
    (s.busy_time +. in_flight -. s.busy_mark) /. window
  in
  (* Flush occupancy integrals up to the end of the run. *)
  Array.iter (fun s -> set_queued t s s.queued) t.stations;
  let stats =
    Array.init (Topology.size topology) (fun v ->
        let entry = t.stations.(t.entry_of.(v)) in
        let exit = t.stations.(t.exit_of.(v)) in
        let busiest =
          List.fold_left
            (fun acc w -> Float.max acc (per_station_busy t.stations.(w)))
            0.0 t.workers_of.(v)
        in
        let arrival_rate =
          float_of_int (entry.consumed - entry.consumed_mark) /. window
        in
        let mean_queue_length =
          (entry.queue_area -. entry.queue_area_mark) /. window
        in
        {
          arrival_rate;
          departure_rate =
            float_of_int (exit.produced - exit.produced_mark) /. window;
          busy_fraction = busiest;
          mean_queue_length;
          mean_waiting_time =
            (if arrival_rate > 0.0 then mean_queue_length /. arrival_rate
             else 0.0);
        })
  in
  let src = Topology.source topology in
  {
    stats;
    throughput = stats.(src).departure_rate;
    simulated_time = config.warmup +. config.measure;
    events = t.event_count;
    latency = (if config.track_latency then Some t.lat else None);
  }

(* ------------------------------------------------------------------ *)
(* Finite-stream count replay *)

(* Mirrors the executor's seeding conventions exactly; keep in sync with
   lib/runtime/executor.ml. The compiled fused tier (Fused_compile, and
   codegen's closed loops) preserves the interpreted walk's draw order —
   one sample per produced tuple at members with successors, none at
   members without — so this replay matches both execution modes. *)
let replay ?(fused = []) ?(seed = 42) ~tuples topology =
  let n = Topology.size topology in
  let src = Topology.source topology in
  let group_of = Array.make n (-1) in
  List.iteri
    (fun gi vs ->
      List.iter
        (fun v ->
          if group_of.(v) <> -1 then
            invalid_arg "Engine.replay: overlapping fused groups";
          group_of.(v) <- gi)
        vs)
    fused;
  (* Per-vertex routing rng, matching the executor: the source draws from
     [seed]; a standard vertex from [seed + 7919*(v+1)]; a replicated
     vertex's collector from [seed + 104729*(v+1)]; every member of fused
     group [gi] shares one rng seeded [seed + 15485863*(gi+1)] and draws in
     the meta-operator's depth-first processing order (Algorithm 4), which
     this walk reproduces. A {e replicated} fused group's worker [r] draws
     from [seed + 15485863*(gi+1) + 7919*r], but the executor only
     replicates linear groups (every member has at most one successor),
     whose draws are count-neutral — so this single-rng walk still
     reproduces the per-vertex counts exactly. *)
  let group_rng =
    Array.of_list
      (List.mapi (fun gi _ -> Rng.create (seed + (15485863 * (gi + 1)))) fused)
  in
  let rng_of v =
    if v = src then Rng.create seed
    else if group_of.(v) >= 0 then group_rng.(group_of.(v))
    else if (Topology.operator topology v).Operator.replicas = 1 then
      Rng.create (seed + (7919 * (v + 1)))
    else Rng.create (seed + (104729 * (v + 1)))
  in
  let choosers =
    Array.init n (fun v ->
        match Topology.succs topology v with
        | [] -> fun () -> None
        | edges ->
            let dests = Array.of_list (List.map fst edges) in
            let dist = Discrete.of_weights (Array.of_list (List.map snd edges)) in
            let rng = rng_of v in
            fun () -> Some dests.(Discrete.sample rng dist))
  in
  let consumed = Array.make n 0 in
  let produced = Array.make n 0 in
  (* Identity behaviors: one result per input, so a tuple's life is a walk
     from the source to a sink. Routing draws depend only on per-vertex
     ordinals, never on the interleaving of actors, which is what makes
     the runtime's counts reproducible here (and equal across worker
     counts and placements). *)
  let rec walk v =
    if v <> src then begin
      consumed.(v) <- consumed.(v) + 1;
      produced.(v) <- produced.(v) + 1
    end;
    match choosers.(v) () with Some dest -> walk dest | None -> ()
  in
  for _ = 1 to tuples do
    produced.(src) <- produced.(src) + 1;
    match choosers.(src) () with Some dest -> walk dest | None -> ()
  done;
  (consumed, produced)
