(* The four benchmark workloads. Each one is driven only through public
   library APIs: the topology and the plan come from ss_core/ss_workload,
   deployment from [Executor.run] (never with [?scheduler], [?channels],
   [?batch] or [?fusion]), the log from ss_log, event time from ss_event.

   Every workload has the same three phases:
   - a closed-loop {e round} of a fixed input, repeated; its wall and CPU
     time give throughput and CPU per tuple;
   - two open-loop runs paced by [Executor.source_throttled] at a fixed
     loaded and a fixed low rate (README.md says how each was chosen);
     latency runs from each tuple's due time (t0 + i / rate) to the sink
     behavior, so a stall also delays the tuples queued behind it;
   - set-up: plan and deploy on an empty stream.
   Every run is checked against an oracle; [errors] counts tuples missing
   or extra against it, or every tuple of a run that did not finish. *)

open Ss_prelude
open Ss_topology
open Ss_core
module Ex = Ss_runtime.Executor
module B = Ss_operators.Behavior
module T = Ss_operators.Tuple
module U = Bench_util

let instrument = { Ex.default_instrument with Ex.sample_occupancy = false }

(* The paper's testbed seed: the topology is fixed, [--seed] varies the
   stream and the executor's routing draws. *)
let testbed_seed = 20180901

type round = {
  tuples : int;
  wall : float;
  cpu : float;
  errors : int;
  metrics : Ex.metrics;
}

type open_run = {
  attempted : int;
  failed : int;
  p50_ms : float array;  (** Per window of due time, after warm-up. *)
  p99_ms : float array;
  samples : int;
  lag_ms : float array;  (** Generator lateness per tuple, after warm-up. *)
}

type t = {
  name : string;
  topology : Topology.t;
  fused : int list list;
  round_tuples : int;
  rate_hi : float;
  rate_lo : float;
  setup : unit -> unit;  (** Plan, deploy and drain an empty stream. *)
  deploy : unit -> unit;  (** Deploy and drain an empty stream. *)
  round : ?tracer:Trace.t -> unit -> round;
  open_loop : rate:float -> duration:float -> warmup:float -> bucket:float -> open_run;
  sequential : n:int -> float;
      (** Tuples per second of the same job folded single-threaded over the
          behaviors, with no runtime. *)
  source : unit -> unit -> T.t option;  (** A fresh generator of one round. *)
  source_actors : int;
      (** Actors emitting for the source vertex: one, or one reader per log
          partition. *)
  log_layers : (string -> float) -> (string * float) list;
      (** Log-side layer costs per source tuple (ingest only); the source
          vertex does this work besides generating the tuple. *)
  id_of : T.t -> int;
  cleanup : unit -> unit;
}

let finished (m : Ex.metrics) =
  match m.Ex.outcome with Ss_runtime.Supervision.Finished -> true | _ -> false

let timed f =
  Gc.full_major ();
  let w0 = U.now () and c0 = U.cpu () in
  let r = f () in
  (r, U.now () -. w0, U.cpu () -. c0)

let abs_diff a b = Stdlib.abs (a - b)

(* Inputs of an open-loop run are sampled one in [sample_stride rate]: about
   50k samples per second of due time, plenty for a p99 per window, while
   the sample arrays stay small at the loaded rates. *)
let sample_stride rate = Stdlib.max 1 (int_of_float (rate /. 50_000.0))

(* One open-loop run: [exec ~source ~hook] deploys with [source] and calls
   [hook] on every tuple entering a sink behavior. [measure t] maps such a
   tuple to its sample slot and to the index of the input whose due time it
   is measured from. [on_emit k t] sees each tuple as it is handed over.
   Generator lateness is recorded for every [stride]-th input. *)
let open_loop_run ~n ~rate ~stride ~slots ~warmup ~bucket ~make ~measure
    ?(on_emit = fun _ _ -> ()) ~exec ~check () =
  Gc.full_major ();
  let t0 = ref 0.0 and emitted = ref 0 in
  let lag = Array.make ((n + stride - 1) / stride) Float.nan in
  let lat = Array.make slots Float.nan and due_at = Array.make slots Float.nan in
  let due k = !t0 +. (float_of_int k /. rate) in
  let throttled = Ex.source_throttled ~rate (Ex.source_of_fn ~count:n make) in
  let source () =
    match throttled () with
    | None -> None
    | Some t as r ->
        let now = U.now () in
        let k = !emitted in
        if k = 0 then t0 := now;
        if k mod stride = 0 then lag.(k / stride) <- now -. due k;
        on_emit k t;
        emitted := k + 1;
        r
  in
  let hook t =
    match measure t with
    | Some (slot, k) when k >= 0 ->
        let d = due k in
        lat.(slot) <- U.now () -. d;
        due_at.(slot) <- d
    | _ -> ()
  in
  let m = exec ~source ~hook in
  let failed = if finished m then check m else n in
  let start = !t0 +. warmup in
  let windows = Hashtbl.create 16 in
  let samples = ref 0 in
  Array.iteri
    (fun slot l ->
      if Float.is_finite l && due_at.(slot) >= start then begin
        incr samples;
        let w = int_of_float ((due_at.(slot) -. start) /. bucket) in
        Hashtbl.replace windows w
          (l :: Option.value ~default:[] (Hashtbl.find_opt windows w))
      end)
    lat;
  (* Only whole windows count, and windows too thin for a p99 are dropped;
     a run too short for any whole window (the smoke run) reports all its
     samples as one. *)
  let whole = int_of_float ((((float_of_int n /. rate) -. warmup) /. bucket) +. 1e-6) in
  let per_window =
    match
      Hashtbl.fold
        (fun w l acc -> if w < whole then U.sorted (Array.of_list l) :: acc else acc)
        windows []
      |> List.filter (fun s -> Array.length s >= 100)
    with
    | [] when !samples > 0 ->
        [ U.sorted (Array.of_list (Hashtbl.fold (fun _ l acc -> l @ acc) windows [])) ]
    | full -> full
  in
  let pct p = Array.of_list (List.map (fun s -> 1e3 *. U.percentile s p) per_window) in
  let lags = ref [] in
  Array.iteri
    (fun j l -> if Float.is_finite l && due (j * stride) >= start then lags := (1e3 *. l) :: !lags)
    lag;
  {
    attempted = n;
    failed;
    p50_ms = pct 0.5;
    p99_ms = pct 0.99;
    samples = !samples;
    lag_ms = Array.of_list !lags;
  }

(* Single-threaded fold of a source-driven job: each tuple walks the
   topology through fresh behavior instances, one routing draw per result
   at vertices with several successors. Returns per-vertex consumed counts,
   the sink checksum and the elapsed wall seconds. *)
let fold ~topology ~registry ~n ~make =
  let size = Topology.size topology and src = Topology.source topology in
  let fns = Array.init size (fun v -> if v = src then fun t -> [ t ] else B.instantiate (registry v)) in
  let routes =
    Array.init size (fun v ->
        match Topology.succs topology v with
        | [] -> `Sink
        | [ (s, _) ] -> `One s
        | succs ->
            let dests = Array.of_list (List.map fst succs) in
            `Draw (dests, Discrete.of_weights (Array.of_list (List.map snd succs))))
  in
  let rng = Rng.create 1 in
  let consumed = Array.make size 0 and checksum = ref 0 in
  let rec walk v t =
    consumed.(v) <- consumed.(v) + 1;
    if Topology.is_sink topology v then
      checksum := !checksum + int_of_float (T.value t 0);
    List.iter (fun o -> forward v o) (fns.(v) t)
  and forward v o =
    match routes.(v) with
    | `Sink -> ()
    | `One s -> walk s o
    | `Draw (dests, d) -> walk dests.(Discrete.sample rng d) o
  in
  let t0 = U.now () in
  for i = 0 to n - 1 do
    forward src (make i)
  done;
  (consumed, !checksum, U.now () -. t0)

type expectation = { consumed : int array; checksum : int }

(* Workloads fed by an in-process source: tuple [i] carries [i] in its
   timestamp, which identifies it (and any result keeping its timestamp)
   end to end. [registry ~sink v] must call [sink] on every tuple entering
   a sink vertex; the checksum sums value 0 of those tuples. *)
let source_workload ~name ~topology ~fused ~keys ~seed ~round_tuples ~rate_hi ~rate_lo ~plan
    ~registry ~expect =
  let src = Topology.source topology in
  let make i = T.make ~ts:(float_of_int i) ~key:(Hashtbl.hash (seed, i) land keys) [| 1.0 |] in
  let cache = Hashtbl.create 4 in
  let expected n =
    match Hashtbl.find_opt cache n with
    | Some e -> e
    | None ->
        let e = expect ~make n in
        Hashtbl.add cache n e;
        e
  in
  let checksum = Atomic.make 0 in
  let sum_sink t = ignore (Atomic.fetch_and_add checksum (int_of_float (T.value t 0))) in
  let check n (m : Ex.metrics) =
    let e = expected n in
    let d = ref (abs_diff (Atomic.get checksum) e.checksum) in
    Array.iteri (fun v c -> d := !d + abs_diff c e.consumed.(v)) m.Ex.consumed;
    !d
  in
  let exec ?tracer ~sink ~source () =
    let reg v =
      let b = registry ~sink v in
      match tracer with None -> b | Some tr -> Trace.behavior tr v b
    in
    Ex.run ~fused ~seed ~instrument ~source ~registry:reg topology
  in
  let deploy () = ignore (exec ~sink:ignore ~source:(fun () -> None) ()) in
  let round ?tracer () =
    let n = round_tuples in
    ignore (expected n);
    Atomic.set checksum 0;
    let source = Ex.source_of_fn ~count:n make in
    let source = match tracer with None -> source | Some tr -> Trace.source tr src source in
    let m, wall, cpu = timed (fun () -> exec ?tracer ~sink:sum_sink ~source ()) in
    { tuples = n; wall; cpu; errors = (if finished m then check n m else n); metrics = m }
  in
  let open_loop ~rate ~duration ~warmup ~bucket =
    let n = int_of_float (rate *. duration) in
    let stride = sample_stride rate in
    ignore (expected n);
    Atomic.set checksum 0;
    open_loop_run ~n ~rate ~stride ~slots:((n + stride - 1) / stride) ~warmup ~bucket ~make
      ~measure:(fun t ->
        let i = int_of_float t.T.ts in
        if i mod stride = 0 then Some (i / stride, i) else None)
      ~exec:(fun ~source ~hook ->
        exec ~sink:(fun t -> sum_sink t; hook t) ~source ())
      ~check:(check n) ()
  in
  {
    name;
    topology;
    fused;
    round_tuples;
    rate_hi;
    rate_lo;
    setup = (fun () -> plan (); deploy ());
    deploy;
    round;
    open_loop;
    sequential =
      (fun ~n ->
        let _, _, dt = fold ~topology ~registry:(registry ~sink:ignore) ~n ~make in
        float_of_int n /. dt);
    source = (fun () -> Ex.source_of_fn ~count:round_tuples make);
    source_actors = 1;
    log_layers = (fun _ -> []);
    id_of = (fun t -> int_of_float t.T.ts);
    cleanup = ignore;
  }

(* Oracle for identity-like behaviors: [Engine.replay] predicts every
   vertex's count, and each tuple (value 1) reaches exactly one sink. *)
let replay_oracle ~topology ~fused ~seed ~make:_ n =
  let consumed, _ = Ss_sim.Engine.replay ~fused ~seed ~tuples:n topology in
  {
    consumed;
    checksum = List.fold_left (fun acc v -> acc + consumed.(v)) 0 (Topology.sinks topology);
  }

(* A behavior that calls [f] on every tuple before [b] sees it. *)
let on_entry f v b =
  Trace.wrap_behavior
    { Trace.call = (fun _ fn t -> f t; fn t) }
    v b

let sink_wrap ~topology ~sink v b = if Topology.is_sink topology v then on_entry sink v b else b

(* --- testbed50_fission ------------------------------------------------ *)

let testbed_base () =
  Ss_workload.Random_topology.generate_with_sizes (Rng.create testbed_seed) ~vertices:50
    ~edges:55

(* Algorithm 1 then Algorithm 2: the paper's optimize-then-deploy flow. *)
let testbed_plan base =
  ignore (Steady_state.analyze base);
  (Fission.optimize base).Fission.topology

let testbed ~seed ~scale =
  let base = testbed_base () in
  let topology = testbed_plan base in
  let registry ~sink v = sink_wrap ~topology ~sink v Ss_operators.Stateless_ops.identity in
  source_workload ~name:"testbed50_fission" ~topology ~fused:[] ~keys:0xFFFF ~seed
    ~round_tuples:(scale 400_000) ~rate_hi:100_000.0 ~rate_lo:20_000.0
    ~plan:(fun () -> ignore (testbed_plan base))
    ~registry
    ~expect:(replay_oracle ~topology ~fused:[] ~seed)

(* --- fused_chain ------------------------------------------------------ *)

let g1_size = 12
let g2_size = 16
let chain_keys = 64
let count_at = g1_size + 6
let window_at = g1_size + 11

let fused_groups =
  [ List.init g1_size (fun i -> i + 1); List.init g2_size (fun i -> g1_size + 1 + i) ]

(* src -> G1 (12 identities, front replicated x2) -> G2 (16 members: a keyed
   counter and a keyed 32/8 window sum among identities). G1's front
   declares key-partitioned state, so its replicas are fed by key: per-key
   order survives the fission, which keeps every keyed result, and hence
   the sink checksum, independent of the interleaving. *)
let fused_chain_topology () =
  let keys = Discrete.uniform chain_keys in
  let n = 1 + g1_size + g2_size in
  let ops =
    Array.init n (fun v ->
        if v = 0 then Operator.source ~rate:1e6 "src"
        else if v = 1 then
          Operator.make ~kind:(Operator.Partitioned_stateful keys) ~replicas:2 ~service_time:1e-8
            "front"
        else if v = count_at then
          Operator.make ~kind:(Operator.Partitioned_stateful keys) ~service_time:1e-8 "count_by_key"
        else if v = window_at then
          Operator.make ~kind:(Operator.Partitioned_stateful keys) ~input_selectivity:8.0
            ~service_time:1e-8 "window_sum"
        else Operator.make ~service_time:1e-8 (Printf.sprintf "identity#%d" v))
  in
  Topology.create_exn ops (List.init (n - 1) (fun i -> (i, i + 1, 1.0)))

let fused_chain_registry v =
  if v = count_at then Ss_operators.Join_ops.count_by_key ()
  else if v = window_at then
    Ss_operators.Window_ops.sum
      ~spec:{ Ss_operators.Window_ops.length = 32; slide = 8; index = 0; per_key = true }
      ()
  else Ss_operators.Stateless_ops.identity

let fused_chain ~seed ~scale =
  let topology = fused_chain_topology () in
  let registry ~sink v = sink_wrap ~topology ~sink v (fused_chain_registry v) in
  let stage () =
    List.iter
      (fun members ->
        match Ss_runtime.Fused_compile.plan topology ~members ~registry:fused_chain_registry with
        | Ok _ -> ()
        | Error e -> failwith ("fused_chain: group does not compile: " ^ e))
      fused_groups
  in
  source_workload ~name:"fused_chain" ~topology ~fused:fused_groups ~keys:(chain_keys - 1) ~seed
    ~round_tuples:(scale 400_000) ~rate_hi:100_000.0 ~rate_lo:20_000.0
    ~plan:(fun () ->
      ignore (Steady_state.analyze topology);
      stage ())
    ~registry
    ~expect:(fun ~make n ->
      let consumed, checksum, _ = fold ~topology ~registry:(registry ~sink:ignore) ~n ~make in
      { consumed; checksum })

(* --- fig11_open ------------------------------------------------------- *)

(* Fig. 11 with Table 1's service times scaled by 0.1 and a memory-speed
   source; behaviors are the cost-faithful busy-wait stubs Plan.resolve
   builds for operators outside the catalog. *)
let fig11_topology () =
  let ms = [ 1.2; 0.7; 2.0; 1.5; 0.2 ] in
  let ops =
    Array.of_list
      (Operator.source ~rate:1e9 "op1"
      :: List.mapi
           (fun i t -> Operator.make ~service_time:(t *. 0.1 /. 1e3) (Printf.sprintf "op%d" (i + 2)))
           ms)
  in
  Topology.create_exn ops
    [ (0, 1, 0.7); (0, 2, 0.3); (2, 3, 0.5); (2, 4, 0.5); (4, 3, 0.35); (4, 5, 0.65); (3, 5, 1.0); (1, 5, 1.0) ]

let fig11 ~seed ~scale =
  let topology = fig11_topology () in
  let registry ~sink v = sink_wrap ~topology ~sink v (Ss_codegen.Plan.registry topology v) in
  source_workload ~name:"fig11_open" ~topology ~fused:[] ~keys:0xFFFF ~seed
    ~round_tuples:(scale 2_500) ~rate_hi:6000.0 ~rate_lo:2000.0
    ~plan:(fun () -> ignore (Steady_state.analyze topology))
    ~registry
    ~expect:(replay_oracle ~topology ~fused:[] ~seed)

(* --- ingest_event ----------------------------------------------------- *)

let event_rate = 1000.0
let ingest_keys = 16
let record_tag = 2

(* Tumbling windows of 125 ms of event time (125 records): every window
   end a watermark releases is one independent latency sample, so short
   windows give the open-loop runs enough of them for a p99. The length is
   a binary fraction on purpose: with 0.1 s, [Event_window] puts a record
   whose timestamp falls on a window boundary into two windows, because
   ts /. 0.1 rounds just below the integer. *)
let window_s = 0.125
let window_behavior () =
  Ss_event.Event_window.behavior ~agg:Ss_event.Event_window.Count ~length:window_s
    ~slide:window_s ()

(* The bursty reorder delays records by at most 64 positions, 64 ms of
   event time: a 100 ms bound covers it, so no record is late. *)
let watermark = Ss_event.Watermark.Bounded 0.1

(* Index of the window ending at [ts]. *)
let window_end ts = int_of_float (Float.round (ts /. window_s))

(* Records in emission order carry ts = i / 1000 (event seconds), a key and
   tag 2; arrival order is a bursty reorder of each 1024-record block
   (about 12.5% out of order), generated lazily. *)
let records ~seed ~n =
  let rng = Rng.create seed in
  let disorder = Ss_workload.Stream_gen.Bursty { burst = 32; period = 256 } in
  let block = ref [||] and pos = ref 0 and next = ref 0 in
  fun () ->
    if !pos >= Array.length !block && !next < n then begin
      let len = Stdlib.min 1024 (n - !next) in
      let first = !next in
      block :=
        Array.of_list
          (Ss_workload.Stream_gen.reorder rng disorder
             (List.init len (fun j ->
                  let i = first + j in
                  T.make ~ts:(float_of_int i /. event_rate)
                    ~key:(Hashtbl.hash (seed, i) land (ingest_keys - 1))
                    ~tag:record_tag [| 1.0 |])));
      next := !next + len;
      pos := 0
    end;
    if !pos >= Array.length !block then None
    else begin
      let t = !block.(!pos) in
      incr pos;
      Some t
    end

(* The log lives in the benchmark's checkout, so on whatever disk that is,
   and an fsync there costs what the disk decides (from under a millisecond
   to over 70 ms on the same disk within a minute): with the default
   per-512-record offset commits a replay ran 10-20x longer than its CPU
   time, and no two rounds agreed. So no fsync falls inside a timed round:
   appends never fsync, a segment never rolls (a roll syncs the sealed
   segment), and a replay commits offsets only when a reader runs dry and
   at the end of the run ([commit_every] exceeds what a round appends).
   [log.commit_us] prices one synced commit separately. *)
let log_config =
  {
    Ss_log.Log.default_config with
    Ss_log.Log.fsync = Ss_log.Log.Never;
    segment_bytes = 1 lsl 30;
  }

let commit_every = 1 lsl 30

(* Records go to the log as a producer batches them: per partition, one
   [append_batch] (a single write) per [append_batch_size] records. One
   write per record spent most of an append in the system call, whose cost
   the host moved by 2x from one round to the next. *)
let append_batch_size = 256

let append_all log next =
  let module L = Ss_log.Log in
  let parts = L.partitions log in
  let pending = Array.make parts [] and counts = Array.make parts 0 in
  let flush p =
    if counts.(p) > 0 then begin
      ignore (L.append_batch log ~partition:p (List.rev pending.(p)));
      pending.(p) <- [];
      counts.(p) <- 0
    end
  in
  let rec go () =
    match next () with
    | None -> for p = 0 to parts - 1 do flush p done
    | Some t ->
        let p = L.partition_of_key log t.T.key in
        pending.(p) <- Ss_log.Tuple_codec.encode t :: pending.(p);
        counts.(p) <- counts.(p) + 1;
        if counts.(p) = append_batch_size then flush p;
        go ()
  in
  go ()

let ingest_topology () =
  Topology.create_exn
    [|
      Operator.source ~rate:event_rate "src";
      Ss_event.Event_model.window_operator ~name:"ewin" ~keys:ingest_keys ~rate:event_rate
        ~slide:window_s ~service_time:5e-6 ();
      Operator.make ~service_time:1e-6 "snk";
    |]
    [ (0, 1, 1.0); (1, 2, 1.0) ]

(* Records are identified by their emission index; window results (tag 0,
   ts = window end) by end and key, in a separate id range. *)
let ingest_id (t : T.t) =
  if t.T.tag = record_tag then int_of_float (Float.round (t.T.ts *. event_rate))
  else 1_000_000_000 + (window_end t.T.ts * ingest_keys) + t.T.key

let ingest ~seed ~scale ~work_dir =
  let topology = ingest_topology () in
  let n = scale 100_000 in
  let event_time = Ss_event.Event_time.config watermark in
  let sunk = Atomic.make 0 in
  (* The window counts the records it consumes and notes when the last one
     arrives, in wall and process CPU time: a replay has drained once every
     record is in a window. *)
  let consumed = Atomic.make 0 and drained = ref Float.nan and drained_cpu = ref Float.nan in
  let registry ~sink v =
    if v = 1 then
      on_entry
        (fun _ ->
          if Atomic.fetch_and_add consumed 1 = n - 1 then begin
            drained := U.now ();
            drained_cpu := U.cpu ()
          end)
        v (window_behavior ())
    else
      on_entry sink v
        (B.make ~name:"count_sink" (fun () t ->
             ignore (Atomic.fetch_and_add sunk (int_of_float (T.value t 0)));
             []))
  in
  let registry_for ?tracer ~sink v =
    let b = registry ~sink v in
    match tracer with None -> b | Some tr -> Trace.behavior tr v b
  in
  let partitions = log_config.Ss_log.Log.partitions in
  let dir = Filename.concat work_dir "log" and setup_dir = Filename.concat work_dir "setup-log" in
  let group = "bench" in
  let append_round log = append_all log (records ~seed ~n) in
  (* Set-up opens (rescans) a log of one round's records, written once
     here, and deploys the pipeline on an empty stream. It does not replay
     through [?ingest]: every ingest run ends with a synced offset commit
     per partition. *)
  U.rm_rf setup_dir;
  (let log = Ss_log.Log.create ~config:log_config setup_dir in
   append_round log;
   Ss_log.Log.close log);
  let deploy () =
    Ss_log.Log.close (Ss_log.Log.create setup_dir);
    ignore
      (Ex.run ~event_time ~seed ~instrument ~source:(fun () -> None)
         ~registry:(registry_for ~sink:ignore) topology)
  in
  (* Every round appends to one log that lives as long as the workload, as
     a producer keeps feeding a topic: deleting a synced log between rounds
     waited on the file system's journal for up to a second per round.
     A round generates and appends [n] records, then replays them from the
     group's committed offset, which the previous round left at the old
     end, and is timed, in wall and CPU time, from the first append until
     the window has consumed every record. The readers' offset commits,
     when they run dry, overlap that only at the very end; the run's final
     commits come after it. The log is never closed: closing syncs every
     append of the workload, and [cleanup] deletes it instead. *)
  U.rm_rf dir;
  let log = Ss_log.Log.create ~config:log_config dir in
  let round ?tracer () =
    Atomic.set sunk 0;
    Atomic.set consumed 0;
    drained := Float.nan;
    drained_cpu := Float.nan;
    Gc.full_major ();
    let started = U.now () and c0 = U.cpu () in
    append_round log;
    let m =
      Ex.run ~ingest:(Ex.ingest ~group ~commit_every log) ~event_time ~seed ~instrument
        ~source:(fun () -> None) ~registry:(registry_for ?tracer ~sink:ignore) topology
    in
    let until now at = if Float.is_nan at then now else at in
    let cpu = until (U.cpu ()) !drained_cpu -. c0 in
    let wall = until (U.now ()) !drained -. started in
    let errors =
      if not (finished m) then n
      else begin
        let d = ref (abs_diff (Atomic.get sunk) n) in
        for p = 0 to partitions - 1 do
          d :=
            !d
            + abs_diff (Ss_log.Log.end_offset log ~partition:p)
                (Ss_log.Log.committed log ~group ~partition:p)
        done;
        !d + Array.fold_left ( + ) 0 m.Ex.late
      end
    in
    { tuples = n; wall; cpu; errors; metrics = m }
  in
  (* Open loop: a replay has no due times, so the paced runs feed the same
     event-time pipeline from an in-process source. A window's latency runs
     from the due time of the record whose watermark released it. *)
  let open_loop ~rate ~duration ~warmup ~bucket =
    let n = int_of_float (rate *. duration) in
    let ends = window_end (float_of_int n /. event_rate) + 3 in
    let trigger = Array.make ends (-1) in
    let gen = Ss_event.Watermark.create watermark in
    let released = ref 0 in
    let next = records ~seed ~n in
    let make _ = match next () with Some t -> t | None -> assert false in
    Atomic.set sunk 0;
    open_loop_run ~n ~rate ~stride:(sample_stride rate) ~slots:(ends * ingest_keys) ~warmup
      ~bucket ~make
      ~on_emit:(fun k t ->
        (* The executor runs the same generator over the same order, so
           record [k] carries the watermark that closes these windows. *)
        match Ss_event.Watermark.observe gen t.T.ts with
        | None -> ()
        | Some w ->
            let upto = Stdlib.min (ends - 1) (int_of_float (Float.floor ((w /. window_s) +. 1e-9))) in
            for e = !released + 1 to upto do
              trigger.(e) <- k
            done;
            released := Stdlib.max !released upto)
      ~measure:(fun t ->
        let e = window_end t.T.ts in
        if e < ends then Some ((e * ingest_keys) + t.T.key, trigger.(e)) else None)
      ~exec:(fun ~source ~hook ->
        Ex.run ~event_time ~seed ~instrument ~source
          ~registry:(registry_for ~sink:hook) topology)
      ~check:(fun m -> abs_diff (Atomic.get sunk) n + Array.fold_left ( + ) 0 m.Ex.late)
      ()
  in
  (* The job without a runtime: encode and decode each record (the log
     payload round trip), feed one window instance, advance one watermark
     generator over the arrival order, and sum the fired counts. *)
  let sequential ~n =
    let gen = records ~seed ~n in
    let window =
      match (window_behavior ()).B.evented with
      | Some mk -> mk ()
      | None -> assert false
    in
    let wm = Ss_event.Watermark.create watermark in
    let total = ref 0 in
    let sum = List.iter (fun o -> total := !total + int_of_float (T.value o 0)) in
    let t0 = U.now () in
    let rec go () =
      match gen () with
      | None -> sum (window.B.on_watermark infinity)
      | Some t ->
          let t = Ss_log.Tuple_codec.decode (Ss_log.Tuple_codec.encode t) in
          sum (window.B.efn t);
          (match Ss_event.Watermark.observe wm t.T.ts with
          | Some w -> sum (window.B.on_watermark w)
          | None -> ());
          go ()
    in
    go ();
    let dt = U.now () -. t0 in
    if !total <> n then failwith "ingest_event: sequential fold lost records";
    float_of_int n /. dt
  in
  {
    name = "ingest_event";
    topology;
    fused = [];
    round_tuples = n;
    rate_hi = 100_000.0;
    rate_lo = 20_000.0;
    setup = (fun () -> ignore (Steady_state.analyze topology); deploy ());
    deploy;
    round;
    open_loop;
    sequential;
    source = (fun () -> records ~seed ~n);
    source_actors = partitions;
    (* Per record: encode and append ([log.append_us_per_record] includes
       the encoding), read back and decode. The offset commits are left
       out: a synced commit is mostly a wait for the disk, not CPU, and
       lasts whatever the disk decides ([log.commit_us]). *)
    log_layers =
      (fun layer ->
        [
          ("log.append", layer "log.append_us_per_record" *. 1e3);
          ("log.read", (layer "log.read_us_per_record" *. 1e3) +. layer "tuple_codec.decode_ns");
        ]);
    id_of = ingest_id;
    cleanup = (fun () -> U.rm_rf dir; U.rm_rf setup_dir);
  }

let names = [ "testbed50_fission"; "fused_chain"; "ingest_event"; "fig11_open" ]

let make name ~seed ~scale ~work_dir =
  match name with
  | "testbed50_fission" -> testbed ~seed ~scale
  | "fused_chain" -> fused_chain ~seed ~scale
  | "ingest_event" -> ingest ~seed ~scale ~work_dir
  | "fig11_open" -> fig11 ~seed ~scale
  | _ -> invalid_arg ("unknown workload " ^ name)
