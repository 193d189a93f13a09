(* Entry point of the repository benchmark (see README.md).

     main.exe --workload W --seed S --seconds T --trace 0|1 [--out DIR]
     main.exe --smoke --spec BENCHMARK.json

   The last line of standard output is one JSON object
   {correct, attempted, failed, metrics}: the end-to-end metrics with
   --trace 0, the per-layer metrics of the traced run with --trace 1. The
   line before it, prefixed "history: ", carries each metric's median,
   quartiles and sample count for benchmark/history.jsonl. The exit code is
   1 when any output disagrees with its oracle. *)

open Ss_topology
open Ss_core
module U = Bench_util
module W = Workloads
module Ex = Ss_runtime.Executor

let end_to_end =
  [
    ("throughput_tps", "tuples/s");
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms");
    ("latency_low_p50_ms", "ms");
    ("latency_low_p99_ms", "ms");
    ("setup_s", "s");
    ("peak_rss_mb", "MiB");
  ]

let per_layer =
  [
    ("mailbox.spsc_put_take_ns", "ns");
    ("mailbox.mpsc_put_take_ns", "ns");
    ("mailbox.take_batch_ns_per_item", "ns");
    ("mailbox.handoff_ns", "ns");
    ("sched.suspend_wake_ns", "ns");
    ("sched.yield_ns", "ns");
    ("sched.spawn_run_ns", "ns");
    ("executor.deploy_ms", "ms");
    ("prelude.discrete_sample_ns", "ns");
    ("prelude.rng_float_ns", "ns");
    ("fused_compile.step_ns_per_member", "ns");
    ("fused_compile.plan_us", "us");
    ("operators.count_by_key_ns", "ns");
    ("operators.window_sum_ns", "ns");
    ("tuple_codec.encode_ns", "ns");
    ("tuple_codec.decode_ns", "ns");
    ("log.append_us_per_record", "us");
    ("log.read_us_per_record", "us");
    ("log.commit_us", "us");
    ("log.open_ms", "ms");
    ("eventtime.window_efn_ns", "ns");
    ("eventtime.on_watermark_us", "us");
    ("steady_state.analyze_ms", "ms");
    ("fission.optimize_ms", "ms");
    ("executor.hops_per_tuple", "count");
    ("executor.blocked_s", "s");
    ("trace.behavior_self_us_per_tuple", "us");
    ("trace.hop_gap_p50_us", "us");
    ("trace.hop_gap_p99_us", "us");
    ("loadgen.source_ns", "ns");
    ("loadgen.lag_p99_ms", "ms");
    ("host.stall_p99_ms", "ms");
    ("baseline.sequential_tps", "tuples/s");
    ("steady_state.predicted_tps", "tuples/s");
    ("ledger.model_gap", "ratio");
    ("ledger.cpu_ns_per_tuple", "ns");
    ("ledger.residual_ns_per_tuple", "ns");
    ("trace.overhead_pct", "%");
  ]

(* How a run is sized: the full benchmark, or the smoke run of
   `dune runtest` (tiny inputs, no timing claims). *)
type sizing = {
  scale : int -> int;
  setup_reps : int;  (** Timed repetitions of the traced run's planners and deploys. *)
  log_reps : int;
      (** Timed repetitions of each log operation of the traced run: on a
          file system mounted with online discard, every file deleted or
          replaced waits about 40 ms for the disk. *)
  setup_sample_s : float;  (** Least time one set-up sample repeats for. *)
  setup_ratio : float;
      (** Set-up time per second of capacity rounds in the second half. *)
  traced_pairs : int;  (** Untraced/traced round pairs of the traced run. *)
  min_rounds : int;
  capacity_share : float;  (** Shares of --seconds per phase, set-up included. *)
  loaded_share : float;  (** Split into [segments] open-loop runs. *)
  low_share : float;
  warmup : float;  (** Seconds of due time discarded per open-loop run. *)
  bucket : float;  (** Seconds of due time per latency window. *)
  layer_scale : float;
  probe_seconds : float;  (** Stall probe and generator-lag run. *)
}

let full =
  {
    scale = Fun.id;
    setup_reps = 21;
    log_reps = 3;
    setup_sample_s = 0.2;
    setup_ratio = 0.4;
    traced_pairs = 3;
    min_rounds = 2;
    capacity_share = 0.6;
    loaded_share = 0.2;
    low_share = 0.2;
    warmup = 0.5;
    bucket = 0.5;
    layer_scale = 1.0;
    probe_seconds = 1.5;
  }

let smoke =
  {
    scale = (fun n -> Stdlib.max 64 (n / 200));
    setup_reps = 3;
    log_reps = 1;
    setup_sample_s = 0.0;
    setup_ratio = infinity;
    traced_pairs = 1;
    min_rounds = 1;
    capacity_share = 0.0;
    loaded_share = 1.0;
    low_share = 1.0;
    warmup = 0.05;
    bucket = 10.0;
    layer_scale = 0.005;
    probe_seconds = 0.2;
  }

(* A measured metric: its samples within this run (rounds, latency
   windows, set-up repetitions) and the value reported from them. *)
type value = { samples : float array; reported : float }

let median_of samples = { samples; reported = U.median samples }
let one x = median_of [| x |]

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * value) list;
}

let json_float x =
  if not (Float.is_finite x) then failwith "non-finite metric value";
  Printf.sprintf "%.17g" x

let history_json ~workload ~trace o =
  let metric (name, v) =
    let q1, m, q3 = U.quartiles v.samples in
    Printf.sprintf {|"%s":{"value":%s,"median":%s,"q1":%s,"q3":%s,"n":%d}|} name
      (json_float v.reported) (json_float m) (json_float q1) (json_float q3)
      (Array.length v.samples)
  in
  Printf.sprintf
    {|{"cores":%d,"ocaml":"%s","workload":"%s","trace":%d,"attempted":%d,"failed":%d,"metrics":{%s}}|}
    (Domain.recommended_domain_count ()) Sys.ocaml_version workload trace o.attempted o.failed
    (String.concat "," (List.map metric o.metrics))

let result_json ~units o =
  let metric (name, v) =
    Printf.sprintf {|"%s":{"value":%s,"unit":"%s"}|} name (json_float v.reported)
      (List.assoc name units)
  in
  Printf.sprintf {|{"correct":%b,"attempted":%d,"failed":%d,"metrics":{%s}}|} (o.failed = 0)
    o.attempted o.failed
    (String.concat "," (List.map metric o.metrics))

let print_table o ~units =
  List.iter
    (fun (name, v) ->
      let q1, m, q3 = U.quartiles v.samples in
      Printf.printf "  %-34s %14.4f %-8s (median %.4f, q1 %.4f, q3 %.4f, n %d)\n" name v.reported
        (List.assoc name units) m q1 q3 (Array.length v.samples))
    o.metrics;
  Printf.printf "  attempted %d, failed %d\n%!" o.attempted o.failed

(* Rounds until [budget] seconds have passed, stopping where the end lands
   closest to it: a workload whose rounds last a second would otherwise
   overrun every batch by half a round on average. *)
let rounds_until ?(after_round = fun (_ : W.round) -> ()) (w : W.t) ~sizing ~budget =
  let t0 = U.now () in
  let rec go acc k =
    let elapsed = U.now () -. t0 in
    let mean = if k = 0 then 0.0 else elapsed /. float_of_int k in
    if k >= sizing.min_rounds && elapsed +. (mean /. 2.0) >= budget then List.rev acc
    else begin
      let r = w.W.round () in
      after_round r;
      go (r :: acc) (k + 1)
    end
  in
  go [] 0

(* Each open-loop rate runs as [segments] runs spread over the run, so that
   a spell of the host lands on a minority of its windows; a percentile is
   reported as the median over the windows of all segments. The least
   segment is no good: the host can also make a segment faster (the
   low-rate wake-up path of ingest_event ran 3x faster in some). *)
let segments = 3

let latency_value (runs : W.open_run list) windows =
  List.iter
    (fun (r : W.open_run) ->
      if Array.length (windows r) = 0 then
        failwith (Printf.sprintf "no latency window reached 100 samples (%d samples)" r.W.samples))
    runs;
  median_of (Array.concat (List.map windows runs))

(* --trace 0: open-loop segments, capacity rounds and set-up samples in
   turn. *)
let end_to_end_run (w : W.t) ~sizing ~seconds =
  (* Capacity rounds come in six batches spread over the run, and the
     throughput is the median over all rounds: on a shared 2-vCPU
     virtual machine the speed of a round moves by +-20% from one round to
     the next and drifts over minutes (see README.md), and the median of
     many rounds repeats from run to run where the best round does not.
     None runs before the first open-loop run: OCaml 5 paces major
     collection by heap size, and on the small heap of a fresh process
     ingest_event replays at half the speed it reaches once an open-loop
     run has grown the heap. *)
  let batches = 6 in
  let capacity ?after_round () =
    rounds_until ?after_round w ~sizing
      ~budget:(sizing.capacity_share *. seconds /. float_of_int batches)
  in
  let open_run rate share =
    w.W.open_loop ~rate
      ~duration:(share *. seconds /. float_of_int segments)
      ~warmup:sizing.warmup ~bucket:sizing.bucket
  in
  let loaded () = open_run w.W.rate_hi sizing.loaded_share in
  let low () = open_run w.W.rate_lo sizing.low_share in
  (* Setting up a small deployment takes anything from 0.09 ms to 4 ms,
     the mix moving from one second to the next (see README.md), while the
     fastest set-up of a fifth of a second stays near 0.1 ms. A sample is
     therefore the fastest of a batch of set-ups lasting at least
     [setup_sample_s]. In the second half of the run a sample follows a
     capacity round whenever set-up has had less than [setup_ratio] times
     the rounds' time, so that the samples spread over as many of the
     host's spells as the run meets. *)
  let setup = ref [] and setup_spent = ref 0.0 and rounds_spent = ref 0.0 in
  let setup_sample (r : W.round) =
    let t0 = U.now () in
    rounds_spent := !rounds_spent +. r.W.wall;
    if !setup_spent <= sizing.setup_ratio *. !rounds_spent then begin
      let rec go k best =
        let s = U.now () in
        w.W.setup ();
        let e = U.now () in
        let best = Float.min best (e -. s) in
        if k >= 2 && e -. t0 >= sizing.setup_sample_s then best else go (k + 1) best
      in
      setup := go 1 infinity :: !setup;
      setup_spent := !setup_spent +. (U.now () -. t0)
    end
  in
  let hi1 = loaded () in
  let c1 = capacity () in
  let lo1 = low () in
  let c2 = capacity () in
  let hi2 = loaded () in
  let c3 = capacity () in
  (* Read before set-up: repeating set-up starts and stops hundreds of
     pools, whose thread stacks would otherwise decide a small workload's
     peak. *)
  let peak_rss = U.peak_rss_mb () in
  let lo2 = low () in
  let c4 = capacity ~after_round:setup_sample () in
  let hi3 = loaded () in
  let c5 = capacity ~after_round:setup_sample () in
  let lo3 = low () in
  let c6 = capacity ~after_round:setup_sample () in
  let rounds = List.concat [ c1; c2; c3; c4; c5; c6 ] and setup = Array.of_list !setup in
  let hi = [ hi1; hi2; hi3 ] and lo = [ lo1; lo2; lo3 ] in
  let total f runs = List.fold_left (fun acc r -> acc + f r) 0 runs in
  let samples = total (fun (r : W.open_run) -> r.W.samples) in
  Printf.printf "  %d capacity rounds of %d tuples; %d loaded samples at %.0f/s, %d low at %.0f/s\n"
    (List.length rounds) w.W.round_tuples (samples hi) w.W.rate_hi (samples lo) w.W.rate_lo;
  {
    attempted =
      total (fun (r : W.round) -> r.W.tuples) rounds
      + total (fun (r : W.open_run) -> r.W.attempted) (hi @ lo);
    failed =
      total (fun (r : W.round) -> r.W.errors) rounds
      + total (fun (r : W.open_run) -> r.W.failed) (hi @ lo);
    metrics =
      [
        ( "throughput_tps",
          median_of
            (Array.of_list (List.map (fun r -> float_of_int r.W.tuples /. r.W.wall) rounds)) );
        ("latency_p50_ms", latency_value hi (fun r -> r.W.p50_ms));
        ("latency_p99_ms", latency_value hi (fun r -> r.W.p99_ms));
        ("latency_low_p50_ms", latency_value lo (fun r -> r.W.p50_ms));
        ("latency_low_p99_ms", latency_value lo (fun r -> r.W.p99_ms));
        ("setup_s", median_of setup);
        ("peak_rss_mb", one peak_rss);
      ];
  }

(* Algorithm 1 on the deployed topology with every operator's service time
   replaced by its traced self time per call; each fused group is first
   contracted into one operator replicated like its front. *)
let profiled_prediction (w : W.t) ~service =
  let topology =
    Topology.map_operators w.W.topology (fun v op ->
        Operator.with_service_time op (Float.max 1e-9 (service v)))
  in
  let contract t members =
    let original = w.W.topology in
    let front =
      match Topology.front_end_of original members with
      | Ok f -> Topology.operator original f
      | Error e -> failwith e
    in
    let ids =
      List.map
        (fun v ->
          Option.get (Topology.find_by_name t (Topology.operator original v).Operator.name))
        members
    in
    match Topology.contract t ~keep_name:("fused:" ^ front.Operator.name) ids with
    | Error e -> failwith e
    | Ok (t, fv) ->
        let op = Topology.operator t fv in
        Topology.with_operator t fv
          (Operator.with_replicas { op with Operator.kind = front.Operator.kind }
             front.Operator.replicas)
  in
  (Steady_state.analyze (List.fold_left contract topology w.W.fused)).Steady_state.throughput

(* Mailbox transfers per deployed unit: one into each unit's entry (a ring
   when a single producer feeds it, the locking mailbox otherwise), plus the
   emitter->worker ring and worker->collector mailbox of a replicated unit.
   Members of a fused group behind its front cost no transfer. *)
let mailbox_ns (w : W.t) (m : Ex.metrics) ~spsc ~mpsc =
  let t = w.W.topology in
  let src = Topology.source t in
  let unit_of v =
    match List.find_opt (List.mem v) w.W.fused with
    | Some g -> Result.get_ok (Topology.front_end_of t g)
    | None -> v
  in
  let inner v = unit_of v <> v in
  let total = ref 0.0 in
  for v = 0 to Topology.size t - 1 do
    if v <> src && not (inner v) then begin
      let producers =
        Topology.preds t v
        |> List.map (fun (u, _) -> unit_of u)
        |> List.sort_uniq compare
        |> List.fold_left (fun acc u -> acc + if u = src then w.W.source_actors else 1) 0
      in
      let entry = if producers = 1 then spsc else mpsc in
      let fission = if (Topology.operator t v).Operator.replicas > 1 then spsc +. mpsc else 0.0 in
      total := !total +. (float_of_int m.Ex.consumed.(v) *. (entry +. fission))
    end
  done;
  !total

(* --trace 1: isolated layer costs, untraced and traced rounds, the probes,
   and the ledger reconciling them. *)
let traced_run (w : W.t) ~sizing ~work_dir ~out_dir ~seed =
  let layers = Layers.measure ~scale:sizing.layer_scale ~reps:sizing.setup_reps
      ~log_reps:sizing.log_reps ~work_dir
  in
  let layer name = List.assoc name layers in
  let vertices = Topology.size w.W.topology in
  (* Untraced and traced rounds alternate, and each side keeps its round
     with the least CPU per tuple (host interference only adds), so the
     overhead compares like with like. *)
  let pairs =
    List.init sizing.traced_pairs (fun _ ->
        let untraced = w.W.round () in
        let tracer = Trace.create ~vertices ~id_of:w.W.id_of in
        (untraced, (w.W.round ~tracer (), tracer)))
  in
  let cpu_per (r : W.round) = r.W.cpu /. float_of_int r.W.tuples in
  let least rounds =
    List.fold_left (fun a b -> if cpu_per b < cpu_per a then b else a) (List.hd rounds) rounds
  in
  let sum f = List.fold_left (fun acc (u, (t, _)) -> acc + f u + f t) 0 pairs in
  let base = least (List.map fst pairs) in
  let traced = least (List.map (fun (_, (r, _)) -> r) pairs) in
  (* After the rounds: ingest_event's set-up opens the log a round left. *)
  let reps = Stdlib.max 3 (sizing.setup_reps / 3) in
  let ms_per f = 1e-6 *. U.ns_per_op ~reps ~ops:1 f in
  let deploy_ms = ms_per w.W.deploy in
  let analyze_ms = ms_per (fun () -> ignore (Steady_state.analyze w.W.topology)) in
  let tracer = snd (snd (List.find (fun (_, (r, _)) -> r == traced) pairs)) in
  let summary = Trace.summarize tracer ~vertices in
  if out_dir <> "" then begin
    U.mkdir_p out_dir;
    Trace.write_spans
      (Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d.csv" w.W.name seed))
      summary
  end;
  let stall = Layers.stall_p99_ms ~rate:w.W.rate_hi ~duration:sizing.probe_seconds in
  let lagged =
    w.W.open_loop ~rate:w.W.rate_lo ~duration:(sizing.warmup +. sizing.probe_seconds)
      ~warmup:sizing.warmup ~bucket:sizing.bucket
  in
  let sequential = w.W.sequential ~n:(Stdlib.max 64 (w.W.round_tuples / 2)) in
  let source_ns =
    U.ns_per_op ~reps:3 ~ops:w.W.round_tuples (fun () ->
        let gen = w.W.source () in
        let rec drain () = match gen () with Some _ -> drain () | None -> () in
        drain ())
  in
  let src = Topology.source w.W.topology in
  let n = float_of_int base.W.tuples in
  let m = base.W.metrics in
  let log_layers = w.W.log_layers layer in
  let log_ns = List.fold_left (fun acc (_, x) -> acc +. x) 0.0 log_layers in
  let self v = summary.Trace.self_ns.(v) in
  let per_call v =
    if summary.Trace.counts.(v) = 0 then 0.0 else self v /. float_of_int summary.Trace.counts.(v)
  in
  (* The source vertex generates each tuple and, for ingest_event, appends
     it to the log and reads it back. *)
  let service v = 1e-9 *. if v = src then source_ns +. log_ns else per_call v in
  let predicted = profiled_prediction w ~service in
  let throughput = n /. base.W.wall in
  let cpu_ns = 1e9 *. base.W.cpu /. n in
  let behavior_ns =
    List.fold_left ( +. ) 0.0 (List.init vertices (fun v -> if v = src then 0.0 else self v)) /. n
  in
  (* One draw per produced tuple at every vertex with successors: a table
     sample where there is a choice, a raw draw where there is not. *)
  let routing_ns =
    List.fold_left ( +. ) 0.0
      (List.init vertices (fun v ->
           let cost =
             match Topology.out_degree w.W.topology v with
             | 0 -> 0.0
             | 1 -> layer "prelude.rng_float_ns"
             | _ -> layer "prelude.discrete_sample_ns"
           in
           float_of_int m.Ex.produced.(v) *. cost))
  in
  let ledger =
    [
      ("loadgen", source_ns);
      ("behavior", behavior_ns);
      ( "mailbox",
        mailbox_ns w m ~spsc:(layer "mailbox.spsc_put_take_ns")
          ~mpsc:(layer "mailbox.mpsc_put_take_ns")
        /. n );
      ("routing", routing_ns /. n);
    ]
    @ log_layers
  in
  let explained = List.fold_left (fun acc (_, x) -> acc +. x) 0.0 ledger in
  Printf.printf "  ledger, ns per source tuple (CPU %.1f ns):\n" cpu_ns;
  List.iter (fun (name, x) -> Printf.printf "    %-10s %10.1f\n" name x) ledger;
  Printf.printf "    %-10s %10.1f\n" "residual" (cpu_ns -. explained);
  let consumed = Array.fold_left ( + ) 0 m.Ex.consumed - m.Ex.consumed.(src) in
  let gaps = summary.Trace.gaps_ns in
  if Array.length gaps = 0 then failwith "the traced run recorded no hop gaps";
  if Array.length lagged.W.lag_ms = 0 then failwith "the lag probe emitted no tuple after warm-up";
  let metrics =
    List.map
      (fun (name, x) -> (name, one x))
      (layers
      @ [
          ("executor.deploy_ms", deploy_ms);
          ("steady_state.analyze_ms", analyze_ms);
          ("executor.hops_per_tuple", float_of_int consumed /. n);
          ("executor.blocked_s", Array.fold_left ( +. ) 0.0 m.Ex.blocked);
          ("trace.behavior_self_us_per_tuple", behavior_ns *. 1e-3);
          ("trace.hop_gap_p50_us", 1e-3 *. U.percentile gaps 0.5);
          ("trace.hop_gap_p99_us", 1e-3 *. U.percentile gaps 0.99);
          ("loadgen.source_ns", source_ns);
          ("loadgen.lag_p99_ms", U.percentile (U.sorted lagged.W.lag_ms) 0.99);
          ("host.stall_p99_ms", stall);
          ("baseline.sequential_tps", sequential);
          ("steady_state.predicted_tps", predicted);
          ("ledger.model_gap", throughput /. predicted);
          ("ledger.cpu_ns_per_tuple", cpu_ns);
          ("ledger.residual_ns_per_tuple", cpu_ns -. explained);
          ("trace.overhead_pct", 100.0 *. ((cpu_per traced /. cpu_per base) -. 1.0));
        ])
  in
  let order = List.map fst per_layer in
  {
    attempted = sum (fun (r : W.round) -> r.W.tuples) + lagged.W.attempted;
    failed = sum (fun (r : W.round) -> r.W.errors) + lagged.W.failed;
    metrics = List.map (fun name -> (name, List.assoc name metrics)) order;
  }

let run_one ~sizing ~name ~seed ~seconds ~trace ~work_dir ~out_dir =
  U.mkdir_p work_dir;
  let w = W.make name ~seed ~scale:sizing.scale ~work_dir in
  Fun.protect
    ~finally:(fun () -> w.W.cleanup ())
    (fun () ->
      Printf.printf "%s (seed %d, %g s, trace %b, %d cores)\n%!" name seed seconds trace
        (Domain.recommended_domain_count ());
      if trace then traced_run w ~sizing ~work_dir ~out_dir ~seed
      else end_to_end_run w ~sizing ~seconds)

(* Metric names listed under "end_to_end" and "per_layer" in
   BENCHMARK.json, read without a JSON library: every "name" value between
   the section's key and the next section's. *)
let spec_names text ~section ?until () =
  let find from sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length text then None
      else if String.sub text i n = sub then Some i
      else go (i + 1)
    in
    go from
  in
  let start = Option.get (find 0 (Printf.sprintf "%S" section)) in
  let stop =
    match until with
    | Some u -> Option.get (find start (Printf.sprintf "%S" u))
    | None -> String.length text
  in
  let rec names i acc =
    match find i {|"name"|} with
    | Some j when j < stop ->
        let q1 = String.index_from text (j + 6) '"' in
        let q2 = String.index_from text (q1 + 1) '"' in
        names q2 (String.sub text (q1 + 1) (q2 - q1 - 1) :: acc)
    | _ -> List.rev acc
  in
  names start []

let smoke_run spec =
  let text = In_channel.with_open_bin spec In_channel.input_all in
  let same what expected actual =
    if List.sort compare expected <> List.sort compare actual then
      failwith
        (Printf.sprintf "%s: BENCHMARK.json lists [%s], the benchmark reports [%s]" what
           (String.concat ", " expected) (String.concat ", " actual))
  in
  same "workloads" (spec_names text ~section:"workloads" ~until:"end_to_end" ()) W.names;
  let work_dir = Filename.concat (Sys.getcwd ()) "smoke-work" in
  Fun.protect
    ~finally:(fun () -> U.rm_rf work_dir)
    (fun () ->
      List.iter
        (fun name ->
          List.iter
            (fun (trace, section, until, units) ->
              let o =
                run_one ~sizing:smoke ~name ~seed:1 ~seconds:0.3 ~trace ~work_dir ~out_dir:""
              in
              print_table o ~units;
              same (name ^ " " ^ section) (spec_names text ~section ?until ())
                (List.map fst o.metrics);
              ignore (result_json ~units o);
              if o.failed > 0 then
                failwith (Printf.sprintf "%s: %d of %d tuples disagree with the oracle" name o.failed
                            o.attempted))
            [
              (false, "end_to_end", Some "per_layer", end_to_end);
              (true, "per_layer", None, per_layer);
            ])
        W.names);
  print_endline "smoke: every workload matches its oracle and BENCHMARK.json"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let out = ref "benchmark/out" and smoke_spec = ref "" and smoke = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads in BENCHMARK.json");
      ("--seed", Arg.Set_int seed, "N stream and executor seed");
      ("--seconds", Arg.Set_float seconds, "T seconds of measurement");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer run");
      ("--out", Arg.Set_string out, "DIR scratch files and spans (default benchmark/out)");
      ("--smoke", Arg.Set smoke, " run every workload at smoke size and check it");
      ("--spec", Arg.Set_string smoke_spec, "FILE BENCHMARK.json checked by --smoke");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds T --trace 0|1";
  if !smoke then smoke_run !smoke_spec
  else begin
    if not (List.mem !workload W.names) then begin
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
    end;
    if !trace <> 0 && !trace <> 1 then begin
      prerr_endline "--trace takes 0 or 1";
      exit 2
    end;
    let units = if !trace = 1 then per_layer else end_to_end in
    let work_dir = Filename.concat !out (Printf.sprintf "work-%d" (Unix.getpid ())) in
    let o =
      Fun.protect
        ~finally:(fun () -> U.rm_rf work_dir)
        (fun () ->
          run_one ~sizing:full ~name:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
            ~work_dir ~out_dir:!out)
    in
    print_table o ~units;
    print_endline ("history: " ^ history_json ~workload:!workload ~trace:!trace o);
    print_endline (result_json ~units o);
    if o.failed > 0 then exit 1
  end
