(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (Section 5), plus ablation studies and bechamel
   micro-benchmarks of the core algorithms.

   Usage:
     dune exec bench/main.exe                 # everything, full windows
     dune exec bench/main.exe -- --quick      # shorter simulation windows
     dune exec bench/main.exe -- fig7 table1  # selected sections only

   Sections: fig7 fig8 fig9 fig10 table1 table2 latency elasticity elastic
             cola placement ablations sched mailbox telemetry log event
             fusion micro

   "Predicted" numbers come from the SpinStreams cost models
   (ss_core.Steady_state / Fission / Fusion); "measured" numbers come from
   the discrete-event simulation of the same topology as a queueing network
   with bounded buffers and blocking-after-service backpressure (ss_sim) —
   the semantics the paper configured Akka to provide. *)

open Ss_prelude
open Ss_topology
open Ss_core
open Ss_workload

(* ------------------------------------------------------------------ *)
(* Configuration *)

let quick = ref false

(* Atomic (temp file + rename) BENCH_*.json writer: CI parses these files,
   so a crashed or interrupted bench must never leave a truncated one. *)
let write_bench_json path json =
  Ss_log.Log_io.atomic_write_file path (json ^ "\n");
  print_string json;
  print_newline ();
  Printf.printf "wrote %s\n" path

(* Mailbox capacity used by the adaptive-window experiment runs. The paper
   does not state Akka's mailbox size; 64 slots keeps the blocking network
   close to the fluid model even when fission sizes operators at rho = 1
   (see the buffer-capacity ablation). *)
let buffer_capacity = ref 64
let testbed_seed = 20180901
let testbed_size = 50

let sim_config ?(seed = 1) () =
  if !quick then
    { Ss_sim.Engine.default_config with Ss_sim.Engine.warmup = 1.5; measure = 6.0; seed }
  else
    { Ss_sim.Engine.default_config with Ss_sim.Engine.warmup = 5.0; measure = 25.0; seed }

(* Simulation windows sized to the topology: slow operators (long slides on
   low-probability paths) need hundreds of simulated seconds before their
   counts are statistically meaningful, while total event volume must stay
   bounded. *)
let adaptive_config ?(seed = 1) (predicted : Steady_state.t) =
  let firings_wanted = if !quick then 100.0 else 400.0 in
  let max_events = if !quick then 5e6 else 4e7 in
  let min_rate = ref infinity and volume = ref 0.0 in
  Array.iter
    (fun m ->
      let d = m.Steady_state.departure_rate in
      if d > 1e-9 then min_rate := Float.min !min_rate d;
      volume := !volume +. m.Steady_state.arrival_rate +. d)
    predicted.Steady_state.metrics;
  let events_per_sec = Float.max !volume 1.0 in
  let measure =
    Float.min
      (Float.max (if !quick then 6.0 else 25.0) (firings_wanted /. !min_rate))
      (max_events /. events_per_sec)
  in
  {
    Ss_sim.Engine.default_config with
    Ss_sim.Engine.warmup = measure /. 5.0;
    measure;
    seed;
    buffer_capacity = !buffer_capacity;
  }

let testbed = lazy (Random_topology.testbed ~seed:testbed_seed testbed_size)

let section_header title =
  Printf.printf "\n%s\n%s\n%s\n" (String.make 78 '=') title (String.make 78 '=')

let pct x = 100.0 *. x

(* Shared fig-7 data: per-topology prediction and measurement on the
   original (non-optimized) testbed. Computed once, reused by fig7 and
   fig8. *)
type topo_run = {
  index : int;
  topology : Topology.t;
  predicted : Steady_state.t;
  measured : Ss_sim.Engine.result;
}

let original_runs =
  lazy
    (List.mapi
       (fun i topology ->
         let predicted = Steady_state.analyze topology in
         {
           index = i + 1;
           topology;
           predicted;
           measured =
             Ss_sim.Engine.run
               ~config:(adaptive_config ~seed:(100 + i) predicted)
               topology;
         })
       (Lazy.force testbed))

(* ------------------------------------------------------------------ *)
(* Figure 7: accuracy of the backpressure model on 50 random topologies *)

let fig7 () =
  section_header
    "Figure 7a — predicted vs measured throughput (50 random topologies)";
  Printf.printf "%-6s %6s %6s %14s %14s %10s\n" "topo" "ops" "edges"
    "predicted t/s" "measured t/s" "rel.err";
  let errors =
    List.map
      (fun r ->
        let p = r.predicted.Steady_state.throughput in
        let m = r.measured.Ss_sim.Engine.throughput in
        let err = Stats.relative_error ~expected:p ~actual:m in
        Printf.printf "%-6d %6d %6d %14.1f %14.1f %9.2f%%\n" r.index
          (Topology.size r.topology)
          (Topology.num_edges r.topology)
          p m (pct err);
        err)
      (Lazy.force original_runs)
  in
  let errors = Array.of_list errors in
  section_header "Figure 7b — relative prediction error per topology";
  Printf.printf
    "mean %.2f%%   median %.2f%%   p95 %.2f%%   max %.2f%%\n"
    (pct (Stats.mean errors))
    (pct (Stats.median errors))
    (pct (Stats.percentile 95.0 errors))
    (pct (Stats.maximum errors));
  Printf.printf "(paper: 'on average, less than 3%%')\n"

(* ------------------------------------------------------------------ *)
(* Figure 8: per-operator departure-rate prediction error *)

let fig8 () =
  section_header
    "Figure 8 — per-operator departure-rate prediction error (all operators)";
  let errors = ref [] in
  List.iter
    (fun r ->
      Array.iteri
        (fun v m ->
          let p = m.Steady_state.departure_rate in
          let meas = r.measured.Ss_sim.Engine.stats.(v).Ss_sim.Engine.departure_rate in
          if p > 0.0 then errors := Stats.relative_error ~expected:p ~actual:meas :: !errors)
        r.predicted.Steady_state.metrics)
    (Lazy.force original_runs);
  let errors = Array.of_list !errors in
  Printf.printf "operators: %d (paper: 678)\n" (Array.length errors);
  Printf.printf "mean %.2f%%   stddev %.2f%%   median %.2f%%   max %.2f%%\n"
    (pct (Stats.mean errors))
    (pct (Stats.stddev errors))
    (pct (Stats.median errors))
    (pct (Stats.maximum errors));
  let above20 = Array.to_list errors |> List.filter (fun e -> e > 0.20) in
  Printf.printf "operators above 20%% error: %d (%.1f%%)\n" (List.length above20)
    (pct (float_of_int (List.length above20) /. float_of_int (Array.length errors)));
  Printf.printf "(paper: mean 6.14%%, stddev 5%%, a few cases up to 24.9%% —\n";
  Printf.printf " operators on very-low-probability paths are not at steady state yet)\n";
  (* Error histogram, 2.5%-wide buckets up to 25%. *)
  Printf.printf "\nhistogram (relative error):\n";
  let buckets = 10 in
  let width = 0.025 in
  let counts = Array.make (buckets + 1) 0 in
  Array.iter
    (fun e ->
      let b = int_of_float (e /. width) in
      let b = if b > buckets then buckets else b in
      counts.(b) <- counts.(b) + 1)
    errors;
  Array.iteri
    (fun b c ->
      let label =
        if b = buckets then Printf.sprintf ">%4.1f%%      " (pct (width *. float_of_int buckets))
        else Printf.sprintf "%4.1f%%-%4.1f%%" (pct (width *. float_of_int b))
            (pct (width *. float_of_int (b + 1)))
      in
      Printf.printf "  %s %5d %s\n" label c (String.make (min c 60) '#'))
    counts

(* ------------------------------------------------------------------ *)
(* Figure 9: bottleneck elimination *)

let optimized_runs =
  lazy
    (List.mapi
       (fun i topology ->
         let plan = Fission.optimize topology in
         let measured =
           Ss_sim.Engine.run
             ~config:(adaptive_config ~seed:(200 + i) plan.Fission.analysis)
             plan.Fission.topology
         in
         (i + 1, topology, plan, measured))
       (Lazy.force testbed))

let fig9 () =
  section_header
    "Figure 9a — operators and additional replicas after bottleneck elimination";
  Printf.printf "%-6s %10s %18s %10s\n" "topo" "operators" "add. replicas" "residual";
  List.iter
    (fun (i, topology, plan, _) ->
      let additional = plan.Fission.total_replicas - Topology.size topology in
      Printf.printf "%-6d %10d %18d %10d\n" i (Topology.size topology) additional
        (List.length plan.Fission.residual_bottlenecks))
    (Lazy.force optimized_runs);
  section_header
    "Figure 9b — model accuracy on the parallelized topologies";
  Printf.printf "%-6s %14s %14s %10s %8s\n" "topo" "predicted t/s"
    "measured t/s" "rel.err" "ideal?";
  let errors = ref [] in
  let ideal_count = ref 0 and residual_count = ref 0 in
  List.iter
    (fun (i, topology, plan, measured) ->
      let p = plan.Fission.analysis.Steady_state.throughput in
      let m = measured.Ss_sim.Engine.throughput in
      let err = Stats.relative_error ~expected:p ~actual:m in
      errors := err :: !errors;
      let source_rate =
        Operator.service_rate (Topology.operator topology (Topology.source topology))
      in
      let ideal = p >= source_rate *. (1.0 -. 1e-6) in
      if ideal then incr ideal_count else incr residual_count;
      Printf.printf "%-6d %14.1f %14.1f %9.2f%% %8s\n" i p m (pct err)
        (if ideal then "yes" else "no"))
    (Lazy.force optimized_runs);
  let errors = Array.of_list !errors in
  Printf.printf "\nmean error %.2f%% (paper: about 3-3.5%% on average)\n"
    (pct (Stats.mean errors));
  Printf.printf
    "%d/%d topologies reach the ideal (source) rate; %d are capped by\n\
     non-replicable or skew-limited operators (paper: 43/50 and 7/50)\n"
    !ideal_count testbed_size !residual_count

(* ------------------------------------------------------------------ *)
(* Figure 10: bounded parallelization (hold-off replication) *)

let fig10 () =
  section_header
    "Figure 10 — throughput under replica budgets (3 topologies, bounds 30/35/40/none)";
  (* The paper picks three random topologies; we take the three whose
     unbounded plans use the most replicas, so the bounds actually bind. *)
  let ranked =
    Lazy.force optimized_runs
    |> List.map (fun (i, topology, plan, _) -> (i, topology, plan.Fission.total_replicas))
    |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
  in
  (* Two topologies where every bound binds, plus one needing just about 40
     replicas, so the largest bound matches the unbounded plan — the
     paper's third topology. *)
  let heavy = List.filteri (fun i _ -> i < 2) ranked in
  let near_forty =
    ranked
    |> List.filter (fun (_, _, n) -> n <= 42)
    |> fun l -> List.filteri (fun i _ -> i < 1) l
  in
  let chosen = heavy @ near_forty in
  Printf.printf "%-10s %10s %10s %10s %10s %10s %10s\n" "topology" "original"
    "bound=30" "bound=35" "bound=40" "no bound" "replicas";
  List.iteri
    (fun j (i, topology, unbounded_n) ->
      let original = (Steady_state.analyze topology).Steady_state.throughput in
      let bounded n =
        if n < Topology.size topology then nan
        else
          let plan = Fission.optimize ~max_replicas:n topology in
          let config = adaptive_config ~seed:(300 + (10 * j) + n) plan.Fission.analysis in
          (Ss_sim.Engine.run ~config plan.Fission.topology).Ss_sim.Engine.throughput
      in
      let unbounded =
        let plan = Fission.optimize topology in
        let config = adaptive_config ~seed:(300 + (10 * j)) plan.Fission.analysis in
        (Ss_sim.Engine.run ~config plan.Fission.topology).Ss_sim.Engine.throughput
      in
      Printf.printf "#%-9d %10.1f %10.1f %10.1f %10.1f %10.1f %10d\n" i original
        (bounded 30) (bounded 35) (bounded 40) unbounded unbounded_n)
    chosen;
  Printf.printf
    "(measured on the simulator; expected shape: throughput de-scales\n\
     proportionally with the bound, and a bound above the needed replicas\n\
     matches the unbounded result — the paper's third topology)\n"

(* ------------------------------------------------------------------ *)
(* Tables 1 and 2: the fusion case study on the Fig. 11 topology *)

let fig11 service_times_ms =
  let ops =
    Array.of_list
      (List.mapi
         (fun i t ->
           Operator.make ~service_time:(t /. 1e3) (Printf.sprintf "op%d" (i + 1)))
         service_times_ms)
  in
  Topology.create_exn ops
    [
      (0, 1, 0.7); (0, 2, 0.3); (2, 3, 0.5); (2, 4, 0.5);
      (4, 3, 0.35); (4, 5, 0.65); (3, 5, 1.0); (1, 5, 1.0);
    ]

(* Actors the executor deploys for [t]: one per plain vertex, and an
   emitter, the replicas and a collector per replicated one. *)
let actor_count t =
  let src = Topology.source t in
  let count = ref 0 in
  Array.iteri
    (fun v (o : Operator.t) ->
      count :=
        !count
        +
        if v = src || o.Operator.replicas = 1 then 1
        else o.Operator.replicas + 2)
    (Topology.operators t);
  !count

let print_metrics_row label values =
  Printf.printf "%-14s" label;
  List.iter (fun v -> Printf.printf " %8s" v) values;
  print_newline ()

let print_analysis_table analysis =
  let metrics = Array.to_list analysis.Steady_state.metrics in
  print_metrics_row "operator"
    (List.map (fun m -> m.Steady_state.name) metrics);
  print_metrics_row "1/mu (ms)"
    (List.map (fun m -> Printf.sprintf "%.2f" (1e3 /. m.Steady_state.capacity)) metrics);
  print_metrics_row "1/delta (ms)"
    (List.map
       (fun m ->
         if m.Steady_state.departure_rate > 0.0 then
           Printf.sprintf "%.2f" (1e3 /. m.Steady_state.departure_rate)
         else "-")
       metrics);
  print_metrics_row "rho"
    (List.map (fun m -> Printf.sprintf "%.2f" m.Steady_state.utilization) metrics)

let fusion_case_study ~label ~service_times_ms ~paper_fused_ms ~paper_pred
    ~paper_meas =
  section_header label;
  let topology = fig11 service_times_ms in
  let before = Steady_state.analyze topology in
  Printf.printf "original topology:\n";
  print_analysis_table before;
  let measured_before = Ss_sim.Engine.run ~config:(sim_config ()) topology in
  Printf.printf
    "throughput: %.0f t/s predicted, %.0f t/s measured (paper: 1000 / 961)\n\n"
    before.Steady_state.throughput measured_before.Ss_sim.Engine.throughput;
  match Fusion.apply ~name:"F" topology [ 2; 3; 4 ] with
  | Error e -> Printf.printf "fusion failed: %s\n" e
  | Ok outcome ->
      Printf.printf "topology after fusing {op3, op4, op5} -> F:\n";
      print_analysis_table outcome.Fusion.after;
      let measured_after =
        Ss_sim.Engine.run ~config:(sim_config ()) outcome.Fusion.topology
      in
      Printf.printf "fused service time: %.2f ms (paper: %.2f ms)\n"
        (outcome.Fusion.fused_service_time *. 1e3)
        paper_fused_ms;
      Printf.printf
        "throughput after fusion: %.0f t/s predicted, %.0f t/s measured \
         (paper: %d / %d)\n"
        outcome.Fusion.after.Steady_state.throughput
        measured_after.Ss_sim.Engine.throughput paper_pred paper_meas;
      if outcome.Fusion.creates_bottleneck then
        Printf.printf "ALERT: fusion introduces a bottleneck (as the paper's tool reports)\n"

let table1 () =
  fusion_case_study
    ~label:"Table 1 — feasible fusion (no performance impairment)"
    ~service_times_ms:[ 1.0; 1.2; 0.7; 2.0; 1.5; 0.2 ]
    ~paper_fused_ms:2.80 ~paper_pred:1000 ~paper_meas:970

let table2 () =
  fusion_case_study
    ~label:"Table 2 — fusion introducing a new bottleneck"
    ~service_times_ms:[ 1.0; 1.2; 1.5; 2.7; 2.2; 0.2 ]
    ~paper_fused_ms:4.42 ~paper_pred:760 ~paper_meas:753

(* ------------------------------------------------------------------ *)
(* Ablations: design choices not isolated in the paper *)

(* Single-pass analysis (no source-correction restart): departure rates are
   capped locally instead of throttling the source. *)
let naive_throughput topology =
  let order = Topology.topological_order topology in
  let n = Topology.size topology in
  let delta = Array.make n 0.0 in
  Array.iter
    (fun v ->
      let op = Topology.operator topology v in
      let cap = Steady_state.capacity_of op in
      let lambda =
        if v = Topology.source topology then cap
        else
          List.fold_left
            (fun acc (u, p) -> acc +. (delta.(u) *. p))
            0.0 (Topology.preds topology v)
      in
      delta.(v) <- Float.min lambda cap *. Operator.selectivity_factor op)
    order;
  (* Without backpressure modeling the source always runs at full speed. *)
  delta.(Topology.source topology)

let ablation_restart () =
  section_header
    "Ablation — Theorem 3.2 source correction vs single-pass local capping";
  let full_err = ref [] and naive_err = ref [] in
  List.iter
    (fun r ->
      let m = r.measured.Ss_sim.Engine.throughput in
      let full = r.predicted.Steady_state.throughput in
      let naive = naive_throughput r.topology in
      full_err := Stats.relative_error ~expected:m ~actual:full :: !full_err;
      naive_err := Stats.relative_error ~expected:m ~actual:naive :: !naive_err)
    (Lazy.force original_runs);
  Printf.printf
    "mean error vs measurement over the %d-topology testbed:\n" testbed_size;
  Printf.printf "  Algorithm 1 (with restart):    %6.2f%%\n"
    (pct (Stats.mean (Array.of_list !full_err)));
  Printf.printf "  single-pass (no backpressure): %6.2f%%\n"
    (pct (Stats.mean (Array.of_list !naive_err)));
  Printf.printf
    "(the single pass overestimates ingestion whenever a bottleneck exists:\n\
     it caps flows locally but never throttles the source)\n"

let ablation_partitioning () =
  section_header
    "Ablation — key-group placement: greedy LPT vs modulo hashing (64 keys, 4 replicas)";
  Printf.printf "%-8s %12s %12s %16s\n" "alpha" "LPT pmax" "modulo pmax"
    "ideal (=0.25)";
  List.iter
    (fun alpha ->
      let keys = Discrete.zipf ~alpha 64 in
      let lpt = Key_partitioning.pmax_for ~keys ~replicas:4 in
      let modulo =
        let loads = Array.make 4 0.0 in
        Array.iteri
          (fun k p -> loads.(k mod 4) <- loads.(k mod 4) +. p)
          (Discrete.probs keys);
        Array.fold_left Float.max 0.0 loads
      in
      Printf.printf "%-8.2f %12.3f %12.3f %16s\n" alpha lpt modulo "0.250")
    [ 0.0; 0.5; 1.0; 1.5; 2.0 ];
  Printf.printf
    "(pmax bounds the parallelized operator's capacity at mu/pmax: lower is\n\
     better; LPT degrades gracefully under skew, modulo does not)\n"

let ablation_buffers () =
  section_header
    "Ablation — buffer capacity vs throughput under stochastic service times";
  (* Two exponential stages at 80% load: small buffers couple the stages and
     lose throughput that the capacity-free analytical model cannot see. *)
  let ops =
    [|
      Operator.make ~service_time:1e-3 "src";
      Operator.make ~dist:(Dist.Exponential 1.25e-3) ~service_time:1.25e-3 "a";
      Operator.make ~dist:(Dist.Exponential 1.25e-3) ~service_time:1.25e-3 "b";
    |]
  in
  let topology = Topology.create_exn ops [ (0, 1, 1.0); (1, 2, 1.0) ] in
  let predicted = (Steady_state.analyze topology).Steady_state.throughput in
  Printf.printf "analytical model (buffer-size-free): %.0f t/s\n" predicted;
  Printf.printf "%-10s %14s %10s\n" "capacity" "measured t/s" "vs model";
  List.iter
    (fun cap ->
      let config = { (sim_config ()) with Ss_sim.Engine.buffer_capacity = cap } in
      let m = (Ss_sim.Engine.run ~config topology).Ss_sim.Engine.throughput in
      Printf.printf "%-10d %14.1f %9.1f%%\n" cap m (pct (m /. predicted)))
    [ 1; 2; 4; 8; 16; 64; 256 ];
  Printf.printf
    "(deterministic services — the profile-mean abstraction the paper uses —\n\
     are insensitive to capacity; variance makes small buffers lossy)\n"

let ablations () =
  ablation_restart ();
  ablation_partitioning ();
  ablation_buffers ()

(* ------------------------------------------------------------------ *)
(* Latency model validation (extension beyond the paper) *)

let latency () =
  section_header
    "Latency — Kingman/QNA estimates vs Little's-law measurements";
  print_endline
    "Per-operator buffering delay: predicted by the GI/G/1 approximation";
  print_endline
    "(ss_core.Latency), measured as mean queue length / arrival rate in the";
  print_endline
    "simulator. Saturated vertices are excluded (unbounded in the fluid";
  print_endline "model; buffer-bound in the simulator).";
  print_newline ();
  (* Under BAS blocking, every vertex that can reach a saturated operator
     has its buffer filled by backpressure, whatever its own utilization:
     the open-network approximation only applies outside those paths. *)
  let feeds_saturated topology (analysis : Steady_state.t) =
    let n = Topology.size topology in
    let feeds = Array.make n false in
    let order = Topology.topological_order topology in
    for i = n - 1 downto 0 do
      let v = order.(i) in
      if analysis.Steady_state.metrics.(v).Steady_state.utilization >= 0.95 then
        feeds.(v) <- true
      else
        feeds.(v) <-
          List.exists (fun (w, _) -> feeds.(w)) (Topology.succs topology v)
    done;
    feeds
  in
  let abs_errors = ref [] in
  let pred_waits = ref [] and meas_waits = ref [] in
  let compared = ref 0 and excluded = ref 0 in
  List.iter
    (fun r ->
      let estimate = Latency.estimate r.topology r.predicted in
      let feeds = feeds_saturated r.topology r.predicted in
      Array.iteri
        (fun v (l : Latency.vertex_latency) ->
          let s = r.measured.Ss_sim.Engine.stats.(v) in
          if v = Topology.source r.topology then ()
          else if feeds.(v) then incr excluded
          else if s.Ss_sim.Engine.arrival_rate > 0.0 then begin
            incr compared;
            abs_errors :=
              Float.abs (l.Latency.waiting_time -. s.Ss_sim.Engine.mean_waiting_time)
              :: !abs_errors;
            pred_waits := l.Latency.waiting_time :: !pred_waits;
            meas_waits := s.Ss_sim.Engine.mean_waiting_time :: !meas_waits
          end)
        estimate.Latency.per_vertex)
    (Lazy.force original_runs);
  let abs_errors = Array.of_list !abs_errors in
  Printf.printf
    "operators compared: %d (excluded %d on backpressure paths to a saturated vertex)\n"
    !compared !excluded;
  Printf.printf
    "mean predicted wait %.3f ms vs mean measured wait %.3f ms\n"
    (Stats.mean (Array.of_list !pred_waits) *. 1e3)
    (Stats.mean (Array.of_list !meas_waits) *. 1e3);
  Printf.printf
    "absolute error: median %.3f ms, mean %.3f ms, p95 %.3f ms, max %.3f ms\n"
    (Stats.median abs_errors *. 1e3)
    (Stats.mean abs_errors *. 1e3)
    (Stats.percentile 95.0 abs_errors *. 1e3)
    (Stats.maximum abs_errors *. 1e3);
  let below_1ms =
    Array.to_list abs_errors |> List.filter (fun e -> e < 1e-3) |> List.length
  in
  Printf.printf "operators within 1 ms: %d/%d\n" below_1ms
    (Array.length abs_errors);
  print_newline ();
  print_endline
    "(vertices feeding a bottleneck sit behind full buffers whatever their";
  print_endline
    "own utilization -- blocking networks differ fundamentally from open";
  print_endline
    "ones there, which is why the fluid throughput model of the paper is";
  print_endline "the right tool under backpressure, and Kingman only off it)"

(* ------------------------------------------------------------------ *)
(* Baseline comparison: static optimization vs run-time elasticity *)

let elasticity () =
  section_header
    "Baseline — SpinStreams static plan vs threshold elasticity (stable load)";
  print_endline
    "Elastic runs start with one replica everywhere and adapt every 10s,";
  print_endline
    "paying 2s of reconfiguration downtime per resize (Dhalion-style";
  print_endline
    "thresholds); the static plan is deployed optimally from t=0.";
  print_newline ();
  Printf.printf "%-6s %12s %12s %12s %10s %10s\n" "topo" "static t/s"
    "elastic t/s" "converged" "items lost" "loss %";
  let chosen =
    (* Topologies whose plans fully remove the bottlenecks, so both
       strategies aim at the same rate. *)
    Lazy.force optimized_runs
    |> List.filter (fun (_, _, plan, _) ->
           plan.Fission.residual_bottlenecks = [])
    |> (fun l -> List.filteri (fun i _ -> i < 5) l)
  in
  List.iter
    (fun (i, topology, plan, _) ->
      let static_throughput = plan.Fission.analysis.Steady_state.throughput in
      let elastic =
        Ss_elastic.Controller.run ~epoch_length:10.0
          ~reconfiguration_downtime:2.0 ~max_epochs:20 ~seed:(400 + i) topology
      in
      let static_items = static_throughput *. elastic.Ss_elastic.Controller.horizon in
      let lost = static_items -. elastic.Ss_elastic.Controller.items_processed in
      let final_throughput =
        match List.rev elastic.Ss_elastic.Controller.epochs with
        | e :: _ -> e.Ss_elastic.Controller.throughput
        | [] -> 0.0
      in
      Printf.printf "%-6d %12.1f %12.1f %12s %10.0f %9.1f%%\n" i
        static_throughput final_throughput
        (match elastic.Ss_elastic.Controller.converged_at with
        | Some e -> Printf.sprintf "epoch %d" e
        | None -> "no")
        lost
        (pct (lost /. Float.max static_items 1.0)))
    chosen;
  print_newline ();
  print_endline
    "(the paper's positioning, quantified: on a stable workload the";
  print_endline
    "statically pre-optimized deployment loses nothing, while elasticity";
  print_endline
    "spends epochs discovering a configuration and paying migration downtime;";
  print_endline
    "note the runs converging to a local optimum or oscillating -- the";
  print_endline
    "stability problem of reactive per-operator scaling under backpressure";
  print_endline
    "that the paper cites, which the global static analysis avoids)"

(* ------------------------------------------------------------------ *)
(* Live elasticity: the closed loop against the running executor.

   Both arms deploy the same busy-wait pipeline under the same throttled
   offered load and are measured the same way (source emissions per
   wall-clock second):
   - "static": the SpinStreams plan (Algorithm 2 replica degrees) deployed
     from t=0, no controller;
   - "elastic": all degrees start at 1 and the threshold controller resizes
     the running topology between epochs, paying measured drain-and-swap
     downtime.
   Gated: the elastic run must converge to within 15% of the static plan's
   measured throughput, must actually have grown the hot operator, and must
   have measured (charged) a strictly positive reconfiguration downtime.
   Emits BENCH_elastic.json; exits 1 when a gate fails. *)

let elastic_live () =
  section_header
    "Live elasticity — closed loop against the running executor (measured)";
  (* One hot operator at 1.2x the offered load's service budget, so the
     static plan replicates it and the controller must discover the same
     degree online. Load is sized for a single-core host: the gate compares
     configurations under identical conditions, not parallel speedup. *)
  let rate = 200.0 in
  let ops =
    [|
      Operator.source ~rate "src";
      Operator.make ~service_time:0.0003 "pre";
      Operator.make ~service_time:0.006 "hot";
      Operator.make ~service_time:0.0001 "snk";
    |]
  in
  let topo =
    Topology.create_exn ops [ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0) ]
  in
  let instrument =
    {
      Ss_runtime.Executor.default_instrument with
      telemetry = true;
      telemetry_sample = 2;
    }
  in
  let workers = 3 and reserve = 6 in
  let warmup = if !quick then 0.4 else 1.0 in
  let window = if !quick then 1.5 else 3.0 in
  let measure_live live =
    Unix.sleepf warmup;
    let src = Topology.source (Ss_runtime.Executor.Live.topology live) in
    let c0 = (Ss_runtime.Executor.Live.produced live).(src) in
    let t0 = Unix.gettimeofday () in
    Unix.sleepf window;
    let c1 = (Ss_runtime.Executor.Live.produced live).(src) in
    float_of_int (c1 - c0) /. (Unix.gettimeofday () -. t0)
  in
  (* static arm *)
  let plan = Fission.optimize topo in
  let static_topo = plan.Fission.topology in
  let static_degrees =
    Array.map
      (fun (op : Operator.t) -> op.Operator.replicas)
      (Topology.operators static_topo)
  in
  let static_live =
    Ss_codegen.Plan.live ~workers ~reserve ~instrument static_topo
  in
  let static_rate = measure_live static_live in
  let m_static = Ss_runtime.Executor.Live.stop static_live in
  Printf.printf "static plan (degrees %s): %8.1f tuples/s (%s)\n"
    (String.concat "," (Array.to_list (Array.map string_of_int static_degrees)))
    static_rate
    (Format.asprintf "%a" Ss_runtime.Supervision.pp_outcome
       m_static.Ss_runtime.Executor.outcome);
  (* elastic arm *)
  let live = Ss_codegen.Plan.live ~workers ~reserve ~instrument topo in
  let r =
    Ss_elastic.Controller.run_live
      ~epoch_length:(if !quick then 0.5 else 0.8)
      ~max_epochs:(if !quick then 6 else 10)
      ~settle:2 live
  in
  Format.printf "%a@." Ss_elastic.Controller.pp_live r;
  let elastic_final =
    match List.rev r.Ss_elastic.Controller.epochs with
    | e :: _ -> e.Ss_elastic.Controller.rate
    | [] -> 0.0
  in
  let ratio = elastic_final /. Float.max static_rate 1e-9 in
  let hot_degree = r.Ss_elastic.Controller.final_degrees.(2) in
  Printf.printf
    "elastic final: %8.1f tuples/s (%.2fx static), hot degree %d, total \
     downtime %.2f ms\n"
    elastic_final ratio hot_degree
    (r.Ss_elastic.Controller.total_downtime *. 1000.0);
  let json =
    Printf.sprintf
      {|{"section":"elastic","offered_rate":%.1f,"static_rate":%.1f,"elastic_final_rate":%.1f,"ratio":%.3f,"static_degrees":[%s],"final_degrees":[%s],"hot_degree":%d,"total_downtime_s":%.6f,"epochs":%d,"converged_at":%s}|}
      rate static_rate elastic_final ratio
      (String.concat ","
         (Array.to_list (Array.map string_of_int static_degrees)))
      (String.concat ","
         (Array.to_list
            (Array.map string_of_int r.Ss_elastic.Controller.final_degrees)))
      hot_degree r.Ss_elastic.Controller.total_downtime
      (List.length r.Ss_elastic.Controller.epochs)
      (match r.Ss_elastic.Controller.converged_at with
      | Some i -> string_of_int i
      | None -> "null")
  in
  write_bench_json "BENCH_elastic.json" json;
  let failed = ref false in
  if ratio < 0.85 then begin
    Printf.printf
      "FAIL: elastic converged to %.2fx the static plan's measured \
       throughput (>= 0.85x required)\n"
      ratio;
    failed := true
  end;
  if hot_degree < 2 then begin
    Printf.printf
      "FAIL: the controller never grew the hot operator (degree %d, >= 2 \
       required)\n"
      hot_degree;
    failed := true
  end;
  if r.Ss_elastic.Controller.total_downtime <= 0.0 then begin
    Printf.printf
      "FAIL: no reconfiguration downtime was measured (the loop must have \
       reconfigured at least once)\n";
    failed := true
  end;
  if !failed then exit 1

(* ------------------------------------------------------------------ *)
(* Baseline comparison: SpinStreams fusion vs COLA-style packing *)

let cola () =
  section_header
    "Baseline — fusion strategies: SpinStreams (throughput-preserving) vs COLA (capacity packing)";
  Printf.printf "%-6s %6s | %9s %12s | %9s %12s %10s %8s\n" "topo" "ops"
    "SS units" "SS traffic" "PE units" "PE traffic" "t/s loss" "max rho";
  let acc_ss_units = ref 0 and acc_cola_units = ref 0 in
  let acc_ss_traffic = ref 0.0 and acc_cola_traffic = ref 0.0 in
  let acc_base_traffic = ref 0.0 in
  let losses = ref [] in
  let max_rhos = ref [] in
  List.iter
    (fun r ->
      let topology = r.topology in
      let base = r.predicted in
      let target = base.Steady_state.throughput in
      (* SpinStreams: automatic throughput-preserving fusion. *)
      let auto = Fusion.auto topology in
      let ss_units = Topology.size auto.Fusion.final in
      let separate = Array.init ss_units Fun.id in
      let ss_traffic =
        Cola_baseline.crossing_rate auto.Fusion.final
          auto.Fusion.final_analysis ~unit_of:separate
      in
      (* COLA: pack to sustain the achievable steady rate. *)
      let cola = Cola_baseline.partition ~target_rate:target topology in
      let base_traffic =
        Cola_baseline.crossing_rate topology base
          ~unit_of:(Array.init (Topology.size topology) Fun.id)
      in
      let loss =
        Stats.relative_error ~expected:target
          ~actual:(Float.min target cola.Cola_baseline.predicted_throughput)
      in
      acc_ss_units := !acc_ss_units + ss_units;
      acc_cola_units := !acc_cola_units + List.length cola.Cola_baseline.units;
      acc_ss_traffic := !acc_ss_traffic +. ss_traffic;
      acc_cola_traffic := !acc_cola_traffic +. cola.Cola_baseline.inter_unit_rate;
      acc_base_traffic := !acc_base_traffic +. base_traffic;
      losses := loss :: !losses;
      let max_rho = target /. cola.Cola_baseline.predicted_throughput in
      max_rhos := max_rho :: !max_rhos;
      Printf.printf "%-6d %6d | %9d %12.1f | %9d %12.1f %8.1f%% %8.2f\n" r.index
        (Topology.size topology) ss_units ss_traffic
        (List.length cola.Cola_baseline.units)
        cola.Cola_baseline.inter_unit_rate (pct loss) max_rho)
    (Lazy.force original_runs);
  Printf.printf "\ntotals: units %d (SpinStreams) vs %d (COLA)\n" !acc_ss_units
    !acc_cola_units;
  Printf.printf "inter-unit traffic %.0f vs %.0f items/s (unfused total %.0f)\n"
    !acc_ss_traffic !acc_cola_traffic !acc_base_traffic;
  Printf.printf "COLA loss vs achievable rate: mean %.1f%%, max %.1f%%\n"
    (pct (Stats.mean (Array.of_list !losses)))
    (pct (Stats.maximum (Array.of_list !losses)));
  Printf.printf "COLA max PE utilization at the target: mean %.2f of 1.0\n"
    (Stats.mean (Array.of_list !max_rhos));
  print_endline
    "(the two philosophies in one table: COLA packs operators to executor";
  print_endline
    "capacity, minimizing communication but driving PEs toward utilization";
  print_endline
    "1.0 with no headroom; SpinStreams fuses only while the steady state is";
  print_endline "untouched and keeps meta-operators under its utilization cap)"

(* ------------------------------------------------------------------ *)
(* Placement strategies on a cluster (the SPS-side step the paper defers) *)

let placement () =
  section_header
    "Placement — strategies for mapping optimized topologies onto a cluster";
  print_endline
    "Each optimized testbed topology is placed on 4-core nodes (enough nodes";
  print_endline
    "for its total load) with a 20us per-item serialization cost on";
  print_endline
    "node-crossing edges. Throughput retention is relative to a co-located";
  print_endline "(overhead-free) deployment.";
  print_newline ();
  let retention = Hashtbl.create 3 in
  let crossing = Hashtbl.create 3 in
  let strategies =
    [
      ("round-robin", fun c t -> Ss_placement.Placement.round_robin c t);
      ("load-aware", fun c t -> Ss_placement.Placement.load_aware c t);
      ("comm-aware", fun c t -> Ss_placement.Placement.communication_aware c t);
    ]
  in
  List.iter
    (fun (name, _) ->
      Hashtbl.replace retention name [];
      Hashtbl.replace crossing name [])
    strategies;
  List.iter
    (fun (_, _, plan, _) ->
      let topology = plan.Fission.topology in
      let base = plan.Fission.analysis.Steady_state.throughput in
      (* Node work at the achieved rates decides the cluster size. *)
      let total_work =
        Array.fold_left ( +. ) 0.0
          (Array.mapi
             (fun v m ->
               m.Steady_state.arrival_rate
               *. (Topology.operator topology v).Operator.service_time)
             plan.Fission.analysis.Steady_state.metrics)
      in
      let nodes = max 2 (int_of_float (Float.ceil (total_work /. 3.0))) in
      let cluster =
        Ss_placement.Cluster.homogeneous ~nodes ~cores:4 ()
      in
      List.iter
        (fun (name, strategy) ->
          let e =
            Ss_placement.Placement.evaluate cluster topology
              (strategy cluster topology)
          in
          let kept = e.Ss_placement.Placement.analysis.Steady_state.throughput /. base in
          Hashtbl.replace retention name (kept :: Hashtbl.find retention name);
          Hashtbl.replace crossing name
            (e.Ss_placement.Placement.inter_node_rate
             :: Hashtbl.find crossing name))
        strategies)
    (Lazy.force optimized_runs);
  Printf.printf "%-14s %18s %18s %16s\n" "strategy" "mean retention"
    "min retention" "mean crossing/s";
  List.iter
    (fun (name, _) ->
      let kept = Array.of_list (Hashtbl.find retention name) in
      let cross = Array.of_list (Hashtbl.find crossing name) in
      Printf.printf "%-14s %17.1f%% %17.1f%% %16.0f\n" name
        (pct (Stats.mean kept))
        (pct (Stats.minimum kept))
        (Stats.mean cross))
    strategies;
  print_newline ();
  print_endline
    "(communication-aware placement keeps saturated operators away from";
  print_endline
    "node boundaries, preserving the throughput the optimizer planned)"

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks of the core algorithms (bechamel) *)

let micro () =
  section_header "Micro-benchmarks — cost of the optimizer itself (bechamel)";
  let open Bechamel in
  let chain n =
    let ops =
      Array.init n (fun i ->
          Operator.make ~service_time:((1.0 +. float_of_int (i mod 7)) /. 1e4)
            (Printf.sprintf "op%d" i))
    in
    Topology.create_exn ops (List.init (n - 1) (fun i -> (i, i + 1, 1.0)))
  in
  let chain100 = chain 100 in
  let chain1000 = chain 1000 in
  let fig11_topology = fig11 [ 1.0; 1.2; 0.7; 2.0; 1.5; 0.2 ] in
  let random_topo = Random_topology.generate (Rng.create 5) in
  let xml = Ss_xml.Topology_xml.to_string random_topo in
  let sim_small () =
    let config =
      { Ss_sim.Engine.default_config with Ss_sim.Engine.warmup = 0.05; measure = 0.2 }
    in
    ignore (Ss_sim.Engine.run ~config fig11_topology)
  in
  let window = Ss_operators.Window.create ~length:1000 ~slide:10 in
  let skyline_fn =
    Ss_operators.Behavior.instantiate
      (Ss_operators.Spatial_ops.skyline ~length:200 ~slide:1 ())
  in
  let rng = Rng.create 3 in
  let tests =
    [
      Test.make ~name:"steady_state/chain100" (Staged.stage (fun () ->
          ignore (Steady_state.analyze chain100)));
      Test.make ~name:"steady_state/chain1000" (Staged.stage (fun () ->
          ignore (Steady_state.analyze chain1000)));
      Test.make ~name:"steady_state/random" (Staged.stage (fun () ->
          ignore (Steady_state.analyze random_topo)));
      Test.make ~name:"fission/random" (Staged.stage (fun () ->
          ignore (Fission.optimize random_topo)));
      Test.make ~name:"fusion_rate/fig11" (Staged.stage (fun () ->
          ignore (Fusion.service_time fig11_topology [ 2; 3; 4 ])));
      Test.make ~name:"fusion_apply/fig11" (Staged.stage (fun () ->
          ignore (Fusion.apply fig11_topology [ 2; 3; 4 ])));
      Test.make ~name:"xml/parse_random" (Staged.stage (fun () ->
          ignore (Ss_xml.Topology_xml.of_string xml)));
      Test.make ~name:"sim/fig11_0.25s" (Staged.stage sim_small);
      Test.make ~name:"window/push" (Staged.stage (fun () ->
          ignore (Ss_operators.Window.push window 1.0)));
      Test.make ~name:"skyline/tuple" (Staged.stage (fun () ->
          ignore
            (skyline_fn
               (Ss_operators.Tuple.make [| Rng.float rng; Rng.float rng |]))));
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if !quick then 0.25 else 1.0))
      ~stabilize:true ()
  in
  Printf.printf "%-28s %16s\n" "benchmark" "time/run";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      Hashtbl.iter
        (fun name raw ->
          match Analyze.OLS.estimates (Analyze.one ols instance raw) with
          | Some [ ns ] ->
              let time =
                if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
                else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
                else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
                else Printf.sprintf "%.0f ns" ns
              in
              Printf.printf "%-28s %16s\n" name time
          | Some _ | None -> Printf.printf "%-28s %16s\n" name "n/a")
        results)
    tests

(* ------------------------------------------------------------------ *)
(* sched: locality groups on the Chase-Lev lock-free pool. Two views:

   - "idle" (the gate): a steal-light trickle on the raw scheduler API --
     a driver task sleeps between spawns so at most one task is runnable
     and the pool is parked the rest of the time, so every event exercises
     the idle protocol (unpark exactly one worker). The trickle runs on a
     2-group pool with events spread across both groups against the
     ungrouped pool; budget: the grouped pool may not be more than 5%
     slower. Workers are floored at 8 so the park/unpark traffic is
     visible even on small CI hosts, and the metric is events per
     CPU-second: sleeping threads cost nothing, so CPU time isolates the
     wakeup work.
   - "saturated" (reported): the full-speed 50-operator identity testbed
     swept over worker counts, drains pinned to one message per
     activation (`Fixed 1) so per-activation scheduler cost is not
     amortized away by batching, plus the same testbed grouped by the
     2-node communication-aware placement. Not gated: on an
     oversubscribed host multi-worker points measure preemption luck, not
     the scheduler.

   The gated number comes from paired rounds -- the two sides run back to
   back within each round, alternating order, and the score is the median
   of per-pair ratios -- because on a shared host absolute CPU rates drift
   by tens of percent between seconds and any unpaired comparison flakes.
   Emits BENCH_sched.json; exits 1 when the gate fails. *)

let sched () =
  section_header
    "sched -- locality groups on the Chase-Lev pool (idle protocol + \
     50-operator testbed)";
  let cores = Stdlib.max 1 (Domain.recommended_domain_count ()) in
  let topo =
    Random_topology.generate_with_sizes (Rng.create testbed_seed) ~vertices:50
      ~edges:55
  in
  let registry _ = Ss_operators.Stateless_ops.identity in
  let run ?placement ~tuples ~workers t () =
    Ss_runtime.Executor.run ~workers ?placement ~batch:(`Fixed 1)
      ~timeout:300.0
      ~instrument:
        {
          Ss_runtime.Executor.default_instrument with
          sample_occupancy = false;
        }
      ~source:
        (Ss_runtime.Executor.source_of_fn ~count:tuples (fun i ->
             Ss_operators.Tuple.make ~key:i [| float_of_int i |]))
      ~registry t
  in
  (* Work items per CPU second with the trimmed estimator, for reported
     (ungated) absolute rates; see the telemetry section for why wall
     clock is unusable on this host. *)
  let cpu_rate ~units run =
    let rounds = if !quick then 5 else 8 in
    let trim = 1 in
    let cpus =
      Array.init rounds (fun _ ->
          Gc.full_major ();
          let c0 = Sys.time () in
          ignore (run ());
          Float.max (Sys.time () -. c0) 1e-9)
    in
    Array.sort compare cpus;
    let kept = rounds - trim in
    let total = Array.fold_left ( +. ) 0.0 (Array.sub cpus 0 kept) in
    float_of_int (units * kept) /. total
  in
  (* Paired comparison for the gated numbers: returns the median of the
     per-pair rate ratios (A relative to B) plus each side's median
     absolute rate. Order alternates because the second run of a pair
     sees warmer caches and a settled host, a measurable edge. *)
  let paired ~units runA runB =
    let rounds = if !quick then 6 else 8 in
    let cpu run =
      Gc.full_major ();
      let c0 = Sys.time () in
      ignore (run ());
      Float.max (Sys.time () -. c0) 1e-9
    in
    let ca = Array.make rounds 0.0 and cb = Array.make rounds 0.0 in
    for i = 0 to rounds - 1 do
      if i land 1 = 0 then begin
        ca.(i) <- cpu runA;
        cb.(i) <- cpu runB
      end
      else begin
        cb.(i) <- cpu runB;
        ca.(i) <- cpu runA
      end
    done;
    let ratios = Array.init rounds (fun i -> cb.(i) /. ca.(i)) in
    let median a =
      Array.sort compare a;
      (a.((rounds - 1) / 2) +. a.(rounds / 2)) /. 2.0
    in
    let r = median ratios in
    (r, float_of_int units /. median ca, float_of_int units /. median cb)
  in
  Printf.printf "testbed: %d operators as %d actors\n" (Topology.size topo)
    (actor_count topo);
  (* --- Gate: grouped idle trickle within budget of ungrouped --- *)
  let idle_workers = Stdlib.max 8 cores in
  let idle_events = if !quick then 4_000 else 6_000 in
  let idle_pause = 100e-6 in
  let idle_run ~grouped () =
    let pool =
      if grouped then
        Ss_sched.Sched.create ~workers:idle_workers
          ~groups:[| (idle_workers + 1) / 2; idle_workers / 2 |] ()
      else Ss_sched.Sched.create ~workers:idle_workers ()
    in
    let ng = Array.length (Ss_sched.Sched.groups pool) in
    Ss_sched.Sched.spawn pool (fun () ->
        for i = 1 to idle_events do
          Unix.sleepf idle_pause;
          Ss_sched.Sched.spawn ~group:(i mod ng) pool (fun () -> ())
        done);
    Ss_sched.Sched.run pool
  in
  let grouped_ratio, grouped_idle, ungrouped_idle =
    paired ~units:idle_events
      (idle_run ~grouped:true)
      (idle_run ~grouped:false)
  in
  let grouped_regression_pct = 100.0 *. (1.0 -. grouped_ratio) in
  let per_event r = 1e6 /. r in
  Printf.printf
    "idle protocol (steal-light trickle, %d workers, %d events, %.0fus \
     pause):\n"
    idle_workers idle_events (idle_pause *. 1e6);
  Printf.printf "  ungrouped pool:   %10.0f events/CPU-s (%5.1f us/event)\n"
    ungrouped_idle (per_event ungrouped_idle);
  Printf.printf
    "  2-group pool:     %10.0f events/CPU-s (regression %.1f%%, gate: <= \
     5%%)\n"
    grouped_idle grouped_regression_pct;
  (* --- Reported: saturated testbed sweep --- *)
  let sat_tuples = if !quick then 3_000 else 15_000 in
  let sweep_counts =
    List.sort_uniq compare
      (if !quick then [ 1; 2; cores ] else [ 1; 2; 4; cores ])
  in
  let sweep =
    List.map
      (fun w ->
        (w, cpu_rate ~units:sat_tuples (run ~tuples:sat_tuples ~workers:w topo)))
      sweep_counts
  in
  Printf.printf "saturated sweep (%d tuples, batch=1, reported):\n" sat_tuples;
  List.iter
    (fun (w, r) -> Printf.printf "  %d workers:  %10.0f tuples/CPU-s\n" w r)
    sweep;
  (* Locality groups on the saturated testbed: partition with the 2-node
     communication-aware placement and pin each vertex's actors to the
     matching worker group (reported; the gated grouped number is the
     idle trickle above). *)
  let grouped_groups = 2 in
  let assignment =
    let cluster =
      Ss_placement.Cluster.homogeneous ~nodes:grouped_groups
        ~cores:(Stdlib.max 1 (idle_workers / grouped_groups)) ()
    in
    Ss_placement.Placement.communication_aware cluster topo
  in
  let sat_grouped_ratio, sat_grouped, sat_ungrouped =
    paired ~units:sat_tuples
      (run ~tuples:sat_tuples ~placement:assignment ~workers:idle_workers topo)
      (run ~tuples:sat_tuples ~workers:idle_workers topo)
  in
  Printf.printf
    "locality groups on the saturated testbed (%d groups, %d workers, \
     communication-aware placement, reported):\n"
    grouped_groups idle_workers;
  Printf.printf "  grouped:          %10.0f tuples/CPU-s\n" sat_grouped;
  Printf.printf "  ungrouped:        %10.0f tuples/CPU-s (ratio %.2fx)\n"
    sat_ungrouped sat_grouped_ratio;
  (* Context: the fissioned topology the pool exists for; one wall-clock
     run. *)
  let fissioned = (Fission.optimize topo).Fission.topology in
  let fission_actors = actor_count fissioned in
  let m_fpool = run ~tuples:sat_tuples ~workers:cores fissioned () in
  let fission_rate = m_fpool.Ss_runtime.Executor.source_rate in
  Printf.printf
    "fissioned topology (%d actors) on the pool: %10.0f tuples/s (%s)\n"
    fission_actors fission_rate
    (Format.asprintf "%a" Ss_runtime.Supervision.pp_outcome
       m_fpool.Ss_runtime.Executor.outcome);
  let json =
    Printf.sprintf
      {|{"section":"sched","cores":%d,"grouped_regression_pct":%.2f,"idle":{"workers":%d,"events":%d,"pause_us":%.0f,"ungrouped_rate":%.1f,"grouped_rate":%.1f,"grouped_ratio":%.3f},"saturated":{"tuples":%d,"sweep":[%s],"grouped":{"groups":%d,"workers":%d,"grouped_rate":%.1f,"ungrouped_rate":%.1f,"ratio":%.3f}},"fission":{"actors":%d,"pool_rate":%.1f}}|}
      cores grouped_regression_pct idle_workers idle_events
      (idle_pause *. 1e6)
      ungrouped_idle grouped_idle grouped_ratio sat_tuples
      (String.concat ","
         (List.map
            (fun (w, r) -> Printf.sprintf {|{"workers":%d,"rate":%.1f}|} w r)
            sweep))
      grouped_groups idle_workers sat_grouped sat_ungrouped sat_grouped_ratio
      fission_actors fission_rate
  in
  write_bench_json "BENCH_sched.json" json;
  if grouped_regression_pct > 5.0 then begin
    Printf.printf
      "FAIL: 2-group pool regresses the idle trickle by %.1f%% (budget 5%%)\n"
      grouped_regression_pct;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* telemetry: cost of runtime telemetry on the 50-operator identity testbed
   (worst case: the per-tuple work is almost pure dispatch, so the two
   clock reads and three histogram/counter updates per hop are maximally
   visible) and predicted-vs-measured latency on the Fig. 11 pipeline.
   Emits BENCH_telemetry.json and fails (exit 1) when telemetry costs more
   than 10% throughput. *)

let telemetry_bench () =
  section_header
    "telemetry — instrumentation overhead (50-operator testbed) and \
     predicted vs measured latency (Fig. 11)";
  let module H = Ss_telemetry.Histogram in
  let tuples = if !quick then 10_000 else 50_000 in
  let topo =
    Random_topology.generate_with_sizes (Rng.create testbed_seed) ~vertices:50
      ~edges:55
  in
  let registry _ = Ss_operators.Stateless_ops.identity in
  let workers = Stdlib.max 1 (Domain.recommended_domain_count ()) in
  let run ~telemetry =
    Ss_runtime.Executor.run ~workers ~timeout:300.0
      ~instrument:
        { Ss_runtime.Executor.default_instrument with
          sample_occupancy = false; telemetry }
      ~source:
        (Ss_runtime.Executor.source_of_fn ~count:tuples (fun i ->
             Ss_operators.Tuple.make ~key:i [| float_of_int i |]))
      ~registry topo
  in
  (* Overhead is computed on process-CPU-time throughput, not wall clock:
     this host throttles the container on a sub-run timescale, so wall-clock
     rates of identical runs swing 2x and even back-to-back off/on pairs do
     not see the same machine. Throttled time burns no CPU, so tuples per
     CPU second is stable, and the overhead ratio measures exactly what the
     guard cares about — extra cycles per tuple. CPU-time noise is
     one-sided (interrupts, GC variance, scheduler crosstalk only ever add
     cycles), so each side drops its slowest rounds and averages the rest —
     a trimmed version of the standard min-time estimator that is stable on
     a noisy virtualized host. *)
  let timed_run ~telemetry =
    (* Pay any outstanding GC debt before the clock starts, so a run is not
       billed for garbage its predecessor left behind. *)
    Gc.full_major ();
    let c0 = Sys.time () in
    let m = run ~telemetry in
    let cpu = Float.max (Sys.time () -. c0) 1e-9 in
    (m, cpu)
  in
  let rounds = if !quick then 15 else 12 in
  let trim = 2 in
  let pairs =
    Array.init rounds (fun _ ->
        let off = timed_run ~telemetry:false in
        let on = timed_run ~telemetry:true in
        (off, on))
  in
  let trimmed_rate side =
    let cpus = Array.map (fun p -> snd (side p)) pairs in
    Array.sort compare cpus;
    let kept = rounds - trim in
    let total = Array.fold_left ( +. ) 0.0 (Array.sub cpus 0 kept) in
    float_of_int (tuples * kept) /. total
  in
  let rate_off = trimmed_rate fst in
  let rate_on = trimmed_rate snd in
  let m_on = fst (snd pairs.(rounds - 1)) in
  let overhead_pct = 100.0 *. (1.0 -. (rate_on /. rate_off)) in
  Printf.printf
    "testbed (%d ops, %d tuples, pool of %d, %d rounds per side, slowest %d \
     dropped):\n"
    (Topology.size topo) tuples workers rounds trim;
  Printf.printf "  telemetry off: %10.0f tuples/CPU-s\n" rate_off;
  Printf.printf "  telemetry on:  %10.0f tuples/CPU-s (overhead %.1f%%)\n"
    rate_on overhead_pct;
  let report =
    match m_on.Ss_runtime.Executor.telemetry with
    | Some r -> r
    | None -> failwith "telemetry run returned no report"
  in
  let merged = H.create () in
  Array.iter
    (fun h -> H.merge_into ~into:merged h)
    report.Ss_telemetry.Telemetry.latency;
  let snap = H.snapshot merged in
  Printf.printf
    "  tuple age over all operators: p50 %.3f ms, p95 %.3f ms, p99 %.3f \
     ms, max %.3f ms (%d samples)\n"
    (snap.H.p50 *. 1e3) (snap.H.p95 *. 1e3) (snap.H.p99 *. 1e3)
    (snap.H.max *. 1e3) snap.H.count;
  (* Fig. 11: the simulator's predicted latency distribution against the
     runtime's measured one, same measurement point (tuple age at behavior
     start), bottom-line data for the observability experiment. The runtime
     twin uses sleeping (not busy-waiting) behaviors, one pool worker per
     actor (a sleeping behavior holds its worker) and a source paced at its
     declared service time, so even a single core can emulate the
     dedicated-server queueing network the simulator models; mailbox
     capacity matches the simulator's buffers. *)
  let fig11_topology = fig11 [ 1.0; 1.2; 0.7; 2.0; 1.5; 0.2 ] in
  let sim =
    Ss_sim.Engine.run
      ~config:{ (sim_config ()) with Ss_sim.Engine.track_latency = true }
      fig11_topology
  in
  let sleep_registry v =
    let op = Topology.operator fig11_topology v in
    Ss_operators.Behavior.make ~name:op.Operator.name
      ~input_selectivity:op.Operator.input_selectivity
      ~output_selectivity:op.Operator.output_selectivity
      (fun () ->
        let credit = ref 0.0 in
        fun t ->
          Unix.sleepf op.Operator.service_time;
          credit := !credit +. Operator.selectivity_factor op;
          let k = int_of_float !credit in
          credit := !credit -. float_of_int k;
          List.init k (fun _ -> t))
  in
  let fig_tuples = if !quick then 1_000 else 2_000 in
  let src_service =
    (Topology.operator fig11_topology (Topology.source fig11_topology))
      .Operator.service_time
  in
  let m_fig =
    Ss_runtime.Executor.run
      ~workers:(actor_count fig11_topology)
      ~timeout:300.0
      ~mailbox_capacity:(sim_config ()).Ss_sim.Engine.buffer_capacity
      ~instrument:
        {
          Ss_runtime.Executor.sample_occupancy = false;
          telemetry = true;
          telemetry_sample = 1;
        }
      ~source:
        (Ss_runtime.Executor.source_of_fn ~count:fig_tuples (fun i ->
             Unix.sleepf src_service;
             Ss_operators.Tuple.make ~key:i [| float_of_int i |]))
      ~registry:sleep_registry fig11_topology
  in
  let fig_report =
    match m_fig.Ss_runtime.Executor.telemetry with
    | Some r -> r
    | None -> failwith "fig11 telemetry run returned no report"
  in
  let sim_lat =
    match sim.Ss_sim.Engine.latency with
    | Some l -> l
    | None -> failwith "simulation returned no latency histograms"
  in
  Printf.printf
    "fig11 latency, predicted (simulator) vs measured (runtime, %d \
     tuples):\n%-10s %12s %12s %12s %12s\n"
    fig_tuples "operator" "pred p50" "meas p50" "pred p95" "meas p95";
  let fig_rows = ref [] in
  Array.iteri
    (fun v h_meas ->
      let h_pred = sim_lat.(v) in
      if not (H.is_empty h_meas) && not (H.is_empty h_pred) then begin
        let p = H.snapshot h_pred and m = H.snapshot h_meas in
        let name = (Topology.operator fig11_topology v).Operator.name in
        Printf.printf "%-10s %9.2f ms %9.2f ms %9.2f ms %9.2f ms\n" name
          (p.H.p50 *. 1e3) (m.H.p50 *. 1e3) (p.H.p95 *. 1e3)
          (m.H.p95 *. 1e3);
        fig_rows :=
          Printf.sprintf
            {|{"operator":"%s","pred_p50_ms":%.3f,"meas_p50_ms":%.3f,"pred_p95_ms":%.3f,"meas_p95_ms":%.3f}|}
            name (p.H.p50 *. 1e3) (m.H.p50 *. 1e3) (p.H.p95 *. 1e3)
            (m.H.p95 *. 1e3)
          :: !fig_rows
      end)
    fig_report.Ss_telemetry.Telemetry.latency;
  let json =
    Printf.sprintf
      {|{"section":"telemetry","tuples":%d,"workers":%d,"rounds":%d,"rate_off":%.1f,"rate_on":%.1f,"overhead_pct":%.2f,"latency_ms":{"p50":%.3f,"p95":%.3f,"p99":%.3f,"max":%.3f,"count":%d},"fig11":[%s]}|}
      tuples workers rounds rate_off rate_on overhead_pct
      (snap.H.p50 *. 1e3) (snap.H.p95 *. 1e3) (snap.H.p99 *. 1e3)
      (snap.H.max *. 1e3) snap.H.count
      (String.concat "," (List.rev !fig_rows))
  in
  write_bench_json "BENCH_telemetry.json" json;
  if overhead_pct > 10.0 then begin
    Printf.printf
      "FAIL: telemetry overhead %.1f%% exceeds the 10%% budget\n" overhead_pct;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* mailbox: the occupancy-driven adaptive drain against fixed batch sizes
   on a 1 -> 1 pipeline, plus executor-level rates on the 50-operator
   testbed and Fig. 11 under the default channels. Emits
   BENCH_mailbox.json; it carries no gate. The per-operation price of each
   ring is the benchmark's [mailbox.*_put_take_ns] layer. *)

let mailbox_bench () =
  section_header "mailbox — fixed vs adaptive drains, executor rates";
  let cores = Stdlib.max 1 (Domain.recommended_domain_count ()) in
  (* Executor-level comparisons use tuples per CPU second with the trimmed
     estimator (see the telemetry section for why wall clock is unusable on
     this host). *)
  let cpu_rate ~tuples run =
    let rounds = if !quick then 5 else 8 in
    let trim = 1 in
    let cpus =
      Array.init rounds (fun _ ->
          Gc.full_major ();
          let c0 = Sys.time () in
          ignore (run ());
          Float.max (Sys.time () -. c0) 1e-9)
    in
    Array.sort compare cpus;
    let kept = rounds - trim in
    let total = Array.fold_left ( +. ) 0.0 (Array.sub cpus 0 kept) in
    float_of_int (tuples * kept) /. total
  in
  let registry _ = Ss_operators.Stateless_ops.identity in
  let source tuples =
    Ss_runtime.Executor.source_of_fn ~count:tuples (fun i ->
        Ss_operators.Tuple.make ~key:i [| float_of_int i |])
  in
  let run ?batch ~tuples topo () =
    Ss_runtime.Executor.run ~workers:cores ?batch
      ~timeout:300.0
      ~instrument:
        {
          Ss_runtime.Executor.default_instrument with
          sample_occupancy = false;
        }
      ~source:(source tuples) ~registry topo
  in
  (* A pure 1 -> 1 pipeline: every edge rides the SPSC ring. *)
  let pipeline =
    let ops =
      Array.init 5 (fun i ->
          Operator.make ~service_time:1e-6 (Printf.sprintf "p%d" i))
    in
    Topology.create_exn ops (List.init 4 (fun i -> (i, i + 1, 1.0)))
  in
  let ptuples = if !quick then 10_000 else 40_000 in
  let pipe_rate = cpu_rate ~tuples:ptuples (run ~tuples:ptuples pipeline) in
  Printf.printf "1->1 pipeline, executor pool of %d (%d tuples):\n" cores
    ptuples;
  Printf.printf "  default drains: %10.0f tuples/CPU-s\n" pipe_rate;
  (* Fixed-vs-adaptive drain sweep on the same pipeline. *)
  let sweep_points =
    [
      ("fixed1", `Fixed 1);
      ("fixed8", `Fixed 8);
      ("fixed32", `Fixed 32);
      ("adaptive32", `Adaptive 32);
    ]
  in
  let sweep =
    List.map
      (fun (name, batch) ->
        (name, cpu_rate ~tuples:ptuples (run ~batch ~tuples:ptuples pipeline)))
      sweep_points
  in
  Printf.printf "drain-policy sweep (1->1 pipeline):\n";
  List.iter
    (fun (name, r) -> Printf.printf "  %-12s %10.0f tuples/CPU-s\n" name r)
    sweep;
  (* The 50-operator testbed of the sched section: the mixed case, with
     fan-in entries and fission merge points on the MPSC ring. *)
  let testbed_topo =
    Random_topology.generate_with_sizes (Rng.create testbed_seed) ~vertices:50
      ~edges:55
  in
  let ttuples = if !quick then 5_000 else 30_000 in
  let tb_rate = cpu_rate ~tuples:ttuples (run ~tuples:ttuples testbed_topo) in
  Printf.printf "50-operator testbed (%d tuples): %10.0f tuples/CPU-s\n"
    ttuples tb_rate;
  (* Fig. 11 tuples per CPU second — the paper topology's bottom line,
     recorded so later changes can be held to it. *)
  let fig11_topology = fig11 [ 1.0; 1.2; 0.7; 2.0; 1.5; 0.2 ] in
  let ftuples = if !quick then 10_000 else 40_000 in
  let fig11_rate =
    cpu_rate ~tuples:ftuples (run ~tuples:ftuples fig11_topology)
  in
  Printf.printf "fig11 topology: %10.0f tuples/CPU-s\n" fig11_rate;
  let json =
    Printf.sprintf
      {|{"section":"mailbox","cores":%d,"pipeline":{"tuples":%d,"rate":%.1f},"sweep":[%s],"testbed":{"tuples":%d,"rate":%.1f},"fig11":{"tuples":%d,"rate":%.1f}}|}
      cores ptuples pipe_rate
      (String.concat ","
         (List.map
            (fun (name, r) ->
              Printf.sprintf {|{"batch":"%s","rate":%.1f}|} name r)
            sweep))
      ttuples tb_rate ftuples fig11_rate
  in
  write_bench_json "BENCH_mailbox.json" json

(* ------------------------------------------------------------------ *)
(* log: the durable sharded ingest path (lib/log). Measures ingest MB/s
   under each fsync policy, read-path replay throughput, torn-tail
   recovery time on reopen, and replay of an uncommitted consumer-group
   suffix. Emits BENCH_log.json and fails (exit 1) when group commit
   ([Every 256]) does not amortize fsyncs to at least 5x the per-record
   ([Every 1]) ingest rate. *)

let log_bench () =
  let module L = Ss_log.Log in
  Printf.printf "\n=== log: durable sharded ingest (lib/log) ===\n\n";
  let records = if !quick then 5_000 else 50_000 in
  (* Per-record fsync pays one fsync per append; fewer records keep the
     wall time bounded without changing the measured rate. *)
  let sync_records = if !quick then 300 else 2_000 in
  let payload_bytes = 128 in
  let payload = Bytes.make payload_bytes 'x' in
  let rec rm_rf path =
    match Unix.lstat path with
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
    | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
        Unix.rmdir path
    | _ -> Unix.unlink path
  in
  let scratch = ref [] in
  let fresh_dir tag =
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "ss_bench_log_%s_%d" tag (Unix.getpid ()))
    in
    rm_rf d;
    scratch := d :: !scratch;
    d
  in
  let ingest ~fsync ~n tag =
    let dir = fresh_dir tag in
    let log = L.create ~config:{ L.default_config with L.fsync } dir in
    let t0 = Unix.gettimeofday () in
    for i = 0 to n - 1 do
      ignore (L.append log ~key:i payload)
    done;
    L.sync log;
    let dt = Float.max (Unix.gettimeofday () -. t0) 1e-9 in
    let mb_s = float_of_int (L.size_bytes log) /. dt /. 1e6 in
    L.close log;
    (mb_s, dir)
  in
  let mb_every1, _ = ingest ~fsync:(L.Every 1) ~n:sync_records "every1" in
  Printf.printf "ingest fsync=every:1     %8.1f MB/s  (%d records)\n" mb_every1
    sync_records;
  let mb_every256, batched_dir =
    ingest ~fsync:(L.Every 256) ~n:records "every256"
  in
  Printf.printf "ingest fsync=every:256   %8.1f MB/s  (%d records)\n"
    mb_every256 records;
  let mb_interval, _ = ingest ~fsync:(L.Interval 0.01) ~n:records "interval" in
  Printf.printf "ingest fsync=interval:10 %8.1f MB/s  (%d records)\n"
    mb_interval records;
  let mb_never, never_dir = ingest ~fsync:L.Never ~n:records "never" in
  Printf.printf "ingest fsync=never       %8.1f MB/s  (%d records)\n" mb_never
    records;
  let batched_ratio = mb_every256 /. Float.max mb_every1 1e-9 in
  Printf.printf "group commit amortization: %.1fx per-record fsync\n\n"
    batched_ratio;
  (* Replay: reopen the batched log and stream every partition back. *)
  let replay_log = L.create batched_dir in
  let t0 = Unix.gettimeofday () in
  let replayed = ref 0 in
  for p = 0 to L.partitions replay_log - 1 do
    let cursor = ref 0 in
    let rec drain () =
      match L.read replay_log ~partition:p ~from:!cursor ~max_records:1024 () with
      | [] -> ()
      | batch ->
          replayed := !replayed + List.length batch;
          cursor := fst (List.nth batch (List.length batch - 1)) + 1;
          drain ()
    in
    drain ()
  done;
  let replay_dt = Float.max (Unix.gettimeofday () -. t0) 1e-9 in
  let replay_mb_s = float_of_int (L.size_bytes replay_log) /. replay_dt /. 1e6 in
  let replay_rate = float_of_int !replayed /. replay_dt in
  Printf.printf "replay: %d records in %.3fs  (%.1f MB/s, %.0f records/s)\n"
    !replayed replay_dt replay_mb_s replay_rate;
  (* Recovery-replay: commit a mid-stream position for a consumer group
     and measure redelivery of the uncommitted suffix — the work a
     restarted pipeline performs before it is caught up. *)
  let suffix = ref 0 in
  let t0 = Unix.gettimeofday () in
  for p = 0 to L.partitions replay_log - 1 do
    let fin = L.end_offset replay_log ~partition:p in
    L.commit replay_log ~group:"bench" ~partition:p (fin / 2);
    let cursor = ref (L.committed replay_log ~group:"bench" ~partition:p) in
    let rec drain () =
      match L.read replay_log ~partition:p ~from:!cursor ~max_records:1024 () with
      | [] -> ()
      | batch ->
          suffix := !suffix + List.length batch;
          cursor := fst (List.nth batch (List.length batch - 1)) + 1;
          drain ()
    in
    drain ()
  done;
  let suffix_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  L.close replay_log;
  Printf.printf "recovery replay: %d uncommitted records in %.2fms\n" !suffix
    suffix_ms;
  (* Torn tail: chop bytes off one partition's final segment (a crash
     mid-append) and time the reopen that detects and truncates it. *)
  let p0 = Filename.concat never_dir "p0" in
  let segs =
    Sys.readdir p0 |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".seg")
    |> List.sort compare
  in
  let last_seg = Filename.concat p0 (List.nth segs (List.length segs - 1)) in
  let fd = Unix.openfile last_seg [ Unix.O_WRONLY ] 0o644 in
  let len = (Unix.fstat fd).Unix.st_size in
  Unix.ftruncate fd (len - 3);
  Unix.close fd;
  let t0 = Unix.gettimeofday () in
  let recovered = L.create never_dir in
  let reopen_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  let torn = L.torn_tails_recovered recovered in
  L.close recovered;
  Printf.printf "torn-tail recovery: reopen %.2fms, %d tail(s) truncated\n"
    reopen_ms torn;
  List.iter rm_rf !scratch;
  let json =
    Printf.sprintf
      {|{"section":"log","records":%d,"payload_bytes":%d,"ingest_mb_s":{"every1":%.2f,"every256":%.2f,"interval_10ms":%.2f,"never":%.2f},"batched_vs_per_record":%.2f,"replay":{"records":%d,"mb_s":%.2f,"records_s":%.1f},"recovery":{"suffix_records":%d,"suffix_replay_ms":%.2f,"torn_tails":%d,"reopen_ms":%.2f}}|}
      records payload_bytes mb_every1 mb_every256 mb_interval mb_never
      batched_ratio !replayed replay_mb_s replay_rate !suffix suffix_ms torn
      reopen_ms
  in
  write_bench_json "BENCH_log.json" json;
  let failed = ref false in
  if batched_ratio < 5.0 then begin
    Printf.printf
      "FAIL: group commit only %.1fx per-record fsync (>= 5x required)\n"
      batched_ratio;
    failed := true
  end;
  if torn < 1 then begin
    Printf.printf "FAIL: torn tail was not detected on reopen\n";
    failed := true
  end;
  if !failed then exit 1

(* ------------------------------------------------------------------ *)
(* event: event-time watermarks under disordered input.

   One pipeline (source -> keyed 1s tumbling count window -> sink), one
   bursty disordered stream (about 12.8% of tuples arrive behind the
   running max timestamp, positional delays up to 64 tuples = 64ms of
   event time), a bounded-out-of-orderness watermark that covers the
   disorder (100ms > 64ms). Three claims, each gated:

   - overhead: in-band watermarks are cheap. Paired rounds (same stream,
     event time off vs on), median of per-pair CPU ratios; the event-time
     run must sustain >= 0.8x the processing-time rate.
   - zero on-time loss: with the bound covering the disorder no tuple is
     late, and the Count aggregate conserves mass — the sum of fired
     window counts equals the number of tuples emitted (the end-of-stream
     infinity watermark flushes the tail windows).
   - prediction: the watermark-driven firing selectivity
     keys / (rate * slide) predicts the window's measured output rate
     (fired tuples per second of event time) within 15% — the Fig. 11
     methodology applied to the event-time tier.

   Emits BENCH_event.json; exits 1 when a gate fails. *)

let event_bench () =
  section_header
    "event -- watermark propagation under disordered input (measured)";
  let rate = 1000.0 and keys = 64 and n = if !quick then 20_000 else 60_000 in
  let slide = 1.0 in
  let burst = 32 and period = 256 in
  let disorder = Stream_gen.Bursty { burst; period } in
  let bound = 0.1 in
  let spec = { Stream_gen.default_spec with Stream_gen.rate } in
  let stream =
    let rng = Rng.create 7 in
    Stream_gen.reorder rng disorder (Stream_gen.tuples ~spec rng n)
  in
  let disorder_fraction = Stream_gen.disorder_fraction stream in
  Printf.printf "stream: %d tuples at %.0f t/s event time, %.1f%% disordered\n"
    n rate (pct disorder_fraction);
  (* Sink behavior summing the integer Count aggregates it receives; the
     sink is one actor, and the executor's join publishes the final value. *)
  let sunk = Atomic.make 0 in
  let sink_behavior =
    Ss_operators.Behavior.make ~name:"count_sink" (fun () t ->
        (match t.Ss_operators.Tuple.values with
        | [| v |] -> ignore (Atomic.fetch_and_add sunk (int_of_float v))
        | _ -> ());
        [])
  in
  let window_behavior =
    Ss_event.Event_window.behavior ~agg:Ss_event.Event_window.Count
      ~length:slide ~slide ()
  in
  let registry = function
    | 1 -> window_behavior
    | 2 -> sink_behavior
    | _ -> Ss_operators.Stateless_ops.identity
  in
  let ops =
    [|
      Operator.source ~rate "src";
      Ss_event.Event_model.window_operator ~name:"ewin" ~keys ~rate ~slide
        ~service_time:5e-6 ();
      Operator.make ~service_time:1e-6 "snk";
    |]
  in
  let topo = Topology.create_exn ops [ (0, 1, 1.0); (1, 2, 1.0) ] in
  let event_time =
    Ss_event.Event_time.config (Ss_event.Watermark.Bounded bound)
  in
  let run ?event_time () =
    Ss_runtime.Executor.run ?event_time ~timeout:120.0
      ~instrument:
        {
          Ss_runtime.Executor.default_instrument with
          sample_occupancy = false;
        }
      ~source:(Ss_runtime.Executor.source_of_list stream)
      ~registry topo
  in
  (* Correctness run: late count and mass conservation are deterministic. *)
  Atomic.set sunk 0;
  let m = run ~event_time () in
  let late = Array.fold_left ( + ) 0 m.Ss_runtime.Executor.late in
  let on_time_loss = n - Atomic.get sunk in
  let fired = m.Ss_runtime.Executor.produced.(1) in
  let span = float_of_int n /. rate in
  let measured_out = float_of_int fired /. span in
  let predicted_out =
    Ss_event.Event_model.predicted_output_rate ~keys ~rate ~slide ()
  in
  let prediction_error =
    Stats.relative_error ~expected:predicted_out ~actual:measured_out
  in
  Printf.printf
    "event-time run: %d late, %d window firings (sum of counts %d of %d \
     emitted)\n"
    late fired (Atomic.get sunk) n;
  Printf.printf
    "window output rate: %.1f fired/s of event time (predicted %.1f, error \
     %.2f%%)\n"
    measured_out predicted_out (pct prediction_error);
  (* Overhead: paired rounds, median of per-pair CPU-time ratios (absolute
     rates drift on a shared host; pairs cancel the drift). *)
  let rounds = if !quick then 5 else 7 in
  let cpu run =
    Gc.full_major ();
    let c0 = Sys.time () in
    ignore (run ());
    Float.max (Sys.time () -. c0) 1e-9
  in
  let c_off = Array.make rounds 0.0 and c_on = Array.make rounds 0.0 in
  for i = 0 to rounds - 1 do
    if i land 1 = 0 then begin
      c_off.(i) <- cpu (fun () -> run ());
      c_on.(i) <- cpu (fun () -> run ~event_time ())
    end
    else begin
      c_on.(i) <- cpu (fun () -> run ~event_time ());
      c_off.(i) <- cpu (fun () -> run ())
    end
  done;
  let median a =
    let a = Array.copy a in
    Array.sort compare a;
    (a.((rounds - 1) / 2) +. a.(rounds / 2)) /. 2.0
  in
  let ratios = Array.init rounds (fun i -> c_off.(i) /. c_on.(i)) in
  let ratio = median ratios in
  let rate_processing = float_of_int n /. median c_off in
  let rate_event = float_of_int n /. median c_on in
  Printf.printf
    "throughput: %.0f t/CPU-s processing time, %.0f t/CPU-s event time \
     (%.2fx, gate >= 0.8x)\n"
    rate_processing rate_event ratio;
  let json =
    Printf.sprintf
      {|{"section":"event","tuples":%d,"event_rate":%.1f,"keys":%d,"slide_s":%.3f,"watermark_bound_s":%.3f,"disorder_fraction":%.4f,"rate_processing":%.1f,"rate_event":%.1f,"ratio":%.3f,"late":%d,"on_time_loss":%d,"fired":%d,"predicted_out":%.2f,"measured_out":%.2f,"prediction_error":%.4f}|}
      n rate keys slide bound disorder_fraction rate_processing rate_event
      ratio late on_time_loss fired predicted_out measured_out
      prediction_error
  in
  write_bench_json "BENCH_event.json" json;
  let failed = ref false in
  if ratio < 0.8 then begin
    Printf.printf
      "FAIL: event-time run sustains only %.2fx the processing-time rate \
       (>= 0.8x required)\n"
      ratio;
    failed := true
  end;
  if late <> 0 then begin
    Printf.printf
      "FAIL: %d tuples counted late although the watermark bound covers \
       the disorder\n"
      late;
    failed := true
  end;
  if on_time_loss <> 0 then begin
    Printf.printf
      "FAIL: %d on-time tuples lost (window counts do not conserve mass)\n"
      on_time_loss;
    failed := true
  end;
  if prediction_error > 0.15 then begin
    Printf.printf
      "FAIL: firing-selectivity prediction off by %.1f%% (<= 15%% required)\n"
      (pct prediction_error);
    failed := true
  end;
  if !failed then exit 1

(* ------------------------------------------------------------------ *)
(* fusion -- compiled closed-loop fused chains vs the interpreted
   meta-operator (Algorithm 4 walk) vs no fusion at all, on a fusable
   linear chain of catalog identity operators. The gated number is the
   compiled-vs-interpreted CPU-rate ratio from paired alternating rounds
   (median of per-pair ratios, like the sched bench): the closed loop must
   be at least 2x the interpreted walk. Counts are asserted identical
   across all three executions before anything is timed. Emits
   BENCH_fusion.json; exits 1 when the gate fails. *)

let fusion_bench () =
  section_header
    "fusion -- compiled closed-loop fused chain vs interpreted meta-operator";
  let members = 24 in
  let tuples = if !quick then 40_000 else 200_000 in
  let n = members + 1 in
  let ops =
    Array.init n (fun v ->
        if v = 0 then Operator.source ~rate:1e6 "src"
        else Operator.make ~service_time:1e-8 (Printf.sprintf "identity#%d" v))
  in
  let edges = List.init members (fun i -> (i, i + 1, 1.0)) in
  let topo = Topology.create_exn ops edges in
  let chain = List.init members (fun i -> i + 1) in
  let registry _ = Ss_operators.Stateless_ops.identity in
  (* Big fixed drains and a deep source mailbox keep the source->meta
     handoff (identical on both sides of the gate) from diluting the
     per-member ratio under measurement. *)
  let run ?fused ?fusion () =
    Ss_runtime.Executor.run ?fused ?fusion ~workers:2
      ~mailbox_capacity:1024 ~batch:(`Fixed 256)
      ~instrument:
        {
          Ss_runtime.Executor.default_instrument with
          telemetry = false;
          sample_occupancy = false;
        }
      ~source:
        (Ss_runtime.Executor.source_of_fn ~count:tuples (fun i ->
             Ss_operators.Tuple.make ~key:i [| float_of_int i |]))
      ~registry topo
  in
  let run_compiled () = run ~fused:[ chain ] ~fusion:`Compiled () in
  let run_interpreted () = run ~fused:[ chain ] ~fusion:`Interpreted () in
  let run_unfused () = run () in
  (* Count parity first: the optimization must be unobservable. *)
  let counts m = m.Ss_runtime.Executor.consumed in
  let c_compiled = counts (run_compiled ()) in
  let c_interpreted = counts (run_interpreted ()) in
  let c_unfused = counts (run_unfused ()) in
  if c_compiled <> c_interpreted || c_compiled <> c_unfused then begin
    Printf.printf
      "FAIL: per-vertex counts differ across fusion modes (compiled %s, \
       interpreted %s, unfused %s)\n"
      (String.concat ","
         (Array.to_list (Array.map string_of_int c_compiled)))
      (String.concat ","
         (Array.to_list (Array.map string_of_int c_interpreted)))
      (String.concat "," (Array.to_list (Array.map string_of_int c_unfused)));
    exit 1
  end;
  (* Paired alternating CPU-time rounds; the score is the median of the
     per-pair ratios, same estimator as the sched gates (absolute rates on
     this host drift too much for unpaired comparisons). *)
  let paired ~units runA runB =
    let rounds = if !quick then 6 else 8 in
    let cpu run =
      Gc.full_major ();
      let c0 = Sys.time () in
      ignore (run ());
      Float.max (Sys.time () -. c0) 1e-9
    in
    let ca = Array.make rounds 0.0 and cb = Array.make rounds 0.0 in
    for i = 0 to rounds - 1 do
      if i land 1 = 0 then begin
        ca.(i) <- cpu runA;
        cb.(i) <- cpu runB
      end
      else begin
        cb.(i) <- cpu runB;
        ca.(i) <- cpu runA
      end
    done;
    let ratios = Array.init rounds (fun i -> cb.(i) /. ca.(i)) in
    let median a =
      Array.sort compare a;
      (a.((rounds - 1) / 2) +. a.(rounds / 2)) /. 2.0
    in
    let r = median ratios in
    (r, float_of_int units /. median ca, float_of_int units /. median cb)
  in
  let speedup, compiled_rate, interpreted_rate =
    paired ~units:tuples run_compiled run_interpreted
  in
  let fused_gain, _, unfused_rate =
    paired ~units:tuples run_interpreted run_unfused
  in
  Printf.printf "chain: %d identity members, %d tuples\n" members tuples;
  Printf.printf "compiled closed loop:     %11.1f tuples/cpu-s\n" compiled_rate;
  Printf.printf "interpreted meta-op walk: %11.1f tuples/cpu-s\n"
    interpreted_rate;
  Printf.printf "unfused (%2d actors):      %11.1f tuples/cpu-s\n" (members + 1)
    unfused_rate;
  Printf.printf "compiled vs interpreted:  %.2fx (gate: >= 2x)\n" speedup;
  Printf.printf "interpreted vs unfused:   %.2fx\n" fused_gain;

  (* -- stateful chain: inline fold + inline window members ----------- *)
  (* 16 members: a keyed counter (Inline_fold) and a global sliding-window
     sum (Inline_window) buried among identities. The inline hooks keep
     the chain compiled; the gate is looser than the all-stateless one
     because the state-structure traffic (hash probes, window queue)
     survives compilation. *)
  let s_members = 16 in
  let s_tuples = if !quick then 40_000 else 200_000 in
  let s_keys = Ss_prelude.Discrete.uniform 64 in
  let s_n = s_members + 1 in
  let s_ops =
    Array.init s_n (fun v ->
        if v = 0 then Operator.source ~rate:1e6 "src"
        else if v = 6 then
          Operator.make
            ~kind:(Operator.Partitioned_stateful s_keys)
            ~service_time:1e-8 "count_by_key"
        else if v = 11 then
          Operator.make ~kind:Operator.Stateful ~input_selectivity:8.0
            ~service_time:1e-8 "window_sum"
        else Operator.make ~service_time:1e-8 (Printf.sprintf "identity#%d" v))
  in
  let s_edges = List.init s_members (fun i -> (i, i + 1, 1.0)) in
  let s_topo = Topology.create_exn s_ops s_edges in
  let s_chain = List.init s_members (fun i -> i + 1) in
  let s_registry v =
    if v = 6 then Ss_operators.Join_ops.count_by_key ()
    else if v = 11 then
      Ss_operators.Window_ops.sum
        ~spec:
          { Ss_operators.Window_ops.length = 32; slide = 8; index = 0;
            per_key = false }
        ()
    else Ss_operators.Stateless_ops.identity
  in
  let s_run fusion () =
    Ss_runtime.Executor.run ~fused:[ s_chain ] ~fusion ~workers:2
      ~mailbox_capacity:1024 ~batch:(`Fixed 256)
      ~instrument:
        {
          Ss_runtime.Executor.default_instrument with
          telemetry = false;
          sample_occupancy = false;
        }
      ~source:
        (Ss_runtime.Executor.source_of_fn ~count:s_tuples (fun i ->
             Ss_operators.Tuple.make ~key:(i mod 64) [| float_of_int i |]))
      ~registry:s_registry s_topo
  in
  let sc = counts (s_run `Compiled ()) and si = counts (s_run `Interpreted ()) in
  if sc <> si then begin
    Printf.printf "FAIL: stateful-chain counts differ across fusion modes\n";
    exit 1
  end;
  let s_speedup, s_compiled_rate, s_interpreted_rate =
    paired ~units:s_tuples (s_run `Compiled) (s_run `Interpreted)
  in
  Printf.printf
    "stateful chain: %d members (keyed counter + window sum), %d tuples\n"
    s_members s_tuples;
  Printf.printf "  compiled:    %11.1f tuples/cpu-s\n" s_compiled_rate;
  Printf.printf "  interpreted: %11.1f tuples/cpu-s\n" s_interpreted_rate;
  Printf.printf "  compiled vs interpreted: %.2fx (gate: >= 1.5x)\n" s_speedup;

  (* -- fission replicas hosting the staged loop --------------------- *)
  (* A linear 12-identity group whose front is replicated: both modes
     deploy emitter + 2 workers + collector; the gate isolates the staged
     loop inside the workers (the plumbing is identical on both sides). *)
  let r_members = 12 in
  let r_tuples = if !quick then 40_000 else 200_000 in
  let r_n = r_members + 2 in
  let r_ops =
    Array.init r_n (fun v ->
        if v = 0 then Operator.source ~rate:1e6 "src"
        else if v = 1 then
          Operator.with_replicas (Operator.make ~service_time:1e-8 "front") 2
        else if v = r_n - 1 then Operator.make ~service_time:1e-8 "snk"
        else Operator.make ~service_time:1e-8 (Printf.sprintf "identity#%d" v))
  in
  let r_edges = List.init (r_n - 1) (fun i -> (i, i + 1, 1.0)) in
  let r_topo = Topology.create_exn r_ops r_edges in
  let r_group = List.init r_members (fun i -> i + 1) in
  let r_run fusion () =
    Ss_runtime.Executor.run ~fused:[ r_group ] ~fusion ~workers:4
      ~mailbox_capacity:1024 ~batch:(`Fixed 256)
      ~instrument:
        {
          Ss_runtime.Executor.default_instrument with
          telemetry = false;
          sample_occupancy = false;
        }
      ~source:
        (Ss_runtime.Executor.source_of_fn ~count:r_tuples (fun i ->
             Ss_operators.Tuple.make ~key:i [| float_of_int i |]))
      ~registry:(fun _ -> Ss_operators.Stateless_ops.identity)
      r_topo
  in
  let rc = counts (r_run `Compiled ()) and ri = counts (r_run `Interpreted ()) in
  if rc <> ri then begin
    Printf.printf "FAIL: replica counts differ across fusion modes\n";
    exit 1
  end;
  let r_speedup, r_compiled_rate, r_interpreted_rate =
    paired ~units:r_tuples (r_run `Compiled) (r_run `Interpreted)
  in
  Printf.printf "fission replicas: %d members, 2 replicas, %d tuples\n"
    r_members r_tuples;
  Printf.printf "  compiled workers:    %11.1f tuples/cpu-s\n" r_compiled_rate;
  Printf.printf "  interpreted workers: %11.1f tuples/cpu-s\n"
    r_interpreted_rate;
  Printf.printf "  compiled vs interpreted: %.2fx (gate: >= 1.3x)\n" r_speedup;

  (* -- telemetry overhead on the compiled chain --------------------- *)
  (* Telemetry no longer forces interpretation; measure what the in-loop
     counters and 1-in-k stamps cost the compiled chain at the default
     sampling stride. *)
  let run_compiled_telemetry () =
    Ss_runtime.Executor.run ~fused:[ chain ] ~fusion:`Compiled
      ~workers:2 ~mailbox_capacity:1024 ~batch:(`Fixed 256)
      ~instrument:
        {
          Ss_runtime.Executor.default_instrument with
          telemetry = true;
          sample_occupancy = false;
        }
      ~source:
        (Ss_runtime.Executor.source_of_fn ~count:tuples (fun i ->
             Ss_operators.Tuple.make ~key:i [| float_of_int i |]))
      ~registry topo
  in
  let overhead_ratio, telemetry_rate, _ =
    paired ~units:tuples run_compiled_telemetry run_compiled
  in
  (* paired ratios are cpu(runB)/cpu(runA) = cpu(no-tel)/cpu(telemetry):
     below 1 when telemetry costs time, so the overhead is 1/r - 1. *)
  let telemetry_overhead_pct = ((1.0 /. overhead_ratio) -. 1.0) *. 100.0 in
  Printf.printf
    "telemetry on the compiled chain: %11.1f tuples/cpu-s (%.1f%% overhead)\n"
    telemetry_rate telemetry_overhead_pct;

  let json =
    Printf.sprintf
      {|{"section":"fusion","tuples":%d,"members":%d,"compiled_rate":%.1f,"interpreted_rate":%.1f,"unfused_rate":%.1f,"compiled_vs_interpreted":%.3f,"interpreted_vs_unfused":%.3f,"stateful_members":%d,"stateful_compiled_rate":%.1f,"stateful_interpreted_rate":%.1f,"stateful_vs_interpreted":%.3f,"replica_members":%d,"replica_compiled_rate":%.1f,"replica_interpreted_rate":%.1f,"replica_vs_interpreted":%.3f,"telemetry_compiled_rate":%.1f,"telemetry_overhead_pct":%.1f}|}
      tuples members compiled_rate interpreted_rate unfused_rate speedup
      fused_gain s_members s_compiled_rate s_interpreted_rate s_speedup
      r_members r_compiled_rate r_interpreted_rate r_speedup telemetry_rate
      telemetry_overhead_pct
  in
  write_bench_json "BENCH_fusion.json" json;
  let failed = ref false in
  if speedup < 2.0 then begin
    Printf.printf
      "FAIL: compiled closed loop only %.2fx the interpreted meta-operator \
       (>= 2x required)\n"
      speedup;
    failed := true
  end;
  if s_speedup < 1.5 then begin
    Printf.printf
      "FAIL: compiled stateful chain only %.2fx the interpreted walk \
       (>= 1.5x required)\n"
      s_speedup;
    failed := true
  end;
  if r_speedup < 1.3 then begin
    Printf.printf
      "FAIL: compiled replica workers only %.2fx the interpreted ones \
       (>= 1.3x required)\n"
      r_speedup;
    failed := true
  end;
  (* Budget is 10% on this identity chain (measured ~6%); the hard gate is
     deliberately looser so host noise cannot trip it — 25% is still far
     below the ~170% a regression to forced interpretation would show. *)
  if telemetry_overhead_pct > 25.0 then begin
    Printf.printf
      "FAIL: telemetry costs the compiled chain %.1f%% (budget 10%%, gate \
       25%%)\n"
      telemetry_overhead_pct;
    failed := true
  end;
  if !failed then exit 1

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("table1", table1);
    ("table2", table2);
    ("latency", latency);
    ("elasticity", elasticity);
    ("elastic", elastic_live);
    ("cola", cola);
    ("placement", placement);
    ("ablations", ablations);
    ("sched", sched);
    ("mailbox", mailbox_bench);
    ("telemetry", telemetry_bench);
    ("log", log_bench);
    ("event", event_bench);
    ("fusion", fusion_bench);
    ("micro", micro);
  ]

let () =
  let requested =
    Array.to_list Sys.argv |> List.tl
    |> List.filter (fun a ->
           if a = "--quick" then begin
             quick := true;
             false
           end
           else true)
  in
  let to_run =
    if requested = [] then List.map fst sections
    else begin
      List.iter
        (fun name ->
          if not (List.mem_assoc name sections) then begin
            Printf.eprintf "unknown section %S (available: %s)\n" name
              (String.concat ", " (List.map fst sections));
            exit 1
          end)
        requested;
      requested
    end
  in
  List.iter (fun name -> (List.assoc name sections) ()) to_run
