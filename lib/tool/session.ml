open Ss_topology
open Ss_core

type t = {
  mutable versions : (string * Topology.t) list;  (* newest first *)
  mutable counter : int;
}

let import topology = { versions = [ ("original", topology) ]; counter = 0 }

let import_xml src = Result.map import (Ss_xml.Topology_xml.of_string src)

let import_xml_multi src =
  match Ss_xml.Topology_xml.parse_raw src with
  | Error _ as e -> e
  | Ok (ops, edges) ->
      Result.map
        (fun (topology, _) -> import topology)
        (Multi_source.unify ops edges)

let versions t = List.rev_map fst t.versions

let topology t ?version () =
  match version with
  | None -> snd (List.hd t.versions)
  | Some name -> (
      match List.assoc_opt name t.versions with
      | Some topo -> topo
      | None -> raise Not_found)

let register t name topo =
  t.versions <- (name, topo) :: t.versions;
  name

let next_id t =
  t.counter <- t.counter + 1;
  t.counter

let analyze t ?version () = Steady_state.analyze (topology t ?version ())

let latency t ?version () =
  let topo = topology t ?version () in
  Latency.estimate topo (Steady_state.analyze topo)

let eliminate_bottlenecks t ?version ?max_replicas () =
  let result = Fission.optimize ?max_replicas (topology t ?version ()) in
  let name =
    match max_replicas with
    | None -> Printf.sprintf "fission-%d" (next_id t)
    | Some bound -> Printf.sprintf "fission-%d-bound%d" (next_id t) bound
  in
  (register t name result.Fission.topology, result)

let fusion_candidates t ?version ?max_size () =
  Fusion.candidates ?max_size (topology t ?version ())

let fuse t ?version ?name vertices =
  match Fusion.apply ?name (topology t ?version ()) vertices with
  | Error _ as e -> e
  | Ok outcome ->
      let version_name = Printf.sprintf "fusion-%d" (next_id t) in
      Ok (register t version_name outcome.Fusion.topology, outcome)

let auto_fuse t ?version ?max_size ?utilization_cap () =
  let result =
    Fusion.auto ?max_size ?utilization_cap (topology t ?version ())
  in
  if result.Fusion.steps = [] then None
  else
    let version_name = Printf.sprintf "autofusion-%d" (next_id t) in
    Some (register t version_name result.Fusion.final, result)

let simulate t ?version ?config () =
  Ss_sim.Engine.run ?config (topology t ?version ())

let export_xml t ?version () =
  Ss_xml.Topology_xml.to_string (topology t ?version ())

let generate_code t ?version ?fused ?fusion ?tuples () =
  Ss_codegen.Codegen.program ?fused ?fusion ?tuples (topology t ?version ())

let execute t ?version ?ingest ?mailbox_capacity ?fused ?fusion ?ordered ?seed
    ?tuples ?timeout ?workers ?placement ?batch ?instrument
    ?event_time ?disorder () =
  Ss_codegen.Plan.run ?ingest ?mailbox_capacity ?fused ?fusion ?ordered ?seed
    ?tuples ?timeout ?workers ?placement ?batch ?instrument
    ?event_time ?disorder
    (topology t ?version ())

let elastic t ?version ?policy ?epoch_length ?max_epochs ?settle ?workers
    ?reserve ?rate ?seed ?(telemetry_sample = 4) () =
  let live =
    Ss_codegen.Plan.live ?workers ?reserve ?rate ?seed
      ~instrument:
        {
          Ss_runtime.Executor.default_instrument with
          telemetry = true;
          telemetry_sample;
        }
      (topology t ?version ())
  in
  Ss_elastic.Controller.run_live ?policy ?epoch_length ?max_epochs ?settle live

let measured_version t ?version metrics =
  match metrics.Ss_runtime.Executor.telemetry with
  | None ->
      Error
        "no telemetry in these metrics: run execute with \
         ~instrument:{ default_instrument with telemetry = true }"
  | Some report ->
      let topo = topology t ?version () in
      let twin =
        Ss_telemetry.Telemetry.measured_topology topo
          ~consumed:metrics.Ss_runtime.Executor.consumed
          ~produced:metrics.Ss_runtime.Executor.produced report
      in
      Ok (register t (Printf.sprintf "measured-%d" (next_id t)) twin)

let runtime_report t ?version metrics =
  let open Ss_runtime in
  let topo = topology t ?version () in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Format.asprintf "outcome: %a@." Supervision.pp_outcome
       metrics.Executor.outcome);
  Buffer.add_string buf
    (Printf.sprintf "elapsed: %.3f s; source rate: %.1f tuples/s\n"
       metrics.Executor.elapsed metrics.Executor.source_rate);
  Buffer.add_string buf
    (Printf.sprintf "%-4s %-24s %10s %10s %11s %9s\n" "id" "operator"
       "consumed" "produced" "blocked(s)" "mean occ");
  Array.iteri
    (fun v consumed ->
      Buffer.add_string buf
        (Printf.sprintf "%-4d %-24s %10d %10d %11.4f %9.2f\n" v
           (Topology.operator topo v).Operator.name consumed
           metrics.Executor.produced.(v)
           metrics.Executor.blocked.(v)
           metrics.Executor.occupancy.(v)))
    metrics.Executor.consumed;
  (* Event-time runs only: silent otherwise so processing-time reports keep
     their exact historical shape. *)
  let late_total = Array.fold_left ( + ) 0 metrics.Executor.late in
  if late_total > 0 then
    Buffer.add_string buf
      (Printf.sprintf "late tuples: %d (%s)\n" late_total
         (String.concat ", "
            (List.filter_map
               (fun (v, n) ->
                 if n = 0 then None
                 else
                   Some
                     (Printf.sprintf "%s=%d"
                        (Topology.operator topo v).Operator.name n))
               (Array.to_list (Array.mapi (fun v n -> (v, n)) metrics.Executor.late)))));
  (match metrics.Executor.telemetry with
  | None -> ()
  | Some report ->
      let open Ss_telemetry in
      Buffer.add_string buf
        (Printf.sprintf "telemetry:\n%-4s %-24s %8s %9s %9s %9s %9s %11s\n"
           "id" "operator" "n" "p50(ms)" "p95(ms)" "p99(ms)" "max(ms)"
           "service(us)");
      Array.iteri
        (fun v h ->
          if not (Histogram.is_empty h) then begin
            let s = Histogram.snapshot h in
            Buffer.add_string buf
              (Printf.sprintf
                 "%-4d %-24s %8d %9.3f %9.3f %9.3f %9.3f %11.2f\n" v
                 (Topology.operator topo v).Operator.name s.Histogram.count
                 (s.Histogram.p50 *. 1e3) (s.Histogram.p95 *. 1e3)
                 (s.Histogram.p99 *. 1e3) (s.Histogram.max *. 1e3)
                 (Histogram.mean report.Telemetry.service.(v) *. 1e6))
          end)
        report.Telemetry.latency;
      Buffer.add_string buf "edges:\n";
      List.iter
        (fun (u, v, c) ->
          Buffer.add_string buf
            (Printf.sprintf "  %s -> %s: %d tuples\n"
               (Topology.operator topo u).Operator.name
               (Topology.operator topo v).Operator.name c))
        report.Telemetry.edges);
  let pp_vertex ppf = function
    | None -> ()
    | Some v -> Format.fprintf ppf " (vertex %d)" v
  in
  Buffer.add_string buf "actors:\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Format.asprintf "  %-28s %a@."
           (Format.asprintf "%s%a:" r.Supervision.actor pp_vertex
              r.Supervision.vertex)
           Supervision.pp_status r.Supervision.status))
    metrics.Executor.actors;
  Buffer.contents buf

let report t ?version () =
  let topo = topology t ?version () in
  let analysis = Steady_state.analyze topo in
  let original = List.assoc "original" t.versions in
  let baseline = Steady_state.analyze original in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Format.asprintf "%a@." Topology.pp topo);
  Buffer.add_string buf (Format.asprintf "%a@." Steady_state.pp analysis);
  (match Steady_state.bottlenecks analysis with
  | [] -> Buffer.add_string buf "no saturated operator\n"
  | vs ->
      Buffer.add_string buf
        ("saturated operators: "
        ^ String.concat ", "
            (List.map
               (fun v -> (Topology.operator topo v).Operator.name)
               vs)
        ^ "\n"));
  (* Relative tolerance: the two throughputs come from independent float
     pipelines, so exact (in)equality both prints spurious "+0.0%" lines
     and can hide real changes that land on the same bits by luck. *)
  let materially_different a b =
    abs_float (a -. b) > 1e-9 *. Float.max (abs_float a) (abs_float b)
  in
  if materially_different analysis.Steady_state.throughput
       baseline.Steady_state.throughput
  then
    Buffer.add_string buf
      (Printf.sprintf "throughput vs original: %+.1f%%\n"
         (100.0
         *. ((analysis.Steady_state.throughput
             /. baseline.Steady_state.throughput)
            -. 1.0)));
  Buffer.contents buf
