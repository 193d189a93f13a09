(* SpinStreams command-line tool: the paper's GUI workflow (import an XML
   topology, analyze, optimize, fuse, generate code) as subcommands. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Atomic whole-file write (temp file + rename): a crash or a concurrent
   reader never observes a half-written export. *)
let write_file path contents = Ss_log.Log_io.atomic_write_file path contents

let load_session path =
  match Ss_tool.Session.import_xml (read_file path) with
  | Ok s -> Ok s
  | Error e -> Error (Printf.sprintf "%s: %s" path e)

let or_die = function
  | Ok v -> v
  | Error e ->
      prerr_endline ("spinstreams: " ^ e);
      exit 1

(* ------------------------------------------------------------------ *)
(* Common arguments *)

let topology_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"TOPOLOGY.xml" ~doc:"Topology description (XML formalism).")

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the result to $(docv).")

let vertices_arg =
  let parse s =
    try Ok (List.map int_of_string (String.split_on_char ',' s))
    with Failure _ -> Error (`Msg "expected a comma-separated vertex list")
  in
  Arg.conv (parse, fun ppf vs ->
      Format.pp_print_string ppf (String.concat "," (List.map string_of_int vs)))

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")

(* Strictly positive integer, rejected at parse time like the --groups and
   --batch converters (a bad value never reaches the runtime). *)
let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg "expected a positive integer")
  in
  Arg.conv (parse, Format.pp_print_int)

(* ------------------------------------------------------------------ *)
(* analyze *)

let analyze_cmd =
  let multi =
    Arg.(
      value & flag
      & info [ "multi-source" ]
          ~doc:"Accept documents with several sources; a fictitious root is \
                added and all sources throttle proportionally under \
                backpressure.")
  in
  let run path multi =
    let session =
      if multi then
        or_die
          (Result.map_error
             (Printf.sprintf "%s: %s" path)
             (Ss_tool.Session.import_xml_multi (read_file path)))
      else or_die (load_session path)
    in
    print_string (Ss_tool.Session.report session ())
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Predict the steady-state throughput under backpressure (Algorithm 1).")
    Term.(const run $ topology_arg $ multi)

(* ------------------------------------------------------------------ *)
(* optimize *)

let optimize_cmd =
  let max_replicas =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-replicas" ] ~docv:"N"
          ~doc:"Hold-off replication: bound the total number of replicas.")
  in
  let run path max_replicas output =
    let session = or_die (load_session path) in
    let version, result =
      Ss_tool.Session.eliminate_bottlenecks session ?max_replicas ()
    in
    Format.printf "%a@." Ss_core.Fission.pp result;
    (match result.Ss_core.Fission.residual_bottlenecks with
    | [] -> ()
    | _ ->
        print_endline
          "warning: some bottlenecks cannot be removed by fission (stateful \
           or skew-limited operators)");
    match output with
    | None -> ()
    | Some out ->
        write_file out (Ss_tool.Session.export_xml session ~version ());
        Printf.printf "optimized topology written to %s\n" out
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Eliminate bottlenecks by operator fission (Algorithm 2).")
    Term.(const run $ topology_arg $ max_replicas $ output_arg)

(* ------------------------------------------------------------------ *)
(* candidates *)

let candidates_cmd =
  let max_size =
    Arg.(
      value & opt int 4
      & info [ "max-size" ] ~docv:"K" ~doc:"Largest sub-graph size to propose.")
  in
  let run path max_size =
    let session = or_die (load_session path) in
    let topo = Ss_tool.Session.topology session () in
    let cands = Ss_tool.Session.fusion_candidates session ~max_size () in
    if cands = [] then print_endline "no legal fusion candidate"
    else begin
      Printf.printf "%-28s %-12s\n" "sub-graph" "mean rho";
      List.iter
        (fun (vs, util) ->
          let names =
            List.map
              (fun v ->
                (Ss_topology.Topology.operator topo v).Ss_topology.Operator.name)
              vs
          in
          Printf.printf "%-28s %-12.3f (%s)\n"
            (String.concat "," (List.map string_of_int vs))
            util
            (String.concat "+" names))
        cands
    end
  in
  Cmd.v
    (Cmd.info "candidates"
       ~doc:"Rank legal fusion sub-graphs by mean utilization (most \
             underutilized first).")
    Term.(const run $ topology_arg $ max_size)

(* ------------------------------------------------------------------ *)
(* fuse *)

let fuse_cmd =
  let subgraph =
    Arg.(
      required
      & opt (some vertices_arg) None
      & info [ "s"; "subgraph" ] ~docv:"V1,V2,..."
          ~doc:"Vertices of the sub-graph to fuse.")
  in
  let run path vertices output =
    let session = or_die (load_session path) in
    let version, outcome = or_die (Ss_tool.Session.fuse session vertices) in
    Printf.printf "fused service time: %.4f ms\n"
      (outcome.Ss_core.Fusion.fused_service_time *. 1e3);
    Printf.printf "predicted throughput: %.1f -> %.1f tuples/s (%+.1f%%)\n"
      outcome.Ss_core.Fusion.before.Ss_core.Steady_state.throughput
      outcome.Ss_core.Fusion.after.Ss_core.Steady_state.throughput
      (100.0 *. (outcome.Ss_core.Fusion.throughput_ratio -. 1.0));
    if outcome.Ss_core.Fusion.creates_bottleneck then
      print_endline
        "alert: the fusion introduces a bottleneck and impairs performance";
    (match output with
    | None -> ()
    | Some out ->
        write_file out (Ss_tool.Session.export_xml session ~version ());
        Printf.printf "fused topology written to %s\n" out)
  in
  Cmd.v
    (Cmd.info "fuse"
       ~doc:"Fuse a sub-graph into a meta-operator and predict the outcome \
             (Algorithm 3).")
    Term.(const run $ topology_arg $ subgraph $ output_arg)

(* ------------------------------------------------------------------ *)
(* latency *)

let latency_cmd =
  let run path =
    let session = or_die (load_session path) in
    Format.printf "%a@." Ss_core.Latency.pp (Ss_tool.Session.latency session ())
  in
  Cmd.v
    (Cmd.info "latency"
       ~doc:"Estimate per-operator queueing delays and the end-to-end \
             latency (GI/G/1 approximations over the steady state).")
    Term.(const run $ topology_arg)

(* ------------------------------------------------------------------ *)
(* autofuse *)

let autofuse_cmd =
  let max_size =
    Arg.(
      value & opt int 4
      & info [ "max-size" ] ~docv:"K" ~doc:"Largest sub-graph size per fusion step.")
  in
  let cap =
    Arg.(
      value & opt float 0.9
      & info [ "utilization-cap" ] ~docv:"RHO"
          ~doc:"Keep every fused operator at or below this utilization.")
  in
  let run path max_size cap output =
    let session = or_die (load_session path) in
    match
      Ss_tool.Session.auto_fuse session ~max_size ~utilization_cap:cap ()
    with
    | None -> print_endline "no fusion preserves throughput; topology unchanged"
    | Some (version, result) ->
        List.iter
          (fun step ->
            Printf.printf "fused %s -> %s (%.3f ms)\n"
              (String.concat ","
                 (List.map string_of_int step.Ss_core.Fusion.step_vertices))
              step.Ss_core.Fusion.step_name
              (step.Ss_core.Fusion.step_service_time *. 1e3))
          result.Ss_core.Fusion.steps;
        Printf.printf
          "%d operators saved; throughput preserved at %.1f tuples/s\n"
          result.Ss_core.Fusion.operators_saved
          result.Ss_core.Fusion.final_analysis.Ss_core.Steady_state.throughput;
        (match output with
        | None -> ()
        | Some out ->
            write_file out (Ss_tool.Session.export_xml session ~version ());
            Printf.printf "coarsened topology written to %s\n" out)
  in
  Cmd.v
    (Cmd.info "autofuse"
       ~doc:"Automatically fuse underutilized sub-graphs while preserving \
             the predicted throughput.")
    Term.(const run $ topology_arg $ max_size $ cap $ output_arg)

(* ------------------------------------------------------------------ *)
(* simulate *)

let simulate_cmd =
  let measure =
    Arg.(
      value & opt float 15.0
      & info [ "measure" ] ~docv:"SECONDS" ~doc:"Simulated measurement window.")
  in
  let buffer =
    Arg.(
      value & opt int 16
      & info [ "buffer" ] ~docv:"SLOTS" ~doc:"Mailbox capacity per operator.")
  in
  let run path measure buffer seed =
    let session = or_die (load_session path) in
    let config =
      {
        Ss_sim.Engine.default_config with
        Ss_sim.Engine.measure;
        buffer_capacity = buffer;
        seed;
      }
    in
    let predicted = Ss_tool.Session.analyze session () in
    let result = Ss_tool.Session.simulate session ~config () in
    Printf.printf "predicted throughput: %.1f tuples/s\n"
      predicted.Ss_core.Steady_state.throughput;
    Printf.printf "measured throughput:  %.1f tuples/s (%d events, %.1fs simulated)\n"
      result.Ss_sim.Engine.throughput result.Ss_sim.Engine.events
      result.Ss_sim.Engine.simulated_time;
    Printf.printf "relative error: %.2f%%\n"
      (100.0
      *. Ss_prelude.Stats.relative_error
           ~expected:predicted.Ss_core.Steady_state.throughput
           ~actual:result.Ss_sim.Engine.throughput);
    Printf.printf "\n%-4s %-24s %12s %12s %8s\n" "id" "operator" "pred d/s"
      "meas d/s" "busy";
    Array.iteri
      (fun v stats ->
        Printf.printf "%-4d %-24s %12.1f %12.1f %8.2f\n" v
          predicted.Ss_core.Steady_state.metrics.(v).Ss_core.Steady_state.name
          predicted.Ss_core.Steady_state.metrics.(v)
            .Ss_core.Steady_state.departure_rate
          stats.Ss_sim.Engine.departure_rate stats.Ss_sim.Engine.busy_fraction)
      result.Ss_sim.Engine.stats
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Measure the topology on the discrete-event simulator and compare \
             with the model.")
    Term.(const run $ topology_arg $ measure $ buffer $ seed_arg)

(* ------------------------------------------------------------------ *)
(* random *)

let random_cmd =
  let count =
    Arg.(value & opt int 1 & info [ "n"; "count" ] ~docv:"N" ~doc:"Topologies to generate.")
  in
  let run count seed output =
    let rng = Ss_prelude.Rng.create seed in
    for i = 1 to count do
      let topo =
        Ss_workload.Random_topology.generate (Ss_prelude.Rng.split rng)
      in
      let xml = Ss_xml.Topology_xml.to_string topo in
      match output with
      | None -> print_string xml
      | Some dir ->
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          let path = Filename.concat dir (Printf.sprintf "topology_%02d.xml" i) in
          write_file path xml;
          Printf.printf "%s (%d operators, %d edges)\n" path
            (Ss_topology.Topology.size topo)
            (Ss_topology.Topology.num_edges topo)
    done
  in
  Cmd.v
    (Cmd.info "random"
       ~doc:"Generate random benchmark topologies (the paper's Algorithm 5).")
    Term.(const run $ count $ seed_arg $ output_arg)

(* ------------------------------------------------------------------ *)
(* codegen *)

let codegen_cmd =
  let fused =
    Arg.(
      value
      & opt_all vertices_arg []
      & info [ "fused" ] ~docv:"V1,V2,..."
          ~doc:"Execute this sub-graph as one meta-operator (repeatable).")
  in
  let tuples =
    Arg.(value & opt int 100_000 & info [ "tuples" ] ~docv:"N" ~doc:"Stream length of the generated run.")
  in
  let mod_name =
    Arg.(value & opt string "pipeline" & info [ "name" ] ~docv:"NAME" ~doc:"Module name of the generated executable.")
  in
  let fusion =
    Arg.(
      value
      & opt
          (enum
             [
               ("auto", `Auto);
               ("interpreted", `Interpreted);
               ("closed-loop", `Closed_loop);
             ])
          `Auto
      & info [ "fusion" ] ~docv:"MODE"
          ~doc:
            "Fused-group execution of the generated run: $(b,auto) (default) \
             leaves the choice to the executor's deploy-time staging, \
             $(b,interpreted) pins the Algorithm 4 walk, $(b,closed-loop) \
             additionally emits specialized closed loops for all-stub \
             groups. Counts are identical in every mode.")
  in
  let run path fused fusion tuples name output =
    let session = or_die (load_session path) in
    match output with
    | None ->
        print_string
          (Ss_tool.Session.generate_code session ~fused ~fusion ~tuples ())
    | Some dir ->
        Ss_codegen.Codegen.write_project ~dir ~name ~fused ~fusion ~tuples
          (Ss_tool.Session.topology session ());
        Printf.printf "generated %s/%s.ml and %s/dune\n" dir name dir
  in
  Cmd.v
    (Cmd.info "codegen"
       ~doc:"Generate the OCaml program deploying the topology on the actor \
             runtime (the paper's SS2Akka step).")
    Term.(
      const run $ topology_arg $ fused $ fusion $ tuples $ mod_name
      $ output_arg)

(* ------------------------------------------------------------------ *)
(* execute *)

let execute_cmd =
  let fused =
    Arg.(
      value
      & opt_all vertices_arg []
      & info [ "fused" ] ~docv:"V1,V2,..."
          ~doc:"Execute this sub-graph as one meta-operator (repeatable).")
  in
  let tuples =
    Arg.(
      value & opt int 10_000
      & info [ "tuples" ] ~docv:"N" ~doc:"Stream length of the run.")
  in
  let buffer =
    Arg.(
      value & opt int 64
      & info [ "buffer" ] ~docv:"SLOTS" ~doc:"Mailbox capacity per actor.")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Abort the run after $(docv) of wall-clock time; the report \
                then shows the per-actor cancellation statuses.")
  in
  let workers =
    Arg.(
      value
      & opt (some pos_int) None
      & info [ "workers" ] ~docv:"N"
          ~doc:"Worker domains of the pool all actors multiplex over \
                (N:M work-stealing scheduler), a positive integer \
                (default: the machine's recommended domain count).")
  in
  let groups =
    (* "off" -> one locality group (historical behavior); "auto" -> one
       group per ~4 workers; an integer -> that many groups (capped to
       the worker count). *)
    let parse s =
      match s with
      | "off" -> Ok `Off
      | "auto" -> Ok `Auto
      | _ -> (
          match int_of_string_opt s with
          | Some g when g >= 1 -> Ok (`N g)
          | _ -> Error (`Msg "expected off, auto, or a positive integer"))
    in
    let print ppf = function
      | `Off -> Format.fprintf ppf "off"
      | `Auto -> Format.fprintf ppf "auto"
      | `N g -> Format.fprintf ppf "%d" g
    in
    Arg.(
      value
      & opt (conv (parse, print)) `Off
      & info [ "groups" ] ~docv:"off|auto|N"
          ~doc:"Partition the pool's workers into locality groups and pin \
                each vertex to a group via the communication-aware \
                placement (vertices that exchange the most tuples share a \
                group; wakeups stay group-local and stealing prefers \
                same-group victims). $(b,off) (default) keeps one group; \
                $(b,auto) makes one group per ~4 workers; an integer \
                forces that many groups (capped to the worker count).")
  in
  let batch =
    (* "auto" / "auto:MAX" -> adaptive per-mailbox drains; an integer ->
       the historical fixed drain cap. *)
    let parse s =
      match s with
      | "auto" -> Ok (`Adaptive 32)
      | _ -> (
          match String.index_opt s ':' with
          | Some i
            when String.sub s 0 i = "auto" ->
              let rest = String.sub s (i + 1) (String.length s - i - 1) in
              (match int_of_string_opt rest with
              | Some m when m >= 1 -> Ok (`Adaptive m)
              | _ -> Error (`Msg "expected auto:MAX with MAX >= 1"))
          | _ -> (
              match int_of_string_opt s with
              | Some b when b >= 1 -> Ok (`Fixed b)
              | _ -> Error (`Msg "expected a positive integer, auto, or auto:MAX")))
    in
    let print ppf = function
      | `Fixed b -> Format.fprintf ppf "%d" b
      | `Adaptive 32 -> Format.fprintf ppf "auto"
      | `Adaptive m -> Format.fprintf ppf "auto:%d" m
    in
    Arg.(
      value
      & opt (conv (parse, print)) (`Adaptive 32)
      & info [ "batch" ] ~docv:"N|auto"
          ~doc:"Messages a pooled actor drains per mailbox activation: a \
                fixed cap $(b,N), or $(b,auto) (default) to size each \
                mailbox's drain from an EWMA of its observed occupancy \
                within [1, 32] ($(b,auto:MAX) adjusts the ceiling).")
  in
  let telemetry =
    Arg.(
      value & flag
      & info [ "telemetry" ]
          ~doc:"Record latency histograms, per-operator service times and \
                per-edge transfer counts during the run, and print them in \
                the report.")
  in
  let event_time =
    Arg.(
      value & flag
      & info [ "event-time" ]
          ~doc:"Run with event-time semantics: sources generate watermarks \
                (--watermark), the runtime propagates them in-band through \
                every deployment shape (min across fan-in), event-time \
                window operators fire on watermark passage, and tuples \
                arriving behind the watermark are handled by --lateness.")
  in
  let watermark =
    let parse s =
      Result.map_error (fun e -> `Msg e) (Ss_event.Watermark.parse s)
    in
    let print ppf g = Format.pp_print_string ppf (Ss_event.Watermark.to_string g)
    in
    Arg.(
      value
      & opt (conv (parse, print)) (Ss_event.Watermark.Bounded 0.1)
      & info [ "watermark" ] ~docv:"periodic:MS|bounded:MS"
          ~doc:"Source watermark generator (with --event-time): \
                $(b,periodic:MS) emits the max seen timestamp every MS of \
                event-time progress (zero disorder tolerance); \
                $(b,bounded:MS) (default bounded:100) subtracts an MS \
                out-of-orderness bound, so tuples delayed by at most that \
                much are never late.")
  in
  let lateness =
    let parse s =
      Result.map_error (fun e -> `Msg e) (Ss_event.Lateness.parse_kind s)
    in
    let print ppf k =
      Format.pp_print_string ppf (Ss_event.Lateness.kind_to_string k)
    in
    Arg.(
      value
      & opt (conv (parse, print)) `Drop
      & info [ "lateness" ] ~docv:"drop|side|refire"
          ~doc:"Late-tuple policy (with --event-time): $(b,drop) counts and \
                discards (default); $(b,side) diverts them to a dead-letter \
                store reported after the run; $(b,refire) hands them to the \
                operator's on-late hook, emitting retraction markers plus \
                corrected results.")
  in
  let disorder =
    let parse s =
      Result.map_error (fun e -> `Msg e)
        (Ss_workload.Stream_gen.parse_disorder s)
    in
    let print ppf d =
      Format.pp_print_string ppf (Ss_workload.Stream_gen.disorder_to_string d)
    in
    Arg.(
      value
      & opt (conv (parse, print)) Ss_workload.Stream_gen.In_order
      & info [ "disorder" ] ~docv:"none|zipf:ALPHA:MAX|bursty:BURST:PERIOD"
          ~doc:"Perturb the synthetic stream's arrival order: \
                $(b,zipf:ALPHA:MAX) delays each tuple by a Zipf-distributed \
                number of positions in [0,MAX]; $(b,bursty:BURST:PERIOD) \
                holds back the first BURST tuples of every PERIOD and \
                releases them together. Deterministic in --seed.")
  in
  let prom_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom-out" ] ~docv:"FILE"
          ~doc:"Write the telemetry as Prometheus text exposition to \
                $(docv) (implies --telemetry).")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json-out" ] ~docv:"FILE"
          ~doc:"Write the run metrics (telemetry included when on) as JSON \
                to $(docv).")
  in
  let fusion =
    Arg.(
      value
      & opt
          (enum [ ("compiled", `Compiled); ("interpreted", `Interpreted) ])
          `Compiled
      & info [ "fusion" ] ~docv:"MODE"
          ~doc:
            "Fused-group execution: $(b,compiled) (default) stages eligible \
             groups into flat closures at deploy time — including stateful \
             members, fission replicas, and telemetry-instrumented runs — \
             falling back per group to the interpreted walk where staging \
             does not apply (event time, router overrides); \
             $(b,interpreted) forces the Algorithm 4 walk everywhere. \
             Counts are identical either way.")
  in
  let run path fused fusion tuples buffer timeout workers groups seed
      batch telemetry event_time watermark lateness disorder prom_out
      json_out =
    (match timeout with
    | Some limit when limit <= 0.0 ->
        or_die (Error "--timeout must be positive")
    | _ -> ());
    let telemetry = telemetry || prom_out <> None in
    let instrument =
      { Ss_runtime.Executor.default_instrument with telemetry }
    in
    let session = or_die (load_session path) in
    let placement =
      match groups with
      | `Off -> None
      | (`Auto | `N _) as spec ->
          let w =
            match workers with
            | Some w -> w
            | None -> Ss_sched.Sched.default_workers ()
          in
          let g =
            match spec with
            | `Auto -> Stdlib.max 1 (w / 4)
            | `N g -> Stdlib.min g w
          in
          if g <= 1 then None
          else begin
            let topology = Ss_tool.Session.topology session () in
            let cluster =
              Ss_placement.Cluster.homogeneous ~nodes:g
                ~cores:(Stdlib.max 1 (w / g)) ()
            in
            let assignment =
              Ss_placement.Placement.communication_aware cluster topology
            in
            Printf.printf "locality groups: %d (vertex -> group: %s)\n" g
              (String.concat " "
                 (Array.to_list (Array.map string_of_int assignment)));
            Some assignment
          end
    in
    let dead_letters = Ss_event.Dead_letter.create () in
    let event_time_config =
      if not event_time then None
      else
        Some
          (Ss_event.Event_time.config
             ~lateness:(Ss_event.Lateness.of_kind ~dead_letters lateness)
             watermark)
    in
    let metrics =
      Ss_tool.Session.execute session ~fused ~fusion ~tuples
        ~mailbox_capacity:buffer ?timeout ?workers ?placement ~seed ~batch
        ~instrument ?event_time:event_time_config ~disorder ()
    in
    print_string (Ss_tool.Session.runtime_report session metrics);
    if event_time && lateness = `Side then
      Printf.printf "dead-letter store: %d late tuple(s) captured\n"
        (Ss_event.Dead_letter.count dead_letters);
    let topology = Ss_tool.Session.topology session () in
    (match (prom_out, metrics.Ss_runtime.Executor.telemetry) with
    | Some out, Some report ->
        write_file out (Ss_telemetry.Telemetry.to_prometheus topology report);
        Printf.printf "telemetry written to %s\n" out
    | _ -> ());
    (match json_out with
    | None -> ()
    | Some out ->
        write_file out (Ss_tool.Export.telemetry_json topology metrics ^ "\n");
        Printf.printf "metrics written to %s\n" out);
    match metrics.Ss_runtime.Executor.outcome with
    | Ss_runtime.Supervision.Finished -> ()
    | Ss_runtime.Supervision.Actor_failed _
    | Ss_runtime.Supervision.Timed_out _ ->
        exit 1
  in
  Cmd.v
    (Cmd.info "execute"
       ~doc:"Deploy the topology on the supervised actor runtime, drive it \
             with synthetic tuples and report per-actor metrics (consumed, \
             produced, backpressure, mailbox occupancy, completion status; \
             with --telemetry also latency percentiles, measured service \
             times and per-edge rates). Exits non-zero when an actor fails \
             or the timeout fires.")
    Term.(
      const run $ topology_arg $ fused $ fusion $ tuples $ buffer $ timeout
      $ workers $ groups $ seed_arg $ batch $ telemetry
      $ event_time $ watermark $ lateness $ disorder $ prom_out $ json_out)

(* ------------------------------------------------------------------ *)
(* elastic *)

let elastic_cmd =
  let epochs =
    Arg.(
      value & opt pos_int 10
      & info [ "epochs" ] ~docv:"N"
          ~doc:"Maximum controller epochs (default 10).")
  in
  let epoch_length =
    Arg.(
      value & opt float 0.5
      & info [ "epoch-length" ] ~docv:"SECONDS"
          ~doc:"Wall-clock length of each controller epoch (default 0.5).")
  in
  let settle =
    Arg.(
      value & opt pos_int 2
      & info [ "settle" ] ~docv:"N"
          ~doc:"Stop after $(docv) consecutive change-free epochs (default \
                2).")
  in
  let workers =
    Arg.(
      value
      & opt (some pos_int) None
      & info [ "workers" ] ~docv:"N"
          ~doc:"Initial worker domains of the pool, a positive integer \
                (default: the machine's recommended domain count).")
  in
  let reserve =
    Arg.(
      value & opt pos_int 8
      & info [ "reserve" ] ~docv:"N"
          ~doc:"Dormant reserve worker slots the controller can activate \
                when it grows operator degrees (default 8).")
  in
  let rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "rate" ] ~docv:"TUPLES/S"
          ~doc:"Offered load: the synthetic source is paced to this rate \
                (default: the topology source's declared rate).")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json-out" ] ~docv:"FILE"
          ~doc:"Write the per-epoch record and final metrics as JSON to \
                $(docv).")
  in
  let run path epochs epoch_length settle workers reserve rate seed json_out =
    (match epoch_length with
    | l when l <= 0.0 -> or_die (Error "--epoch-length must be positive")
    | _ -> ());
    (match rate with
    | Some r when r <= 0.0 -> or_die (Error "--rate must be positive")
    | _ -> ());
    let session = or_die (load_session path) in
    let r =
      Ss_tool.Session.elastic session ~max_epochs:epochs ~epoch_length ~settle
        ?workers ~reserve ?rate ~seed ()
    in
    Format.printf "%a@." Ss_elastic.Controller.pp_live r;
    print_string (Ss_tool.Session.runtime_report session r.Ss_elastic.Controller.metrics);
    (match json_out with
    | None -> ()
    | Some out ->
        let topology = Ss_tool.Session.topology session () in
        write_file out (Ss_tool.Export.elastic_json topology r ^ "\n");
        Printf.printf "elastic run written to %s\n" out);
    match r.Ss_elastic.Controller.metrics.Ss_runtime.Executor.outcome with
    | Ss_runtime.Supervision.Finished -> ()
    | Ss_runtime.Supervision.Actor_failed _
    | Ss_runtime.Supervision.Timed_out _ ->
        exit 1
  in
  Cmd.v
    (Cmd.info "elastic"
       ~doc:"Run the closed elasticity loop: deploy the topology live \
             (starting from its declared replica degrees, typically all 1), \
             pace a stable synthetic load, and let the threshold controller \
             resize operators of the running topology between epochs — \
             reporting per-epoch measured throughput, utilization and \
             reconfiguration downtime. The counterpoint to the static plan \
             of $(b,optimize): same workload, adaptation paid at runtime.")
    Term.(
      const run $ topology_arg $ epochs $ epoch_length $ settle $ workers
      $ reserve $ rate $ seed_arg $ json_out)

(* ------------------------------------------------------------------ *)
(* ingest *)

let ingest_cmd =
  let dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Log directory (created when absent, recovered when present).")
  in
  let tuples =
    Arg.(
      value & opt int 10_000
      & info [ "tuples" ] ~docv:"N"
          ~doc:"Synthetic tuples to append to the log before executing; 0 \
                appends nothing (replay an existing log).")
  in
  let partitions =
    Arg.(
      value & opt pos_int 4
      & info [ "partitions" ] ~docv:"N"
          ~doc:"Partitions at log creation (an existing log keeps its own \
                count).")
  in
  let fsync =
    (* never | every:N | interval:MS *)
    let parse s =
      match s with
      | "never" -> Ok Ss_log.Log.Never
      | _ -> (
          match String.index_opt s ':' with
          | Some i -> (
              let kind = String.sub s 0 i in
              let rest = String.sub s (i + 1) (String.length s - i - 1) in
              match (kind, int_of_string_opt rest) with
              | "every", Some n when n >= 1 -> Ok (Ss_log.Log.Every n)
              | "interval", Some ms when ms >= 1 ->
                  Ok (Ss_log.Log.Interval (float_of_int ms /. 1000.0))
              | _ -> Error (`Msg "expected never, every:N, or interval:MS"))
          | None -> Error (`Msg "expected never, every:N, or interval:MS"))
    in
    let print ppf = function
      | Ss_log.Log.Never -> Format.fprintf ppf "never"
      | Ss_log.Log.Every n -> Format.fprintf ppf "every:%d" n
      | Ss_log.Log.Interval s -> Format.fprintf ppf "interval:%.0f" (s *. 1000.0)
    in
    Arg.(
      value
      & opt (conv (parse, print)) (Ss_log.Log.Every 256)
      & info [ "fsync" ] ~docv:"POLICY"
          ~doc:"Durability policy for appends: $(b,never) leaves flushing \
                to the OS, $(b,every:N) group-commits (one fsync per N \
                records; every:1 is per-record durability), \
                $(b,interval:MS) bounds the loss window by time. Default \
                every:256.")
  in
  let segment_bytes =
    Arg.(
      value
      & opt pos_int (4 * 1024 * 1024)
      & info [ "segment-bytes" ] ~docv:"BYTES"
          ~doc:"Roll to a new segment file past this size (default 4MiB).")
  in
  let execute =
    Arg.(
      value & flag
      & info [ "execute" ]
          ~doc:"After ingesting, execute the topology from the log: one \
                reader per partition, offsets committed downstream of \
                processing (at-least-once). A re-run after a crash resumes \
                from the committed offsets.")
  in
  let group =
    Arg.(
      value & opt string "default"
      & info [ "group" ] ~docv:"NAME" ~doc:"Consumer group of the execution.")
  in
  let commit_every =
    Arg.(
      value & opt pos_int 512
      & info [ "commit-every" ] ~docv:"N"
          ~doc:"Commit each partition's watermark every $(docv) records \
                (default 512); smaller narrows the redelivery window.")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Abort the execution after $(docv) of wall-clock time; \
                committed offsets stand, so a re-run resumes from them.")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json-out" ] ~docv:"FILE"
          ~doc:"Write the ingest/offset summary as JSON to $(docv).")
  in
  let run path dir tuples partitions fsync segment_bytes execute group
      commit_every timeout seed json_out =
    if tuples < 0 then or_die (Error "--tuples must be >= 0");
    (match timeout with
    | Some limit when limit <= 0.0 ->
        or_die (Error "--timeout must be positive")
    | _ -> ());
    let config =
      { Ss_log.Log.default_config with partitions; segment_bytes; fsync }
    in
    let log = Ss_log.Log.create ~config dir in
    if Ss_log.Log.torn_tails_recovered log > 0 then
      Printf.printf "recovered %d torn partition tail(s)\n"
        (Ss_log.Log.torn_tails_recovered log);
    let ingest_elapsed =
      if tuples = 0 then 0.0
      else begin
        let rng = Ss_prelude.Rng.create seed in
        let stream = Ss_workload.Stream_gen.tuples rng tuples in
        let t0 = Unix.gettimeofday () in
        List.iter
          (fun t ->
            ignore
              (Ss_log.Log.append log ~key:t.Ss_operators.Tuple.key
                 (Ss_log.Tuple_codec.encode t)
                : int * int))
          stream;
        Ss_log.Log.sync log;
        Unix.gettimeofday () -. t0
      end
    in
    let mb = float_of_int (Ss_log.Log.size_bytes log) /. 1048576.0 in
    if tuples > 0 then
      Printf.printf "ingested %d tuples, %.1f MiB total in %.3fs (%.1f MB/s)\n"
        tuples mb ingest_elapsed
        (mb /. Float.max ingest_elapsed 1e-9);
    let outcome =
      if not execute then None
      else begin
        let session = or_die (load_session path) in
        let ing = Ss_runtime.Executor.ingest ~group ~commit_every log in
        let metrics =
          Ss_tool.Session.execute session ~ingest:ing ?timeout ~seed ()
        in
        print_string (Ss_tool.Session.runtime_report session metrics);
        Some metrics.Ss_runtime.Executor.outcome
      end
    in
    let offsets =
      List.init (Ss_log.Log.partitions log) (fun p ->
          ( p,
            Ss_log.Log.committed log ~group ~partition:p,
            Ss_log.Log.end_offset log ~partition:p ))
    in
    List.iter
      (fun (p, committed, stop) ->
        Printf.printf "p%d: committed %d / end %d\n" p committed stop)
      offsets;
    (match json_out with
    | None -> ()
    | Some out ->
        let parts =
          String.concat ","
            (List.map
               (fun (p, committed, stop) ->
                 Printf.sprintf
                   "{\"partition\":%d,\"committed\":%d,\"end\":%d}" p committed
                   stop)
               offsets)
        in
        write_file out
          (Printf.sprintf
             "{\"tuples\":%d,\"size_bytes\":%d,\"ingest_seconds\":%.6f,\
              \"executed\":%b,\"group\":%S,\"partitions\":[%s]}\n"
             tuples (Ss_log.Log.size_bytes log) ingest_elapsed execute group
             parts);
        Printf.printf "summary written to %s\n" out);
    Ss_log.Log.close log;
    match outcome with
    | None | Some Ss_runtime.Supervision.Finished -> ()
    | Some
        ( Ss_runtime.Supervision.Actor_failed _
        | Ss_runtime.Supervision.Timed_out _ ) ->
        exit 1
  in
  Cmd.v
    (Cmd.info "ingest"
       ~doc:"Write a synthetic workload into a durable partitioned log \
             (CRC-framed segments, configurable fsync policy) and \
             optionally execute the topology from it with at-least-once \
             delivery: per-partition readers, offsets committed only after \
             a record's derivation tree fully drains. Prints per-partition \
             committed/end offsets so scripts can verify recovery.")
    Term.(
      const run $ topology_arg $ dir $ tuples $ partitions $ fsync
      $ segment_bytes $ execute $ group $ commit_every $ timeout $ seed_arg
      $ json_out)

(* ------------------------------------------------------------------ *)
(* place *)

let place_cmd =
  let nodes = Arg.(value & opt int 4 & info [ "nodes" ] ~docv:"N" ~doc:"Cluster nodes.") in
  let cores = Arg.(value & opt int 4 & info [ "cores" ] ~docv:"C" ~doc:"Cores per node.") in
  let strategy =
    Arg.(
      value
      & opt (enum [ ("round-robin", `Rr); ("load", `Load); ("comm", `Comm) ]) `Comm
      & info [ "strategy" ] ~docv:"S"
          ~doc:"Placement strategy: round-robin, load or comm (default).")
  in
  let overhead =
    Arg.(
      value & opt float 20e-6
      & info [ "send-overhead" ] ~docv:"SECONDS"
          ~doc:"Sender CPU cost per item crossing node boundaries.")
  in
  let latency =
    Arg.(
      value & opt float 200e-6
      & info [ "link-latency" ] ~docv:"SECONDS" ~doc:"One-way network latency.")
  in
  let run path nodes cores strategy overhead latency =
    let session = or_die (load_session path) in
    let topology = Ss_tool.Session.topology session () in
    let cluster =
      Ss_placement.Cluster.homogeneous ~send_overhead:overhead
        ~link_latency:latency ~nodes ~cores ()
    in
    let assignment =
      match strategy with
      | `Rr -> Ss_placement.Placement.round_robin cluster topology
      | `Load -> Ss_placement.Placement.load_aware cluster topology
      | `Comm -> Ss_placement.Placement.communication_aware cluster topology
    in
    Array.iteri
      (fun v m ->
        Printf.printf "%-24s -> node%d\n"
          (Ss_topology.Topology.operator topology v).Ss_topology.Operator.name m)
      assignment;
    let e = Ss_placement.Placement.evaluate cluster topology assignment in
    Format.printf "%a@." Ss_placement.Placement.pp_evaluation e
  in
  Cmd.v
    (Cmd.info "place"
       ~doc:"Map the topology onto a cluster and evaluate the placement \
             under the cost model (network overhead included).")
    Term.(const run $ topology_arg $ nodes $ cores $ strategy $ overhead $ latency)

(* ------------------------------------------------------------------ *)
(* export *)

let export_cmd =
  let format =
    Arg.(
      value
      & opt
          (enum
             [
               ("csv", `Csv); ("json", `Json); ("latency-csv", `Latency);
               ("comparison-csv", `Comparison);
             ])
          `Csv
      & info [ "format" ] ~docv:"FMT"
          ~doc:"csv (steady state), json (session summary), latency-csv, or \
                comparison-csv (predicted vs simulated).")
  in
  let run path format output seed =
    let session = or_die (load_session path) in
    let topology = Ss_tool.Session.topology session () in
    let contents =
      match format with
      | `Csv ->
          Ss_tool.Export.steady_state_csv topology (Ss_tool.Session.analyze session ())
      | `Json -> Ss_tool.Export.session_json session ^ "\n"
      | `Latency ->
          Ss_tool.Export.latency_csv topology (Ss_tool.Session.latency session ())
      | `Comparison ->
          let analysis = Ss_tool.Session.analyze session () in
          let config = { Ss_sim.Engine.default_config with Ss_sim.Engine.seed = seed } in
          Ss_tool.Export.comparison_csv topology analysis
            (Ss_tool.Session.simulate session ~config ())
    in
    match output with
    | None -> print_string contents
    | Some out ->
        write_file out contents;
        Printf.printf "written to %s\n" out
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Export analyses as CSV or JSON for plotting and dashboards.")
    Term.(const run $ topology_arg $ format $ output_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* dot *)

let dot_cmd =
  let run path =
    let session = or_die (load_session path) in
    print_string (Ss_topology.Topology.to_dot (Ss_tool.Session.topology session ()))
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Render the topology as Graphviz.")
    Term.(const run $ topology_arg)

(* ------------------------------------------------------------------ *)
(* profile *)

let profile_cmd =
  let samples =
    Arg.(value & opt int 5000 & info [ "samples" ] ~docv:"N" ~doc:"Tuples per operator.")
  in
  let run samples seed =
    let rng = Ss_prelude.Rng.create seed in
    Printf.printf "%-28s %14s %10s\n" "operator" "us/tuple" "out/in";
    List.iter
      (fun behavior ->
        let p = Ss_workload.Profiler.run ~samples rng behavior in
        Printf.printf "%-28s %14.2f %10.3f\n" p.Ss_workload.Profiler.behavior
          (p.Ss_workload.Profiler.mean_service_time *. 1e6)
          p.Ss_workload.Profiler.outputs_per_input)
      (Ss_operators.Catalog.all ())
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Profile the operator catalog on synthetic streams (service time \
             and selectivity per operator).")
    Term.(const run $ samples $ seed_arg)

(* ------------------------------------------------------------------ *)

let () =
  let doc = "static optimization of data stream processing topologies" in
  let info = Cmd.info "spinstreams" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            analyze_cmd;
            optimize_cmd;
            candidates_cmd;
            fuse_cmd;
            autofuse_cmd;
            latency_cmd;
            simulate_cmd;
            random_cmd;
            codegen_cmd;
            execute_cmd;
            elastic_cmd;
            ingest_cmd;
            place_cmd;
            export_cmd;
            dot_cmd;
            profile_cmd;
          ]))
