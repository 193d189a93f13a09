open Ss_prelude
open Ss_topology

(* Render a float as a valid OCaml literal that round-trips exactly. *)
let float_lit f =
  let s = Printf.sprintf "%.17g" f in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s else s ^ "."

let class_of_name name =
  match String.index_opt name '#' with
  | Some i -> String.sub name 0 i
  | None -> name

let dist_expr = function
  | Dist.Deterministic x ->
      Printf.sprintf "Ss_prelude.Dist.Deterministic %s" (float_lit x)
  | Dist.Uniform (lo, hi) ->
      Printf.sprintf "Ss_prelude.Dist.Uniform (%s, %s)" (float_lit lo) (float_lit hi)
  | Dist.Exponential m ->
      Printf.sprintf "Ss_prelude.Dist.Exponential %s" (float_lit m)
  | Dist.Normal (m, s) ->
      Printf.sprintf "Ss_prelude.Dist.Normal (%s, %s)" (float_lit m) (float_lit s)
  | Dist.Erlang (k, m) ->
      Printf.sprintf "Ss_prelude.Dist.Erlang (%d, %s)" k (float_lit m)

let kind_expr = function
  | Operator.Stateless -> "Ss_topology.Operator.Stateless"
  | Operator.Stateful -> "Ss_topology.Operator.Stateful"
  | Operator.Partitioned_stateful keys ->
      let weights =
        Discrete.probs keys |> Array.to_list |> List.map float_lit
        |> String.concat "; "
      in
      Printf.sprintf
        "Ss_topology.Operator.Partitioned_stateful\n\
        \         (Ss_prelude.Discrete.of_weights [| %s |])"
        weights

let operator_expr (op : Operator.t) =
  Printf.sprintf
    "Ss_topology.Operator.make\n\
    \      ~kind:(%s)\n\
    \      ~dist:(%s)\n\
    \      ~input_selectivity:%s ~output_selectivity:%s ~replicas:%d\n\
    \      ~service_time:%s %S"
    (kind_expr op.Operator.kind)
    (dist_expr op.Operator.service_dist)
    (float_lit op.Operator.input_selectivity)
    (float_lit op.Operator.output_selectivity)
    op.Operator.replicas
    (float_lit op.Operator.service_time)
    op.Operator.name

(* Registry entry: a catalog lookup when the class is known, otherwise a
   cost-faithful stub with the declared selectivity. *)
let registry_arm v (op : Operator.t) =
  let cls = class_of_name op.Operator.name in
  match Ss_operators.Catalog.find cls with
  | Some _ ->
      Printf.sprintf "  | %d -> Ss_operators.Catalog.find_exn %S" v cls
  | None ->
      Printf.sprintf
        "  | %d ->\n\
        \      stub ~state_kind:%s ~sel_in:%s ~sel_out:%s\n\
        \        ~service_time:%s %S"
        v
        (match op.Operator.kind with
        | Operator.Stateless -> "Ss_operators.Behavior.Stateless_op"
        | Operator.Partitioned_stateful _ -> "Ss_operators.Behavior.Partitioned_op"
        | Operator.Stateful -> "Ss_operators.Behavior.Stateful_op")
        (float_lit op.Operator.input_selectivity)
        (float_lit op.Operator.output_selectivity)
        (float_lit op.Operator.service_time)
        cls

(* The drain policy is emitted explicitly so a generated program documents
   — and pins — how its actors drain their mailboxes, independently of the
   executor's defaults at deployment time. *)
let batch_expr = function
  | `Fixed b -> Printf.sprintf "`Fixed %d" b
  | `Adaptive b -> Printf.sprintf "`Adaptive %d" b

(* Source-level closed loop for a fused group whose members are all stubs:
   the stub bodies (busy-wait spin plus selectivity credit) are inlined
   into one mutually recursive step set — flat mutable state, no
   intermediate list, no per-tuple closure dispatch — with routing draws
   in the exact depth-first order of the interpreted walk, so per-vertex
   counts stay bit-identical to the interpreted executor and
   [Engine.replay]. Groups containing catalog members are not emitted
   here: their behaviors live in library code the generator cannot
   inline textually, and the runtime's deploy-time staging
   ([Fused_compile.plan]) already composes them through their inline
   hooks. *)
let emit_chain buf ~gi ~members topology =
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
  in
  let in_group v = List.mem v members in
  let succs v = Topology.succs topology v in
  let topo_members =
    Array.to_list (Topology.topological_order topology) |> List.filter in_group
  in
  let uses_rng = List.exists (fun v -> succs v <> []) members in
  let uses_emit =
    List.exists
      (fun v -> List.exists (fun (w, _) -> not (in_group w)) (succs v))
      members
  in
  let front = List.hd topo_members in
  line "let chain_%d (env : Ss_runtime.Fused_compile.env) =" gi;
  line "  let consumed = env.Ss_runtime.Fused_compile.consumed in";
  line "  let produced = env.Ss_runtime.Fused_compile.produced in";
  if uses_rng then line "  let rng = env.Ss_runtime.Fused_compile.rng in";
  if uses_emit then line "  let emit = env.Ss_runtime.Fused_compile.emit in";
  List.iter
    (fun v ->
      match succs v with
      | [] | [ _ ] ->
          (* Single-successor members draw a raw [Rng.float] below — no
             table to search. *)
          ()
      | edges ->
          line "  let dist_%d = Ss_prelude.Discrete.of_weights [| %s |] in" v
            (String.concat "; " (List.map (fun (_, p) -> float_lit p) edges)))
    topo_members;
  let sel_of v =
    let op = Topology.operator topology v in
    op.Operator.output_selectivity /. op.Operator.input_selectivity
  in
  List.iter
    (fun v -> if sel_of v <> 1.0 then line "  let credit_%d = ref 0.0 in" v)
    topo_members;
  (* Route one produced tuple of [v]: count it, draw the successor (one
     draw whenever [v] has successors, single-successor members included —
     the interpreted chooser samples its one-point support too, and the
     shared group rng must stay in lockstep), then either recurse into an
     in-group member or leave through [emit]. *)
  let route_lines ~indent v =
    let pad = String.make indent ' ' in
    line "%sproduced.(%d) <- produced.(%d) + 1;" pad v v;
    let hop (w, _) =
      if in_group w then Printf.sprintf "step_%d t" w
      else Printf.sprintf "emit %d %d t" v w
    in
    match succs v with
    | [] -> ()
    | [ e ] ->
        (* One-point support: the interpreted chooser consumes one
           [Rng.float] here too, so draw it raw to stay in lockstep. *)
        line "%signore (Ss_prelude.Rng.float rng : float);" pad;
        line "%s%s" pad (hop e)
    | edges ->
        line "%s(match Ss_prelude.Discrete.sample rng dist_%d with" pad v;
        List.iteri
          (fun i e ->
            if i < List.length edges - 1 then line "%s | %d -> %s" pad i (hop e)
            else line "%s | _ -> %s)" pad (hop e))
          edges
  in
  List.iteri
    (fun i v ->
      let op = Topology.operator topology v in
      let kw = if i = 0 then "let rec" else "and" in
      let param = if succs v = [] then "_t" else "t" in
      line "  %s step_%d %s =" kw v param;
      line "    consumed.(%d) <- consumed.(%d) + 1;" v v;
      line "    let deadline = Unix.gettimeofday () +. %s in"
        (float_lit op.Operator.service_time);
      line "    while Unix.gettimeofday () < deadline do () done;";
      let sel = sel_of v in
      if sel = 1.0 then route_lines ~indent:4 v
      else begin
        line "    credit_%d := !credit_%d +. %s;" v v (float_lit sel);
        line "    let k = int_of_float !credit_%d in" v;
        line "    credit_%d := !credit_%d -. float_of_int k;" v v;
        line "    for _i = 1 to k do";
        route_lines ~indent:6 v;
        line "    done"
      end)
    topo_members;
  line "  in";
  line "  step_%d" front;
  line ""

let program ?(fused = []) ?(fusion = `Auto) ?(tuples = 100_000) ?(seed = 42)
    ?placement ?(batch = `Adaptive 32)
    ?(telemetry = false) topology =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let src = Topology.source topology in
  (* Groups eligible for source-level closed loops: every member resolves
     to a stub, so the whole body is generator-owned text. *)
  let chain_groups =
    match fusion with
    | `Closed_loop ->
        List.mapi (fun gi g -> (gi, g)) fused
        |> List.filter (fun (_, g) ->
               List.for_all
                 (fun v ->
                   let op = Topology.operator topology v in
                   Option.is_none
                     (Ss_operators.Catalog.find
                        (class_of_name op.Operator.name)))
                 g)
    | `Auto | `Interpreted -> []
  in
  line "(* Generated by SpinStreams. Deploys the optimized topology on the";
  line "   ss_runtime actor executor; regenerate rather than edit. *)";
  line "";
  line "let topology =";
  line "  let ops = [|";
  Array.iteri
    (fun v op ->
      ignore v;
      line "    %s;" (operator_expr op))
    (Topology.operators topology);
  line "  |] in";
  line "  Ss_topology.Topology.create_exn ops";
  line "    [";
  List.iter
    (fun (u, v, p) -> line "      (%d, %d, %s);" u v (float_lit p))
    (Topology.edges topology);
  line "    ]";
  line "";
  line "(* Cost-faithful stand-in for operators outside the catalog: spins for";
  line "   the profiled service time and reproduces the declared selectivity. *)";
  line "let stub ~state_kind ~sel_in ~sel_out ~service_time name =";
  line "  Ss_operators.Behavior.make ~state_kind ~input_selectivity:sel_in";
  line "    ~output_selectivity:sel_out ~name (fun () ->";
  line "      let credit = ref 0.0 in";
  line "      fun t ->";
  line "        let deadline = Unix.gettimeofday () +. service_time in";
  line "        while Unix.gettimeofday () < deadline do () done;";
  line "        credit := !credit +. (sel_out /. sel_in);";
  line "        let k = int_of_float !credit in";
  line "        credit := !credit -. float_of_int k;";
  line "        List.init k (fun _ -> t))";
  line "";
  line "let registry = function";
  Array.iteri
    (fun v op ->
      if v <> src then Buffer.add_string buf (registry_arm v op ^ "\n"))
    (Topology.operators topology);
  line "  | v -> invalid_arg (Printf.sprintf \"no behavior for vertex %%d\" v)";
  line "";
  if chain_groups <> [] then begin
    line "(* Closed loops: each fused group below is compiled here, at";
    line "   generation time, into one flat step set — member bodies inlined,";
    line "   flat mutable state, one routing draw per produced tuple in the";
    line "   interpreted walk's depth-first order, so per-vertex counts are";
    line "   identical to the interpreted executor and [Engine.replay]. *)";
    List.iter
      (fun (gi, g) -> emit_chain buf ~gi ~members:g topology)
      chain_groups
  end;
  line "let () =";
  line "  let rng = Ss_prelude.Rng.create %d in" seed;
  line "  let stream = Ss_workload.Stream_gen.tuples rng %d in" tuples;
  line "  let metrics =";
  line "    Ss_runtime.Executor.run";
  (match fused with
  | [] -> ()
  | groups ->
      let rendered =
        groups
        |> List.map (fun g ->
               "[ " ^ String.concat "; " (List.map string_of_int g) ^ " ]")
        |> String.concat "; "
      in
      line "      ~fused:[ %s ]" rendered);
  (match fusion with
  | `Interpreted -> line "      ~fusion:`Interpreted"
  | `Auto | `Closed_loop -> ());
  if chain_groups <> [] then
    line "      ~chains:[ %s ]"
      (String.concat "; "
         (List.map
            (fun (gi, g) ->
              Printf.sprintf "([ %s ], chain_%d)"
                (String.concat "; " (List.map string_of_int g))
                gi)
            chain_groups));
  (match placement with
  | None -> ()
  | Some p ->
      (* Pin the placement assignment in the generated source: the
         deployed program keeps its locality plan even when re-run on a
         machine with a different core count. *)
      line "      ~placement:[| %s |]"
        (String.concat "; " (Array.to_list (Array.map string_of_int p))));
  line "      ~batch:(%s)" (batch_expr batch);
  if telemetry then begin
    line "      ~instrument:";
    line "        { Ss_runtime.Executor.default_instrument with telemetry = true }"
  end;
  line "      ~source:(Ss_runtime.Executor.source_of_list stream)";
  line "      ~registry topology";
  line "  in";
  line "  Format.printf \"outcome: %%a@.\" Ss_runtime.Supervision.pp_outcome";
  line "    metrics.Ss_runtime.Executor.outcome;";
  line "  Printf.printf \"elapsed: %%.3f s\\n\" metrics.Ss_runtime.Executor.elapsed;";
  line "  Printf.printf \"source rate: %%.1f tuples/s\\n\"";
  line "    metrics.Ss_runtime.Executor.source_rate;";
  line "  Array.iteri";
  line "    (fun v consumed ->";
  line "      Printf.printf \"vertex %%d: consumed %%d, produced %%d\\n\" v consumed";
  line "        metrics.Ss_runtime.Executor.produced.(v))";
  line "    metrics.Ss_runtime.Executor.consumed;";
  if telemetry then begin
    line "  (match metrics.Ss_runtime.Executor.telemetry with";
    line "  | None -> ()";
    line "  | Some report ->";
    line "      Array.iteri";
    line "        (fun v h ->";
    line "          if not (Ss_telemetry.Histogram.is_empty h) then";
    line "            Format.printf \"vertex %%d latency: %%a@.\" v";
    line "              Ss_telemetry.Histogram.pp_snapshot";
    line "              (Ss_telemetry.Histogram.snapshot h))";
    line "        report.Ss_telemetry.Telemetry.latency);";
  end;
  line "  if metrics.Ss_runtime.Executor.outcome <> Ss_runtime.Supervision.Finished";
  line "  then exit 1";
  Buffer.contents buf

let dune_stanza ~name =
  Printf.sprintf
    "(executable\n (name %s)\n (libraries ss_prelude ss_topology ss_operators \
     ss_workload ss_runtime ss_telemetry unix))\n"
    name

let write_project ~dir ~name ?fused ?fusion ?tuples ?seed ?placement ?batch
    ?telemetry topology =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let write path contents =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc contents)
  in
  write
    (Filename.concat dir (name ^ ".ml"))
    (program ?fused ?fusion ?tuples ?seed ?placement ?batch ?telemetry
       topology);
  write (Filename.concat dir "dune") (dune_stanza ~name)
