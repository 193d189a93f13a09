open Ss_topology
open Ss_operators

(* Busy-wait stand-in matching the stub emitted by Codegen: same cost, same
   selectivity, no business logic. Partitioned-stateful stubs are built
   migratable (their keyed state is empty — there is nothing to move) so a
   live deployment can resize them like the generated programs' real
   partitioned operators would. *)
let stub (op : Operator.t) =
  let name = Codegen.class_of_name op.Operator.name in
  let mk_fn () =
    let credit = ref 0.0 in
    fun t ->
      let deadline = Unix.gettimeofday () +. op.Operator.service_time in
      while Unix.gettimeofday () < deadline do () done;
      credit := !credit +. Operator.selectivity_factor op;
      let k = int_of_float !credit in
      credit := !credit -. float_of_int k;
      List.init k (fun _ -> t)
  in
  match op.Operator.kind with
  | Operator.Partitioned_stateful _ ->
      Behavior.make_migratable
        ~input_selectivity:op.Operator.input_selectivity
        ~output_selectivity:op.Operator.output_selectivity ~name (fun () ->
          {
            Behavior.mfn = mk_fn ();
            export_state = (fun () -> []);
            import_state = ignore;
          })
  | Operator.Stateless | Operator.Stateful ->
      let state_kind =
        match op.Operator.kind with
        | Operator.Stateless -> Behavior.Stateless_op
        | _ -> Behavior.Stateful_op
      in
      Behavior.make ~state_kind
        ~input_selectivity:op.Operator.input_selectivity
        ~output_selectivity:op.Operator.output_selectivity ~name mk_fn

let resolve op =
  let cls = Codegen.class_of_name op.Operator.name in
  match Ss_event.Event_window.of_name cls with
  | Some behavior -> behavior
  | None -> (
      match Catalog.find cls with
      | Some behavior -> behavior
      | None -> stub op)

let registry topology v = resolve (Topology.operator topology v)

let run ?ingest ?mailbox_capacity ?fused ?fusion ?ordered ?(seed = 42)
    ?(tuples = 10_000) ?timeout ?workers ?placement ?batch
    ?instrument ?event_time ?(disorder = Ss_workload.Stream_gen.In_order)
    ?stream_spec topology =
  (* A log-backed run replays the ingest log; generating a synthetic
     stream would be wasted work, so the source collapses to nothing. *)
  let source =
    match ingest with
    | Some _ -> fun () -> None
    | None ->
        let rng = Ss_prelude.Rng.create seed in
        Ss_runtime.Executor.source_of_list
          (Ss_workload.Stream_gen.reorder rng disorder
             (Ss_workload.Stream_gen.tuples ?spec:stream_spec rng tuples))
  in
  Ss_runtime.Executor.run ?ingest ?mailbox_capacity ?fused ?fusion ?ordered
    ~seed
    ?timeout ?workers ?placement ?batch ?instrument ?event_time
    ~source ~registry:(registry topology) topology

(* Disorder an unbounded stream chunk by chunk: each block of [chunk]
   tuples is permuted independently, so the reordering horizon stays
   bounded and the stream remains lazy. *)
let reorder_seq rng disorder seq =
  match disorder with
  | Ss_workload.Stream_gen.In_order -> seq
  | _ ->
      let chunk = 1024 in
      let rec take k acc seq =
        if k = 0 then (List.rev acc, seq)
        else
          match Seq.uncons seq with
          | None -> (List.rev acc, Seq.empty)
          | Some (t, rest) -> take (k - 1) (t :: acc) rest
      in
      let rec blocks seq () =
        match take chunk [] seq with
        | [], _ -> Seq.Nil
        | block, rest ->
            Seq.Cons
              (List.to_seq (Ss_workload.Stream_gen.reorder rng disorder block),
               blocks rest)
      in
      Seq.concat (blocks seq)

let live ?mailbox_capacity ?(seed = 42) ?timeout ?workers ?reserve ?rate
    ?tuples ?instrument ?event_time
    ?(disorder = Ss_workload.Stream_gen.In_order) ?stream_spec topology =
  let rng = Ss_prelude.Rng.create seed in
  let seq =
    ref
      (reorder_seq rng disorder
         (match tuples with
         | Some n ->
             List.to_seq
               (Ss_workload.Stream_gen.tuples ?spec:stream_spec rng n)
         | None -> Ss_workload.Stream_gen.sequence ?spec:stream_spec rng))
  in
  let next () =
    match Seq.uncons !seq with
    | Some (t, rest) ->
        seq := rest;
        Some t
    | None -> None
  in
  let rate =
    match rate with
    | Some r -> r
    | None ->
        Operator.service_rate
          (Topology.operator topology (Topology.source topology))
  in
  Ss_runtime.Executor.Live.start ?mailbox_capacity ~seed ?timeout ?workers
    ?reserve ?instrument ?event_time
    ~source:(Ss_runtime.Executor.source_throttled ~rate next)
    ~registry:(registry topology) topology
