(* Tests for the threaded actor runtime: mailboxes, actor wiring, fission
   and fusion deployment, routing and end-of-stream handling. *)

open Ss_topology
open Ss_operators
open Ss_runtime

let tuple ?(key = 0) ?(tag = 0) values = Tuple.make ~key ~tag values

let op ?kind ?output_selectivity name ms =
  Operator.make ?kind ?output_selectivity ~service_time:(ms /. 1e3) name

(* ------------------------------------------------------------------ *)
(* Mailbox *)

(* Every mailbox test runs against both rings behind the facade: the MPSC
   ring of [Mailbox.create] and the SPSC ring of [Mailbox.create_spsc].
   The tests below use at most one producer domain and one consumer
   domain, so they are legal SPSC schedules too. The [Mailbox.create] kind
   keeps the label "locking" it had when a mutex backed that constructor,
   so the per-kind test ids stay stable across the change. *)
let mailbox_kinds :
    (string * (capacity:int -> int Mailbox.t)) list =
  [
    ("locking", fun ~capacity -> Mailbox.create ~capacity);
    ("spsc", fun ~capacity -> Mailbox.create_spsc ~capacity);
  ]

let ring_kinds =
  [
    ("mpsc", fun ~capacity -> Mailbox.create ~capacity);
    ("spsc", fun ~capacity -> Mailbox.create_spsc ~capacity);
  ]

let test_mailbox_fifo create () =
  let mb = create ~capacity:4 in
  Mailbox.put mb 1;
  Mailbox.put mb 2;
  Mailbox.put mb 3;
  Alcotest.(check int) "first" 1 (Mailbox.take mb);
  Alcotest.(check int) "second" 2 (Mailbox.take mb);
  Alcotest.(check int) "third" 3 (Mailbox.take mb)

let test_mailbox_try_operations create () =
  let mb = create ~capacity:2 in
  Alcotest.(check bool) "put ok" true (Mailbox.try_put mb 1);
  Alcotest.(check bool) "put ok" true (Mailbox.try_put mb 2);
  Alcotest.(check bool) "full" false (Mailbox.try_put mb 3);
  Alcotest.(check int) "length" 2 (Mailbox.length mb);
  Alcotest.(check (option int)) "take" (Some 1) (Mailbox.try_take mb);
  Alcotest.(check (option int)) "take" (Some 2) (Mailbox.try_take mb);
  Alcotest.(check (option int)) "empty" None (Mailbox.try_take mb)

let test_mailbox_blocking_put create () =
  (* A full mailbox blocks the producer until the consumer drains it. *)
  let mb = create ~capacity:1 in
  Mailbox.put mb 0;
  let unblocked = Atomic.make false in
  let producer =
    Domain.spawn (fun () ->
        Mailbox.put mb 1;
        (* reached only after the main domain takes the first element *)
        Atomic.set unblocked true)
  in
  Unix.sleepf 0.05;
  Alcotest.(check bool) "producer still blocked" false (Atomic.get unblocked);
  Alcotest.(check int) "drain" 0 (Mailbox.take mb);
  Domain.join producer;
  Alcotest.(check bool) "producer resumed" true (Atomic.get unblocked);
  Alcotest.(check int) "second value arrived" 1 (Mailbox.take mb)

let test_mailbox_blocking_take create () =
  let mb = create ~capacity:1 in
  let consumer = Domain.spawn (fun () -> Mailbox.take mb) in
  Unix.sleepf 0.02;
  Mailbox.put mb 42;
  Alcotest.(check int) "value handed over" 42 (Domain.join consumer)

let test_mailbox_invalid_capacity create () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Mailbox.create: capacity must be >= 1") (fun () ->
      ignore (create ~capacity:0))

(* ------------------------------------------------------------------ *)
(* Mailbox close / poison protocol *)

let test_mailbox_close_wakes_producer create () =
  let mb = create ~capacity:1 in
  Mailbox.put mb 0;
  let producer =
    Domain.spawn (fun () ->
        try
          Mailbox.put mb 1;
          `Put_succeeded
        with Mailbox.Closed -> `Woke_closed)
  in
  Unix.sleepf 0.05;
  (* producer is blocked on the full mailbox; close must wake it *)
  Mailbox.close mb;
  Alcotest.(check bool) "blocked producer woke with Closed" true
    (Domain.join producer = `Woke_closed)

let test_mailbox_close_wakes_consumer create () =
  let mb : int Mailbox.t = create ~capacity:4 in
  let consumer =
    Domain.spawn (fun () ->
        try
          ignore (Mailbox.take mb);
          `Take_succeeded
        with Mailbox.Closed -> `Woke_closed)
  in
  Unix.sleepf 0.05;
  Mailbox.close mb;
  Alcotest.(check bool) "blocked consumer woke with Closed" true
    (Domain.join consumer = `Woke_closed)

let test_mailbox_closed_operations create () =
  let mb = create ~capacity:2 in
  Mailbox.put mb 1;
  Mailbox.close mb;
  Mailbox.close mb;
  (* idempotent *)
  Alcotest.(check bool) "reports closed" true (Mailbox.is_closed mb);
  Alcotest.(check int) "pending items discarded" 0 (Mailbox.length mb);
  let raises_closed f =
    try
      ignore (f ());
      false
    with Mailbox.Closed -> true
  in
  Alcotest.(check bool) "put raises" true (raises_closed (fun () -> Mailbox.put mb 2));
  Alcotest.(check bool) "take raises" true (raises_closed (fun () -> Mailbox.take mb));
  Alcotest.(check bool) "try_put raises" true
    (raises_closed (fun () -> Mailbox.try_put mb 2));
  Alcotest.(check bool) "try_take raises" true
    (raises_closed (fun () -> Mailbox.try_take mb))

let drain_list mb ~max =
  let q = Queue.create () in
  let occ = Mailbox.take_batch mb ~max ~into:q in
  (occ, List.of_seq (Queue.to_seq q))

let test_mailbox_put_batch create () =
  let mb = create ~capacity:4 in
  (* try_put_chunk fills the free slots and hands back the leftover. *)
  Mailbox.put mb 0;
  let leftover = Mailbox.try_put_chunk mb [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check (list int)) "leftover suffix" [ 4; 5 ] leftover;
  Alcotest.(check int) "filled to capacity" 4 (Mailbox.length mb);
  Alcotest.(check (list int)) "chunk on full is identity" [ 9 ]
    (Mailbox.try_put_chunk mb [ 9 ]);
  (* put_batch blocks for space; a consumer domain drains it through. *)
  let consumer =
    Domain.spawn (fun () -> List.init 9 (fun _ -> Mailbox.take mb))
  in
  Mailbox.put_batch mb [ 4; 5; 6; 7; 8 ];
  Alcotest.(check (list int)) "order preserved across the batch"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ] (Domain.join consumer);
  (* Empty batches are no-ops, even on a closed mailbox. *)
  Mailbox.put_batch mb [];
  Alcotest.(check (list int)) "empty chunk" [] (Mailbox.try_put_chunk mb []);
  Mailbox.close mb;
  Mailbox.put_batch mb [];
  Alcotest.(check (list int)) "empty chunk after close" []
    (Mailbox.try_put_chunk mb []);
  Alcotest.check_raises "non-empty batch raises after close" Mailbox.Closed
    (fun () -> Mailbox.put_batch mb [ 1 ])

(* Model-based property test: drive each ring through a randomized
   single-threaded schedule of non-blocking operations and compare every
   observable — returned values, lengths, waiter firings, Closed raises —
   with a pure sequential model: a queue plus capacity, a closed flag and
   the waiter lists. The model encodes the one-consumer contract: at most
   one item waiter is outstanding, and registering a second one is
   refused. *)
type model = {
  items : int list; (* queue order *)
  closed : bool;
  item_waiter : bool; (* an item waiter is outstanding *)
  space_waiters : int; (* outstanding space waiters *)
  fired : int; (* callbacks fired so far *)
}

let mailbox_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun x -> `Try_put x) (int_bound 1000));
        (4, return `Try_take);
        (2, map (fun n -> `Take_batch (1 + n)) (int_bound 6));
        (2, map (fun xs -> `Put_chunk xs) (list_size (int_bound 5) (int_bound 1000)));
        (1, return `On_item);
        (1, return `On_space);
        (1, return `Length);
        (1, return `Close);
      ])

let rec split_at n = function
  | x :: rest when n > 0 ->
      let taken, left = split_at (n - 1) rest in
      (x :: taken, left)
  | xs -> ([], xs)

(* A put that enqueued something fires the item waiter; a take that freed
   a slot fires every space waiter; close fires all. *)
let fire_item m =
  if m.item_waiter then { m with item_waiter = false; fired = m.fired + 1 }
  else m

let fire_space m = { m with space_waiters = 0; fired = m.fired + m.space_waiters }

let model_step ~capacity m op =
  let len = List.length m.items in
  match op with
  | (`Try_put _ | `Try_take | `Take_batch _) when m.closed -> (m, `Closed)
  | `Put_chunk [] -> (m, `List [])
  | `Put_chunk _ when m.closed -> (m, `Closed)
  | `Try_put x ->
      if len < capacity then (fire_item { m with items = m.items @ [ x ] }, `Bool true)
      else (m, `Bool false)
  | `Try_take -> (
      match m.items with
      | [] -> (m, `Opt None)
      | x :: rest -> (fire_space { m with items = rest }, `Opt (Some x)))
  | `Take_batch max ->
      let taken, rest = split_at max m.items in
      let m' = { m with items = rest } in
      ((if taken = [] then m' else fire_space m'), `Batch (len, taken))
  | `Put_chunk xs ->
      let put, rest = split_at (capacity - len) xs in
      let m' = { m with items = m.items @ put } in
      ((if put = [] then m' else fire_item m'), `List rest)
  | `On_item ->
      if m.closed || m.items <> [] then (m, `Park false)
      else if m.item_waiter then (m, `Refused)
      else ({ m with item_waiter = true }, `Park true)
  | `On_space ->
      if m.closed || len < capacity then (m, `Park false)
      else ({ m with space_waiters = m.space_waiters + 1 }, `Park true)
  | `Length -> (m, `Int (if m.closed then 0 else len))
  | `Close ->
      if m.closed then (m, `Unit)
      else
        ( fire_space (fire_item { m with closed = true; items = [] }),
          `Unit )

let apply_op mb fired op =
  let catching f = try f () with Mailbox.Closed -> `Closed in
  match op with
  | `Try_put x -> catching (fun () -> `Bool (Mailbox.try_put mb x))
  | `Try_take -> catching (fun () -> `Opt (Mailbox.try_take mb))
  | `Take_batch max ->
      catching (fun () ->
          let occ, xs = drain_list mb ~max in
          `Batch (occ, xs))
  | `Put_chunk xs -> catching (fun () -> `List (Mailbox.try_put_chunk mb xs))
  | `On_item -> (
      try `Park (Mailbox.on_item mb (fun () -> incr fired))
      with Invalid_argument _ -> `Refused)
  | `On_space -> `Park (Mailbox.on_space mb (fun () -> incr fired))
  | `Length -> `Int (Mailbox.length mb)
  | `Close ->
      Mailbox.close mb;
      `Unit

let print_schedule (capacity, ops) =
  let ints xs = String.concat ";" (List.map string_of_int xs) in
  Printf.sprintf "capacity %d: %s" capacity
    (String.concat ", "
       (List.map
          (function
            | `Try_put x -> Printf.sprintf "try_put %d" x
            | `Try_take -> "try_take"
            | `Take_batch n -> Printf.sprintf "take_batch %d" n
            | `Put_chunk xs -> Printf.sprintf "put_chunk [%s]" (ints xs)
            | `On_item -> "on_item"
            | `On_space -> "on_space"
            | `Length -> "length"
            | `Close -> "close")
          ops))

let test_mailbox_model (kind, create) =
  QCheck.Test.make ~count:500
    ~name:(Printf.sprintf "%s ring agrees with the sequential model" kind)
    (QCheck.make ~print:print_schedule
       QCheck.Gen.(
         pair (int_range 1 8) (list_size (int_bound 60) mailbox_op_gen)))
    (fun (capacity, ops) ->
      let mb = create ~capacity in
      let fired = ref 0 in
      let init =
        { items = []; closed = false; item_waiter = false; space_waiters = 0; fired = 0 }
      in
      let rec go m = function
        | [] -> true
        | op :: ops ->
            let m', expected = model_step ~capacity m op in
            let got = apply_op mb fired op in
            got = expected
            && !fired = m'.fired
            && Mailbox.length mb = (if m'.closed then 0 else List.length m'.items)
            && Mailbox.is_closed mb = m'.closed
            && go m' ops
      in
      go init ops)

(* ------------------------------------------------------------------ *)
(* Executor: basic pipelines *)

let registry_of table v =
  match List.assoc_opt v table with
  | Some b -> b
  | None -> Alcotest.failf "no behavior registered for vertex %d" v

let test_identity_pipeline () =
  let t =
    Topology.create_exn
      [| op "src" 0.1; op "a" 0.1; op "b" 0.1 |]
      [ (0, 1, 1.0); (1, 2, 1.0) ]
  in
  let inputs = List.init 500 (fun i -> tuple [| float_of_int i |]) in
  let m =
    Executor.run
      ~source:(Executor.source_of_list inputs)
      ~registry:(registry_of [ (1, Stateless_ops.identity); (2, Stateless_ops.identity) ])
      t
  in
  Alcotest.(check int) "source emitted" 500 m.Executor.produced.(0);
  Alcotest.(check int) "a consumed" 500 m.Executor.consumed.(1);
  Alcotest.(check int) "b consumed" 500 m.Executor.consumed.(2);
  Alcotest.(check int) "b produced" 500 m.Executor.produced.(2);
  Alcotest.(check bool) "rate positive" true (m.Executor.source_rate > 0.0)

let test_filter_counts () =
  let t =
    Topology.create_exn
      [| op "src" 0.1; op "filter" 0.1; op "sink" 0.1 |]
      [ (0, 1, 1.0); (1, 2, 1.0) ]
  in
  let inputs =
    List.init 400 (fun i -> tuple [| (if i mod 4 = 0 then 1.0 else 0.0) |])
  in
  let m =
    Executor.run
      ~source:(Executor.source_of_list inputs)
      ~registry:
        (registry_of
           [
             (1, Stateless_ops.threshold_filter ~index:0 ~threshold:0.5);
             (2, Stateless_ops.identity);
           ])
      t
  in
  Alcotest.(check int) "filter consumed all" 400 m.Executor.consumed.(1);
  Alcotest.(check int) "filter passed a quarter" 100 m.Executor.produced.(1);
  Alcotest.(check int) "sink consumed the survivors" 100 m.Executor.consumed.(2)

let test_probabilistic_split_conserves_flow () =
  let t =
    Topology.create_exn
      [| op "src" 0.1; op "a" 0.1; op "b" 0.1 |]
      [ (0, 1, 0.3); (0, 2, 0.7) ]
  in
  let inputs = List.init 2000 (fun i -> tuple [| float_of_int i |]) in
  let m =
    Executor.run
      ~source:(Executor.source_of_list inputs)
      ~registry:(registry_of [ (1, Stateless_ops.identity); (2, Stateless_ops.identity) ])
      t
  in
  Alcotest.(check int) "flow conserved" 2000
    (m.Executor.consumed.(1) + m.Executor.consumed.(2));
  (* 30/70 split within generous sampling noise *)
  Alcotest.(check bool)
    (Printf.sprintf "split ratio (%d to a)" m.Executor.consumed.(1))
    true
    (abs (m.Executor.consumed.(1) - 600) < 120)

let test_content_based_router () =
  let t =
    Topology.create_exn
      [| op "src" 0.1; op "low" 0.1; op "high" 0.1 |]
      [ (0, 1, 0.5); (0, 2, 0.5) ]
  in
  let inputs = List.init 100 (fun i -> tuple [| float_of_int i |]) in
  (* Successor 0 is vertex 1 ("low"), successor 1 is vertex 2 ("high"). *)
  let router t = if Tuple.value t 0 < 50.0 then 0 else 1 in
  let m =
    Executor.run
      ~routers:[ (0, router) ]
      ~source:(Executor.source_of_list inputs)
      ~registry:(registry_of [ (1, Stateless_ops.identity); (2, Stateless_ops.identity) ])
      t
  in
  Alcotest.(check int) "low got exactly half" 50 m.Executor.consumed.(1);
  Alcotest.(check int) "high got exactly half" 50 m.Executor.consumed.(2)

let test_diamond_join_counts () =
  let t = Fixtures.diamond ~pa:0.5 ~t_src:0.1 ~t_a:0.1 ~t_b:0.1 ~t_sink:0.1 in
  let inputs = List.init 1000 (fun i -> tuple [| float_of_int i |]) in
  let m =
    Executor.run
      ~source:(Executor.source_of_list inputs)
      ~registry:
        (registry_of
           [
             (1, Stateless_ops.identity);
             (2, Stateless_ops.identity);
             (3, Stateless_ops.identity);
           ])
      t
  in
  Alcotest.(check int) "sink sees every tuple" 1000 m.Executor.consumed.(3)

(* ------------------------------------------------------------------ *)
(* Fission deployment *)

let test_replicated_stateless () =
  let ops = [| op "src" 0.1; Operator.make ~service_time:1e-4 ~replicas:3 "w"; op "sink" 0.1 |] in
  let t = Topology.create_exn ops [ (0, 1, 1.0); (1, 2, 1.0) ] in
  let inputs = List.init 900 (fun i -> tuple [| float_of_int i |]) in
  let m =
    Executor.run
      ~source:(Executor.source_of_list inputs)
      ~registry:(registry_of [ (1, Stateless_ops.identity); (2, Stateless_ops.identity) ])
      t
  in
  Alcotest.(check int) "all consumed across replicas" 900 m.Executor.consumed.(1);
  Alcotest.(check int) "all delivered to the sink" 900 m.Executor.consumed.(2)

let test_partitioned_key_affinity () =
  (* Each replica instance must observe a disjoint key set. The behavior
     below records, per fresh instance, which keys it saw. *)
  let instances : (int, unit) Hashtbl.t list ref = ref [] in
  let mutex = Mutex.create () in
  let recording =
    Behavior.make ~state_kind:Behavior.Partitioned_op ~name:"recorder"
      (fun () ->
        let mine = Hashtbl.create 16 in
        Mutex.lock mutex;
        instances := mine :: !instances;
        Mutex.unlock mutex;
        fun t ->
          Hashtbl.replace mine t.Tuple.key ();
          [ t ])
  in
  let keys = Ss_prelude.Discrete.uniform 16 in
  let ops =
    [|
      op "src" 0.05;
      Operator.make
        ~kind:(Operator.Partitioned_stateful keys)
        ~service_time:1e-4 ~replicas:3 "keyed";
    |]
  in
  let t = Topology.create_exn ops [ (0, 1, 1.0) ] in
  let inputs = List.init 800 (fun i -> tuple ~key:(i mod 16) [| 0.0 |]) in
  let m =
    Executor.run
      ~source:(Executor.source_of_list inputs)
      ~registry:(registry_of [ (1, recording) ])
      t
  in
  Alcotest.(check int) "all tuples processed" 800 m.Executor.consumed.(1);
  let sets = List.map (fun h -> List.of_seq (Hashtbl.to_seq_keys h)) !instances in
  Alcotest.(check int) "three instances" 3 (List.length sets);
  let all = List.concat sets in
  Alcotest.(check int) "instances saw disjoint keys" (List.length all)
    (List.length (List.sort_uniq compare all))

let collect_order () =
  (* A sink behavior recording arrival order of value 0. *)
  let seen = ref [] in
  let mutex = Mutex.create () in
  let behavior =
    Behavior.make ~name:"order_probe" (fun () t ->
        Mutex.lock mutex;
        seen := Tuple.value t 0 :: !seen;
        Mutex.unlock mutex;
        [ t ])
  in
  (behavior, fun () -> List.rev !seen)

let variable_delay =
  (* Work inversely proportional to the value: early tuples are slow, so an
     unordered collector would emit later tuples first. *)
  Behavior.make ~name:"variable_delay" (fun () t ->
      let spins = 600 * (3 - (int_of_float (Tuple.value t 0) mod 3)) in
      let acc = ref 0.0 in
      for i = 1 to spins do
        acc := !acc +. sin (float_of_int i)
      done;
      ignore !acc;
      [ t ])

let ordered_topology () =
  Topology.create_exn
    [|
      op "src" 0.01;
      Operator.make ~service_time:1e-4 ~replicas:3 "workers";
      op "sink" 0.01;
    |]
    [ (0, 1, 1.0); (1, 2, 1.0) ]

let test_ordered_fission_preserves_order () =
  let probe, seen = collect_order () in
  let inputs = List.init 600 (fun i -> tuple [| float_of_int i |]) in
  let m =
    Executor.run ~ordered:[ 1 ]
      ~source:(Executor.source_of_list inputs)
      ~registry:(registry_of [ (1, variable_delay); (2, probe) ])
      (ordered_topology ())
  in
  Alcotest.(check int) "all processed" 600 m.Executor.consumed.(2);
  let received = seen () in
  Alcotest.(check (list (float 0.))) "exact source order"
    (List.init 600 float_of_int) received

let test_ordered_fission_with_selectivity () =
  (* A filter dropping two thirds still emits the survivors in order. *)
  let probe, seen = collect_order () in
  let keep_multiples_of_3 =
    Behavior.make ~name:"keep3" (fun () t ->
        if int_of_float (Tuple.value t 0) mod 3 = 0 then [ t ] else [])
  in
  let inputs = List.init 300 (fun i -> tuple [| float_of_int i |]) in
  let m =
    Executor.run ~ordered:[ 1 ]
      ~source:(Executor.source_of_list inputs)
      ~registry:(registry_of [ (1, keep_multiples_of_3); (2, probe) ])
      (ordered_topology ())
  in
  Alcotest.(check int) "survivors" 100 m.Executor.consumed.(2);
  Alcotest.(check (list (float 0.))) "order kept through the filter"
    (List.init 100 (fun i -> float_of_int (3 * i)))
    (seen ())

let test_ordered_fission_validation () =
  let source = Executor.source_of_list [] in
  let registry = registry_of [ (1, Stateless_ops.identity) ] in
  (* Not replicated. *)
  let t =
    Topology.create_exn [| op "src" 0.01; op "x" 0.01 |] [ (0, 1, 1.0) ]
  in
  (try
     ignore (Executor.run ~ordered:[ 1 ] ~source ~registry t);
     Alcotest.fail "expected rejection"
   with Invalid_argument _ -> ());
  (* Partitioned-stateful. *)
  let t =
    Topology.create_exn
      [|
        op "src" 0.01;
        Operator.make
          ~kind:(Operator.Partitioned_stateful (Ss_prelude.Discrete.uniform 4))
          ~service_time:1e-4 ~replicas:2 "keyed";
      |]
      [ (0, 1, 1.0) ]
  in
  try
    ignore (Executor.run ~ordered:[ 1 ] ~source ~registry t);
    Alcotest.fail "expected rejection"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Fusion deployment (Algorithm 4) *)

let test_fused_group_equivalent_counts () =
  let build () =
    Topology.create_exn
      [| op "src" 0.05; op "a" 0.05; op "b" 0.05; op "sink" 0.05 |]
      [ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0) ]
  in
  let registry =
    registry_of
      [
        (1, Stateless_ops.scale ~factor:2.0);
        (2, Stateless_ops.threshold_filter ~index:0 ~threshold:1.0);
        (3, Stateless_ops.identity);
      ]
  in
  let inputs () = List.init 600 (fun i -> tuple [| float_of_int i /. 600.0 |]) in
  let plain =
    Executor.run ~source:(Executor.source_of_list (inputs ())) ~registry (build ())
  in
  let fused =
    Executor.run ~fused:[ [ 1; 2 ] ]
      ~source:(Executor.source_of_list (inputs ()))
      ~registry (build ())
  in
  Alcotest.(check int) "same tuples through a" plain.Executor.consumed.(1)
    fused.Executor.consumed.(1);
  Alcotest.(check int) "same tuples through b" plain.Executor.consumed.(2)
    fused.Executor.consumed.(2);
  Alcotest.(check int) "same sink deliveries" plain.Executor.consumed.(3)
    fused.Executor.consumed.(3)

let test_fused_branching_group () =
  (* Fused sub-graph with an internal probabilistic branch: flow is
     conserved between the meta-operator and the external sink. *)
  let t =
    Topology.create_exn
      [| op "src" 0.05; op "fe" 0.05; op "l" 0.05; op "r" 0.05; op "sink" 0.05 |]
      [ (0, 1, 1.0); (1, 2, 0.5); (1, 3, 0.5); (2, 4, 1.0); (3, 4, 1.0) ]
  in
  let registry =
    registry_of
      (List.map (fun v -> (v, Stateless_ops.identity)) [ 1; 2; 3; 4 ])
  in
  let inputs = List.init 500 (fun i -> tuple [| float_of_int i |]) in
  let m =
    Executor.run ~fused:[ [ 1; 2; 3 ] ]
      ~source:(Executor.source_of_list inputs)
      ~registry t
  in
  Alcotest.(check int) "front-end consumed all" 500 m.Executor.consumed.(1);
  Alcotest.(check int) "branches partition the flow" 500
    (m.Executor.consumed.(2) + m.Executor.consumed.(3));
  Alcotest.(check int) "sink got every tuple" 500 m.Executor.consumed.(4)

let test_fused_errors () =
  let t = Fixtures.diamond ~pa:0.5 ~t_src:0.1 ~t_a:0.1 ~t_b:0.1 ~t_sink:0.1 in
  let registry =
    registry_of (List.map (fun v -> (v, Stateless_ops.identity)) [ 1; 2; 3 ])
  in
  let source = Executor.source_of_list [] in
  (* Two entry points. *)
  (try
     ignore (Executor.run ~fused:[ [ 1; 2 ] ] ~source ~registry t);
     Alcotest.fail "expected illegal group"
   with Invalid_argument _ -> ());
  (* Overlapping groups. *)
  try
    ignore (Executor.run ~fused:[ [ 1; 3 ]; [ 3 ] ] ~source ~registry t);
    Alcotest.fail "expected overlap error"
  with Invalid_argument _ -> ()

let test_windowed_operator_in_pipeline () =
  let ops =
    [|
      op "src" 0.05;
      Operator.make ~service_time:1e-4 ~input_selectivity:10.0 "agg";
      op "sink" 0.05;
    |]
  in
  let t = Topology.create_exn ops [ (0, 1, 1.0); (1, 2, 1.0) ] in
  let behavior =
    Window_ops.sum
      ~spec:{ Window_ops.default_spec with Window_ops.length = 50; slide = 10 }
      ()
  in
  let inputs = List.init 500 (fun _ -> tuple [| 1.0 |]) in
  let m =
    Executor.run
      ~source:(Executor.source_of_list inputs)
      ~registry:(registry_of [ (1, behavior); (2, Stateless_ops.identity) ])
      t
  in
  (* Fires at 50, 60, ..., 500: 46 results of value 50. *)
  Alcotest.(check int) "window firings" 46 m.Executor.produced.(1);
  Alcotest.(check int) "sink receives the aggregates" 46 m.Executor.consumed.(2)

let test_small_mailboxes_still_drain () =
  (* Backpressure with capacity-1 mailboxes must not deadlock. *)
  let t = Fixtures.diamond ~pa:0.5 ~t_src:0.1 ~t_a:0.1 ~t_b:0.1 ~t_sink:0.1 in
  let inputs = List.init 300 (fun i -> tuple [| float_of_int i |]) in
  let m =
    Executor.run ~mailbox_capacity:1
      ~source:(Executor.source_of_list inputs)
      ~registry:
        (registry_of (List.map (fun v -> (v, Stateless_ops.identity)) [ 1; 2; 3 ]))
      t
  in
  Alcotest.(check int) "drained" 300 m.Executor.consumed.(3)

(* ------------------------------------------------------------------ *)
(* Supervision: failure containment, timeout, per-actor metrics.

   Before the supervised runtime, a raising behavior killed its domain and
   left every other actor blocked in Mailbox.take/put forever, so each of
   these tests would hang. The watchdog turns any regression back into a
   prompt, diagnosable failure: it hard-exits the test binary (leaked
   wedged domains would otherwise also block normal process exit). *)

let with_watchdog ?(limit = 30.0) f =
  let result = Atomic.make None in
  let d =
    Domain.spawn (fun () ->
        Atomic.set result (Some (try Ok (f ()) with e -> Error e)))
  in
  let t0 = Unix.gettimeofday () in
  let rec wait () =
    match Atomic.get result with
    | Some r -> (
        Domain.join d;
        match r with Ok v -> v | Error e -> raise e)
    | None ->
        if Unix.gettimeofday () -. t0 > limit then begin
          prerr_endline "watchdog: supervised run hung; killing test binary";
          Unix._exit 125
        end;
        Unix.sleepf 0.01;
        wait ()
  in
  wait ()

let bomb ~at =
  Behavior.make ~name:"bomb" (fun () t ->
      if Tuple.value t 0 >= at then failwith "boom" else [ t ])

(* Every actor whose behavior raised is reported [Failed], and the outcome
   carries the first one recorded (see [Supervision]). Where one actor runs
   the bomb, exactly one fails. Under fission ([~replicas_of] names the
   replicated operator) every replica receives tuples past the threshold,
   so several may raise before the poison reaches them; each of them must
   be one of that operator's workers. *)
let check_failed_outcome ?replicas_of ~vertex (m : Executor.metrics) =
  let failed =
    List.filter_map
      (fun r ->
        match r.Supervision.status with
        | Supervision.Failed _ -> Some r.Supervision.actor
        | Supervision.Cancelled | Supervision.Completed -> None)
      m.Executor.actors
  in
  (match m.Executor.outcome with
  | Supervision.Actor_failed { actor; vertex = v; status = Failed { exn; _ } }
    ->
      Alcotest.(check (option int)) "failing vertex recorded" (Some vertex) v;
      Alcotest.(check bool)
        (Printf.sprintf "exception captured (%s)" exn)
        true
        (String.length exn > 0);
      Alcotest.(check bool)
        (Printf.sprintf "outcome actor %s is reported failed" actor)
        true (List.mem actor failed)
  | _ -> Alcotest.fail "expected Actor_failed outcome");
  (match replicas_of with
  | None -> Alcotest.(check int) "exactly one failed actor" 1 (List.length failed)
  | Some op ->
      Alcotest.(check bool) "some replica failed" true (failed <> []);
      List.iter
        (fun a ->
          Alcotest.(check bool)
            (Printf.sprintf "failed actor %s is a worker of %s" a op)
            true
            (String.starts_with ~prefix:(op ^ ".worker") a))
        failed);
  let cancelled =
    List.length
      (List.filter
         (fun r -> r.Supervision.status = Supervision.Cancelled)
         m.Executor.actors)
  in
  Alcotest.(check bool) "peers were cancelled, not stuck" true (cancelled >= 1)

let test_failure_single_actor () =
  let t =
    Topology.create_exn
      [| op "src" 0.01; op "bomb" 0.01; op "sink" 0.01 |]
      [ (0, 1, 1.0); (1, 2, 1.0) ]
  in
  let inputs = List.init 5000 (fun i -> tuple [| float_of_int i |]) in
  let m =
    with_watchdog (fun () ->
        Executor.run ~mailbox_capacity:4
          ~source:(Executor.source_of_list inputs)
          ~registry:(registry_of [ (1, bomb ~at:50.0); (2, Stateless_ops.identity) ])
          t)
  in
  check_failed_outcome ~vertex:1 m

let test_failure_replicated () =
  let ops =
    [| op "src" 0.01; Operator.make ~service_time:1e-4 ~replicas:3 "w"; op "sink" 0.01 |]
  in
  let t = Topology.create_exn ops [ (0, 1, 1.0); (1, 2, 1.0) ] in
  let inputs = List.init 5000 (fun i -> tuple [| float_of_int i |]) in
  let m =
    with_watchdog (fun () ->
        Executor.run ~mailbox_capacity:4
          ~source:(Executor.source_of_list inputs)
          ~registry:(registry_of [ (1, bomb ~at:100.0); (2, Stateless_ops.identity) ])
          t)
  in
  check_failed_outcome ~replicas_of:"w" ~vertex:1 m

let test_failure_fused () =
  let t =
    Topology.create_exn
      [| op "src" 0.01; op "a" 0.01; op "b" 0.01; op "sink" 0.01 |]
      [ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0) ]
  in
  let inputs = List.init 5000 (fun i -> tuple [| float_of_int i |]) in
  let m =
    with_watchdog (fun () ->
        Executor.run ~mailbox_capacity:4 ~fused:[ [ 1; 2 ] ]
          ~source:(Executor.source_of_list inputs)
          ~registry:
            (registry_of
               [
                 (1, Stateless_ops.identity);
                 (2, bomb ~at:50.0);
                 (3, Stateless_ops.identity);
               ])
          t)
  in
  (* The meta-operator actor is attributed to the group's front-end. *)
  check_failed_outcome ~vertex:1 m

let test_timeout_shuts_down () =
  let slow_sink =
    Behavior.make ~name:"slow_sink" (fun () t ->
        Unix.sleepf 0.02;
        [ t ])
  in
  let t =
    Topology.create_exn
      [| op "src" 0.01; op "sink" 0.01 |]
      [ (0, 1, 1.0) ]
  in
  let inputs = List.init 500 (fun i -> tuple [| float_of_int i |]) in
  let m =
    with_watchdog (fun () ->
        Executor.run ~timeout:0.15
          ~source:(Executor.source_of_list inputs)
          ~registry:(registry_of [ (1, slow_sink) ])
          t)
  in
  (match m.Executor.outcome with
  | Supervision.Timed_out s ->
      Alcotest.(check (float 1e-9)) "timeout value reported" 0.15 s
  | _ -> Alcotest.fail "expected Timed_out outcome");
  Alcotest.(check bool) "shut down promptly" true (m.Executor.elapsed < 5.0);
  Alcotest.(check bool) "cancelled actors reported" true
    (List.exists
       (fun r -> r.Supervision.status = Supervision.Cancelled)
       m.Executor.actors)

let test_fault_free_run_reports_completed () =
  let t =
    Topology.create_exn
      [| op "src" 0.1; op "a" 0.1; op "b" 0.1 |]
      [ (0, 1, 1.0); (1, 2, 1.0) ]
  in
  let inputs = List.init 500 (fun i -> tuple [| float_of_int i |]) in
  let m =
    with_watchdog (fun () ->
        Executor.run
          ~source:(Executor.source_of_list inputs)
          ~registry:
            (registry_of [ (1, Stateless_ops.identity); (2, Stateless_ops.identity) ])
          t)
  in
  Alcotest.(check bool) "finished" true (m.Executor.outcome = Supervision.Finished);
  Alcotest.(check int) "counts preserved" 500 m.Executor.consumed.(2);
  Alcotest.(check int) "one report per actor" 3 (List.length m.Executor.actors);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "actor %s completed" r.Supervision.actor)
        true
        (r.Supervision.status = Supervision.Completed))
    m.Executor.actors;
  Alcotest.(check int) "blocked array sized" 3 (Array.length m.Executor.blocked);
  Alcotest.(check int) "occupancy array sized" 3 (Array.length m.Executor.occupancy);
  Array.iter
    (fun b -> Alcotest.(check bool) "blocked non-negative" true (b >= 0.0))
    m.Executor.blocked;
  Array.iter
    (fun o -> Alcotest.(check bool) "occupancy non-negative" true (o >= 0.0))
    m.Executor.occupancy

let test_backpressure_is_measured () =
  (* A slow sink behind a tiny mailbox forces the source to block; the
     blocked-time metric (park-to-resume time of the source task) must
     observe it. *)
  let t =
    Topology.create_exn [| op "src" 0.01; op "sink" 0.01 |] [ (0, 1, 1.0) ]
  in
  let slow_sink =
    Behavior.make ~name:"slow_sink" (fun () t ->
        Unix.sleepf 0.002;
        [ t ])
  in
  let inputs = List.init 100 (fun i -> tuple [| float_of_int i |]) in
  let m =
    with_watchdog (fun () ->
        Executor.run ~workers:2 ~mailbox_capacity:1
          ~source:(Executor.source_of_list inputs)
          ~registry:(registry_of [ (1, slow_sink) ])
          t)
  in
  Alcotest.(check bool) "finished" true
    (m.Executor.outcome = Supervision.Finished);
  Alcotest.(check bool)
    (Printf.sprintf "source blocked time observed (%.4fs)"
       m.Executor.blocked.(0))
    true
    (m.Executor.blocked.(0) > 0.01)

let test_replicated_source_rejected () =
  let ops = [| Operator.make ~service_time:1e-3 ~replicas:2 "src"; op "s" 0.1 |] in
  let t = Topology.create_exn ops [ (0, 1, 1.0) ] in
  Alcotest.check_raises "replicated source"
    (Invalid_argument "Executor.run: the source operator cannot be replicated")
    (fun () ->
      ignore
        (Executor.run
           ~source:(Executor.source_of_list [])
           ~registry:(registry_of [ (1, Stateless_ops.identity) ])
           t))

let test_source_of_fn () =
  let src = Executor.source_of_fn ~count:3 (fun i -> tuple [| float_of_int i |]) in
  Alcotest.(check bool) "first" true (src () <> None);
  Alcotest.(check bool) "second" true (src () <> None);
  Alcotest.(check bool) "third" true (src () <> None);
  Alcotest.(check bool) "exhausted" true (src () = None)

let test_source_throttled_deficit_catchup () =
  (* After a consumer stall, the throttle catches its deficit up without
     sleeping — but never overshoots the long-run schedule (each tuple's
     slot stays [t0 + i/rate]): a bounded burst, then normal pacing. *)
  let rate = 1000.0 in
  let n = 300 in
  let src =
    Executor.source_throttled ~rate
      (Executor.source_of_fn ~count:n (fun i -> tuple [| float_of_int i |]))
  in
  let pull k =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to k do
      match src () with
      | Some _ -> ()
      | None -> Alcotest.fail "source exhausted early"
    done;
    Unix.gettimeofday () -. t0
  in
  (* Phase 1: paced consumption — 100 tuples at 1000/s is ~0.1 s. *)
  let paced = pull 100 in
  Alcotest.(check bool)
    (Printf.sprintf "paced phase took %.3fs (>= 0.08)" paced)
    true (paced >= 0.08);
  (* Phase 2: the consumer stalls for 0.15 s — a 150-tuple deficit. *)
  Unix.sleepf 0.15;
  (* Phase 3: the deficit drains without sleeping... *)
  let burst = pull 150 in
  Alcotest.(check bool)
    (Printf.sprintf "deficit caught up without sleeping (%.3fs < 0.1)" burst)
    true (burst < 0.1);
  (* ...and pacing resumes within tolerance: the remaining 50 tuples are
     back on their schedule slots, ~50 ms, never an unbounded burst. *)
  let resumed = pull 50 in
  Alcotest.(check bool)
    (Printf.sprintf "pacing resumed after catch-up (%.3fs >= 0.03)" resumed)
    true (resumed >= 0.03);
  Alcotest.(check bool) "stream exhausted" true (src () = None)

(* ------------------------------------------------------------------ *)
(* N:M scheduler: batch/waiter mailbox operations *)

let test_mailbox_take_batch create () =
  let mb = create ~capacity:8 in
  for i = 1 to 5 do
    Mailbox.put mb i
  done;
  (* take_batch reports the pre-drain occupancy: the adaptive drain's
     occupancy sample, observed for free. *)
  Alcotest.(check (pair int (list int)))
    "batch bounded" (5, [ 1; 2; 3 ]) (drain_list mb ~max:3);
  Alcotest.(check (pair int (list int)))
    "drains the rest" (2, [ 4; 5 ]) (drain_list mb ~max:10);
  Alcotest.(check (pair int (list int)))
    "empty batch" (0, []) (drain_list mb ~max:4);
  Alcotest.check_raises "max must be positive"
    (Invalid_argument "Mailbox.take_batch: max must be >= 1") (fun () ->
      ignore (drain_list mb ~max:0));
  (* The reusable drain buffer is appended to, not cleared. *)
  Mailbox.put mb 7;
  let q = Queue.create () in
  Queue.push 6 q;
  ignore (Mailbox.take_batch mb ~max:4 ~into:q);
  Alcotest.(check (list int)) "appends to the buffer" [ 6; 7 ]
    (List.of_seq (Queue.to_seq q));
  Mailbox.close mb;
  try
    ignore (drain_list mb ~max:1);
    Alcotest.fail "expected Closed"
  with Mailbox.Closed -> ()

let test_take_batch_wakes_blocked_producer create () =
  let mb = create ~capacity:2 in
  Mailbox.put mb 1;
  Mailbox.put mb 2;
  let producer = Domain.spawn (fun () -> Mailbox.put mb 3) in
  Unix.sleepf 0.02;
  Alcotest.(check (pair int (list int)))
    "batch drains" (2, [ 1; 2 ]) (drain_list mb ~max:8);
  Domain.join producer;
  Alcotest.(check (pair int (list int)))
    "producer got its slot" (1, [ 3 ]) (drain_list mb ~max:8)

let test_mailbox_waiter_registration create () =
  let mb = create ~capacity:1 in
  let fired = Atomic.make 0 in
  let cb () = Atomic.incr fired in
  (* Empty mailbox: space is available, items are not. *)
  Alcotest.(check bool) "space available -> no park" false (Mailbox.on_space mb cb);
  Alcotest.(check bool) "empty -> parks" true (Mailbox.on_item mb cb);
  Alcotest.(check int) "not fired yet" 0 (Atomic.get fired);
  Alcotest.(check bool) "put succeeds" true (Mailbox.try_put mb 1);
  Alcotest.(check int) "item arrival fires waiter" 1 (Atomic.get fired);
  (* Full mailbox: the duals. *)
  Alcotest.(check bool) "item present -> no park" false (Mailbox.on_item mb cb);
  Alcotest.(check bool) "full -> parks" true (Mailbox.on_space mb cb);
  Alcotest.(check (option int)) "take succeeds" (Some 1) (Mailbox.try_take mb);
  Alcotest.(check int) "freed slot fires waiter" 2 (Atomic.get fired);
  (* Closing both fires parked waiters and refuses new registrations. *)
  let mb2 : int Mailbox.t = create ~capacity:1 in
  Alcotest.(check bool) "parks while open" true (Mailbox.on_item mb2 cb);
  Mailbox.close mb2;
  Alcotest.(check int) "close fires parked waiter" 3 (Atomic.get fired);
  Alcotest.(check bool) "closed -> no park (item)" false (Mailbox.on_item mb2 cb);
  Alcotest.(check bool) "closed -> no park (space)" false (Mailbox.on_space mb2 cb)

let test_sched_parked_wakeup_on_close create () =
  (* A pooled task parked on an empty mailbox must wake when the mailbox is
     poisoned and observe Closed — the supervision shutdown path under the
     N:M scheduler. *)
  with_watchdog (fun () ->
      let mb : int Mailbox.t = create ~capacity:4 in
      let result = Atomic.make `Pending in
      let pool = Ss_sched.Sched.create ~workers:2 () in
      Ss_sched.Sched.spawn pool (fun () ->
          let rec read () =
            match Mailbox.try_take mb with
            | Some _ -> read ()
            | None ->
                Ss_sched.Sched.suspend ~register:(Mailbox.on_item mb);
                read ()
          in
          match read () with
          | () -> ()
          | exception Mailbox.Closed -> Atomic.set result `Woke_closed);
      let closer =
        Domain.spawn (fun () ->
            Unix.sleepf 0.05;
            Mailbox.close mb)
      in
      Ss_sched.Sched.run pool;
      Domain.join closer;
      Alcotest.(check bool) "parked task woke with Closed" true
        (Atomic.get result = `Woke_closed))

(* Multi-producer stress on the MPSC ring: three producer domains and one
   consumer domain through a capacity-4 ring, mixing spinning and
   blocking single puts with chunked puts. Every item must arrive exactly once, in per-producer FIFO
   order, with the occupancy never above the capacity; then [close] must
   wake parked producers and a parked consumer with [Closed]. *)
let test_mpsc_stress () =
  with_watchdog (fun () ->
      let capacity = 4 and producers = 3 and per_producer = 4000 in
      let mb : (int * int) Mailbox.t = Mailbox.create ~capacity in
      let over = Atomic.make 0 in
      let watch () =
        if Mailbox.length mb > capacity then Atomic.incr over
      in
      let producer p =
        Domain.spawn (fun () ->
            let i = ref 0 in
            while !i < per_producer do
              (match !i mod 4 with
              | 0 ->
                  (* Spinning producers race on the claim CAS; the spin
                     is bounded so a full ring falls back to parking
                     instead of burning a core. *)
                  let rec spin k =
                    if not (Mailbox.try_put mb (p, !i)) then
                      if k = 0 then Mailbox.put mb (p, !i)
                      else begin
                        Domain.cpu_relax ();
                        spin (k - 1)
                      end
                  in
                  spin 1000;
                  incr i
              | 1 ->
                  Mailbox.put mb (p, !i);
                  incr i
              | _ ->
                  let n = Stdlib.min 2 (per_producer - !i) in
                  Mailbox.put_batch mb (List.init n (fun j -> (p, !i + j)));
                  i := !i + n);
              watch ()
            done)
      in
      let consumer =
        Domain.spawn (fun () ->
            let next = Array.make producers 0 and dup_or_gap = ref 0 in
            let q = Queue.create () in
            let got = ref 0 in
            let accept (p, i) =
              if i <> next.(p) then incr dup_or_gap;
              next.(p) <- i + 1;
              incr got
            in
            while !got < producers * per_producer do
              watch ();
              if Mailbox.take_batch mb ~max:3 ~into:q = 0 then
                accept (Mailbox.take mb)
              else Queue.iter accept q;
              Queue.clear q
            done;
            (* Drained: park on the empty ring until [close]. *)
            let woke = try ignore (Mailbox.take mb); false with Mailbox.Closed -> true in
            (next, !dup_or_gap, woke))
      in
      let ds = List.init producers producer in
      List.iter Domain.join ds;
      Unix.sleepf 0.05;
      Mailbox.close mb;
      let next, dup_or_gap, woke = Domain.join consumer in
      Alcotest.(check (array int)) "every item arrived"
        (Array.make producers per_producer) next;
      Alcotest.(check int) "exactly once, in per-producer order" 0 dup_or_gap;
      Alcotest.(check int) "occupancy never above capacity" 0 (Atomic.get over);
      Alcotest.(check bool) "parked consumer woke with Closed" true woke;
      (* Parked producers: fill the ring, park three producers on it. *)
      let mb : int Mailbox.t = Mailbox.create ~capacity in
      for i = 1 to capacity do
        Mailbox.put mb i
      done;
      let parked =
        List.init producers (fun p ->
            Domain.spawn (fun () ->
                try
                  if p = 0 then Mailbox.put mb 0 else Mailbox.put_batch mb [ p; p ];
                  false
                with Mailbox.Closed -> true))
      in
      Unix.sleepf 0.05;
      Mailbox.close mb;
      Alcotest.(check (list bool)) "parked producers woke with Closed"
        [ true; true; true ] (List.map Domain.join parked))

(* The same fan-in under the N:M pool: three producer tasks and one
   consumer task park through [on_space]/[on_item] and [Sched.suspend],
   the executor's own path; every item arrives once, in order. *)
let test_mpsc_pool_stress () =
  with_watchdog (fun () ->
      let producers = 3 and per_producer = 3000 in
      let mb : (int * int) Mailbox.t = Mailbox.create ~capacity:4 in
      let pool = Ss_sched.Sched.create ~workers:2 () in
      for p = 0 to producers - 1 do
        Ss_sched.Sched.spawn pool (fun () ->
            for i = 0 to per_producer - 1 do
              while not (Mailbox.try_put mb (p, i)) do
                Ss_sched.Sched.suspend ~register:(Mailbox.on_space mb)
              done
            done)
      done;
      let next = Array.make producers 0 and dup_or_gap = ref 0 in
      Ss_sched.Sched.spawn pool (fun () ->
          let q = Queue.create () in
          let got = ref 0 in
          while !got < producers * per_producer do
            ignore (Mailbox.take_batch mb ~max:4 ~into:q);
            if Queue.is_empty q then
              Ss_sched.Sched.suspend ~register:(Mailbox.on_item mb)
            else begin
              Queue.iter
                (fun (p, i) ->
                  if i <> next.(p) then incr dup_or_gap;
                  next.(p) <- i + 1;
                  incr got)
                q;
              Queue.clear q
            end
          done);
      Ss_sched.Sched.run pool;
      Alcotest.(check (array int)) "every item arrived"
        (Array.make producers per_producer) next;
      Alcotest.(check int) "exactly once, in per-producer order" 0 !dup_or_gap)

(* ------------------------------------------------------------------ *)
(* Pool supervision, worker-count validation and scale *)

let failure_metrics () =
  let t =
    Topology.create_exn
      [| op "src" 0.01; op "bomb" 0.01; op "sink" 0.01 |]
      [ (0, 1, 1.0); (1, 2, 1.0) ]
  in
  let inputs = List.init 5000 (fun i -> tuple [| float_of_int i |]) in
  with_watchdog (fun () ->
      Executor.run ~workers:2 ~mailbox_capacity:4
        ~source:(Executor.source_of_list inputs)
        ~registry:(registry_of [ (1, bomb ~at:50.0); (2, Stateless_ops.identity) ])
        t)

let test_pool_failure_parity () =
  let pool = failure_metrics () in
  check_failed_outcome ~vertex:1 pool;
  match pool.Executor.outcome with
  | Supervision.Actor_failed p ->
      Alcotest.(check (option int)) "failing vertex" (Some 1)
        p.Supervision.vertex
  | _ -> Alcotest.fail "expected Actor_failed"

let timeout_metrics () =
  let slow_sink =
    Behavior.make ~name:"slow_sink" (fun () t ->
        Unix.sleepf 0.02;
        [ t ])
  in
  let t =
    Topology.create_exn [| op "src" 0.01; op "sink" 0.01 |] [ (0, 1, 1.0) ]
  in
  let inputs = List.init 500 (fun i -> tuple [| float_of_int i |]) in
  with_watchdog (fun () ->
      Executor.run ~workers:2 ~timeout:0.15
        ~source:(Executor.source_of_list inputs)
        ~registry:(registry_of [ (1, slow_sink) ])
        t)

let test_pool_timeout_parity () =
  let m = timeout_metrics () in
  (match m.Executor.outcome with
  | Supervision.Timed_out s ->
      Alcotest.(check (float 1e-9)) "timeout value reported" 0.15 s
  | _ -> Alcotest.fail "expected Timed_out outcome");
  Alcotest.(check bool) "shut down promptly" true (m.Executor.elapsed < 5.0)

let identity_registry vs =
  registry_of (List.map (fun v -> (v, Stateless_ops.identity)) vs)

let test_sample_occupancy_gating () =
  (* With sampling off, the pool runs no tick and the occupancy metric is
     all zeros; everything else is intact. *)
  let t =
    Topology.create_exn [| op "src" 0.01; op "sink" 0.01 |] [ (0, 1, 1.0) ]
  in
  let m =
    with_watchdog (fun () ->
        Executor.run ~workers:2
          ~instrument:
            { Executor.default_instrument with sample_occupancy = false }
          ~source:
            (Executor.source_of_fn ~count:200 (fun i ->
                 tuple [| float_of_int i |]))
          ~registry:(identity_registry [ 1 ])
          t)
  in
  Alcotest.(check bool) "finished" true
    (m.Executor.outcome = Supervision.Finished);
  Alcotest.(check int) "counts intact" 200 m.Executor.consumed.(1);
  Array.iter
    (fun o -> Alcotest.(check (float 0.)) "occupancy zero" 0.0 o)
    m.Executor.occupancy

let test_workers_validated () =
  (* The pool size is the executor's one scheduling input: a pool with no
     worker is rejected up front, also when [Live.start] re-raises the
     deployment domain's error. *)
  let t =
    Topology.create_exn [| op "src" 0.01; op "sink" 0.01 |] [ (0, 1, 1.0) ]
  in
  Alcotest.check_raises "run ~workers:0"
    (Invalid_argument "Executor.run: workers must be >= 1") (fun () ->
      ignore
        (Executor.run ~workers:0 ~source:(Executor.source_of_list [])
           ~registry:(identity_registry [ 1 ]) t));
  Alcotest.check_raises "Live.start ~workers:0"
    (Invalid_argument "Executor.run: workers must be >= 1") (fun () ->
      ignore
        (Executor.Live.start ~workers:0 ~source:(Executor.source_of_list [])
           ~registry:(identity_registry [ 1 ]) t))

let test_pool_scales_past_domain_budget () =
  (* 40 replicated stages deploy as 202 actors (source + 40×(emitter +
     3 workers + collector) + sink): more than OCaml's domain budget could
     hold one domain each, routine for the pool — and the whole run needs
     only the pool's 2 workers plus the calling domain. *)
  let stages = 40 in
  let ops =
    Array.init (stages + 2) (fun i ->
        if i = 0 then op "src" 0.001
        else if i = stages + 1 then op "sink" 0.001
        else
          Operator.make ~service_time:1e-6 ~replicas:3
            (Printf.sprintf "s%d" i))
  in
  let edges = List.init (stages + 1) (fun i -> (i, i + 1, 1.0)) in
  let t = Topology.create_exn ops edges in
  let vs = List.init (stages + 1) (fun i -> i + 1) in
  let m =
    with_watchdog ~limit:60.0 (fun () ->
        Executor.run ~workers:2
          ~source:
            (Executor.source_of_fn ~count:300 (fun i ->
                 tuple [| float_of_int i |]))
          ~registry:(identity_registry vs) t)
  in
  Alcotest.(check bool) "finished" true (m.Executor.outcome = Supervision.Finished);
  Alcotest.(check int) "every actor reported" ((stages * 5) + 2)
    (List.length m.Executor.actors);
  Alcotest.(check int) "sink saw every tuple" 300 m.Executor.consumed.(stages + 1)

(* ------------------------------------------------------------------ *)
(* Equivalence: pool counts = the counts the DES replay predicts for the
   same seed, with and without a placement *)

let run_with ?placement ?fused ?ordered topo vs ~tuples ~seed =
  with_watchdog (fun () ->
      Executor.run ~workers:2 ?placement ?fused ?ordered ~seed
        ~source:
          (Executor.source_of_fn ~count:tuples (fun i ->
               tuple [| float_of_int i |]))
        ~registry:(identity_registry vs) topo)

let check_equivalence ?fused ?ordered ~name build vs ~tuples ~seed =
  let pool = run_with ?fused ?ordered (build ()) vs ~tuples ~seed in
  let replay_consumed, replay_produced =
    Ss_sim.Engine.replay ?fused ~seed ~tuples (build ())
  in
  Alcotest.(check bool) (name ^ ": pool finished") true
    (pool.Executor.outcome = Supervision.Finished);
  Alcotest.(check (array int)) (name ^ ": consumed = DES replay")
    replay_consumed pool.Executor.consumed;
  Alcotest.(check (array int)) (name ^ ": produced = DES replay")
    replay_produced pool.Executor.produced;
  (* A placement-partitioned pool must produce the same per-vertex counts:
     locality changes where actors run, never what they compute. *)
  let topo = build () in
  let placement = Array.init (Topology.size topo) (fun v -> v mod 2) in
  let grouped = run_with ~placement ?fused ?ordered topo vs ~tuples ~seed in
  Alcotest.(check bool) (name ^ " (pool+placement): finished") true
    (grouped.Executor.outcome = Supervision.Finished);
  Alcotest.(check (array int))
    (name ^ " (pool+placement): consumed = ungrouped pool")
    pool.Executor.consumed grouped.Executor.consumed;
  Alcotest.(check (array int))
    (name ^ " (pool+placement): produced = ungrouped pool")
    pool.Executor.produced grouped.Executor.produced

let test_equivalence_plain () =
  check_equivalence ~name:"plain"
    (fun () ->
      Topology.create_exn
        [| op "src" 0.01; op "a" 0.01; op "b" 0.01; op "sink" 0.01 |]
        [ (0, 1, 0.3); (0, 2, 0.7); (1, 3, 1.0); (2, 3, 1.0) ])
    [ 1; 2; 3 ] ~tuples:2000 ~seed:7

let test_equivalence_fission () =
  check_equivalence ~name:"fission"
    (fun () ->
      Topology.create_exn
        [|
          op "src" 0.01;
          Operator.make ~service_time:1e-5 ~replicas:3 "w";
          op "s1" 0.01;
          op "s2" 0.01;
        |]
        [ (0, 1, 1.0); (1, 2, 0.4); (1, 3, 0.6) ])
    [ 1; 2; 3 ] ~tuples:900 ~seed:11

let test_equivalence_ordered_fission () =
  check_equivalence ~ordered:[ 1 ] ~name:"ordered fission"
    (fun () ->
      Topology.create_exn
        [|
          op "src" 0.01;
          Operator.make ~service_time:1e-5 ~replicas:3 "w";
          op "s1" 0.01;
          op "s2" 0.01;
        |]
        [ (0, 1, 1.0); (1, 2, 0.4); (1, 3, 0.6) ])
    [ 1; 2; 3 ] ~tuples:600 ~seed:13

let test_equivalence_fused () =
  check_equivalence ~fused:[ [ 1; 2; 3 ] ] ~name:"fused"
    (fun () ->
      Topology.create_exn
        [|
          op "src" 0.01;
          op "fe" 0.01;
          op "l" 0.01;
          op "r" 0.01;
          op "sink" 0.01;
        |]
        [ (0, 1, 1.0); (1, 2, 0.5); (1, 3, 0.5); (2, 4, 1.0); (3, 4, 1.0) ])
    [ 1; 2; 3; 4 ] ~tuples:600 ~seed:17

(* The `--groups auto` path at library level: partition a fissioned
   topology with the communication-aware placement and check the grouped
   pool's counts against the ungrouped pool and [Engine.replay]. *)
let test_equivalence_placement_assignment () =
  let build () =
    Topology.create_exn
      [|
        op "src" 0.01;
        Operator.make ~service_time:1e-5 ~replicas:3 "w";
        op "s1" 0.01;
        op "s2" 0.01;
      |]
      [ (0, 1, 1.0); (1, 2, 0.4); (1, 3, 0.6) ]
  in
  let vs = [ 1; 2; 3 ] and tuples = 900 and seed = 19 in
  let placement =
    let cluster =
      Ss_placement.Cluster.homogeneous ~nodes:2 ~cores:1 ()
    in
    Ss_placement.Placement.communication_aware cluster (build ())
  in
  let grouped = run_with ~placement (build ()) vs ~tuples ~seed in
  let ungrouped = run_with (build ()) vs ~tuples ~seed in
  let replay_consumed, replay_produced =
    Ss_sim.Engine.replay ~seed ~tuples (build ())
  in
  Alcotest.(check bool) "placement: grouped finished" true
    (grouped.Executor.outcome = Supervision.Finished);
  Alcotest.(check (array int)) "placement: consumed, grouped = ungrouped"
    ungrouped.Executor.consumed grouped.Executor.consumed;
  Alcotest.(check (array int)) "placement: produced, grouped = ungrouped"
    ungrouped.Executor.produced grouped.Executor.produced;
  Alcotest.(check (array int)) "placement: consumed, grouped = DES replay"
    replay_consumed grouped.Executor.consumed;
  Alcotest.(check (array int)) "placement: produced, grouped = DES replay"
    replay_produced grouped.Executor.produced

let test_placement_validation () =
  let build () =
    Topology.create_exn
      [| op "src" 0.01; op "a" 0.01 |]
      [ (0, 1, 1.0) ]
  in
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Executor.run: placement length must equal topology size")
    (fun () ->
      ignore (run_with ~placement:[| 0 |] (build ()) [ 1 ] ~tuples:10 ~seed:3));
  Alcotest.check_raises "negative node"
    (Invalid_argument "Executor.run: placement nodes must be >= 0")
    (fun () ->
      ignore
        (run_with ~placement:[| 0; -1 |] (build ()) [ 1 ] ~tuples:10
           ~seed:3));
  (* More nodes than workers: groups collapse by modulo instead of
     starving a group of workers. *)
  let m =
    run_with ~placement:[| 0; 5 |] (build ()) [ 1 ] ~tuples:10 ~seed:3
  in
  Alcotest.(check bool) "collapsed placement finished" true
    (m.Executor.outcome = Supervision.Finished)

let test_channel_failure_parity () =
  (* Failure injection must poison ring-backed edges: a failing operator
     yields a structured failure outcome. *)
  let t () =
    Topology.create_exn
      [| op "src" 0.01; op "bomb" 0.01; op "sink" 0.01 |]
      [ (0, 1, 1.0); (1, 2, 1.0) ]
  in
  let inputs = List.init 5000 (fun i -> tuple [| float_of_int i |]) in
  let m =
    with_watchdog (fun () ->
        Executor.run ~workers:2 ~mailbox_capacity:4
          ~source:(Executor.source_of_list inputs)
          ~registry:
            (registry_of [ (1, bomb ~at:50.0); (2, Stateless_ops.identity) ])
          (t ()))
  in
  match m.Executor.outcome with
  | Supervision.Actor_failed _ -> ()
  | outcome ->
      Alcotest.failf "expected Failed, got %a" Supervision.pp_outcome outcome

let test_batch_policies () =
  (* The drain policy is a scheduling knob: fixed and adaptive drains must
     deliver identical counts, and both bounds are validated. *)
  let build () =
    Topology.create_exn
      [| op "src" 0.01; op "a" 0.01; op "sink" 0.01 |]
      [ (0, 1, 1.0); (1, 2, 1.0) ]
  in
  let run batch =
    with_watchdog (fun () ->
        Executor.run ~workers:2 ~batch ~seed:3
          ~source:
            (Executor.source_of_fn ~count:800 (fun i ->
                 tuple [| float_of_int i |]))
          ~registry:(identity_registry [ 1; 2 ])
          (build ()))
  in
  let fixed = run (`Fixed 8) in
  let adaptive = run (`Adaptive 32) in
  Alcotest.(check bool) "fixed finished" true
    (fixed.Executor.outcome = Supervision.Finished);
  Alcotest.(check bool) "adaptive finished" true
    (adaptive.Executor.outcome = Supervision.Finished);
  Alcotest.(check (array int)) "consumed, fixed = adaptive"
    fixed.Executor.consumed adaptive.Executor.consumed;
  Alcotest.(check (array int)) "produced, fixed = adaptive"
    fixed.Executor.produced adaptive.Executor.produced;
  List.iter
    (fun batch ->
      Alcotest.check_raises "batch validated"
        (Invalid_argument "Executor.run: batch must be >= 1") (fun () ->
          ignore (run batch)))
    [ `Fixed 0; `Adaptive 0 ]

(* ------------------------------------------------------------------ *)
(* Telemetry: histogram algebra, placement equivalence of the recorded
   counters, and percentile sanity on a live run *)

module H = Ss_telemetry.Histogram

let test_histogram_buckets () =
  (* The inclusive upper bound of every bucket lands in that bucket, and
     anything above it lands in the next. *)
  Alcotest.(check int) "below base" 0 (H.bucket_index 1e-7);
  Alcotest.(check int) "at base" 0 (H.bucket_index 1e-6);
  for i = 1 to H.num_buckets - 2 do
    let upper = H.bucket_upper i in
    Alcotest.(check int) (Printf.sprintf "at upper(%d)" i) i
      (H.bucket_index upper);
    Alcotest.(check int)
      (Printf.sprintf "above upper(%d)" i)
      (i + 1)
      (H.bucket_index (upper *. 1.001))
  done;
  Alcotest.(check int) "overflow bucket" (H.num_buckets - 1)
    (H.bucket_index 1e9);
  Alcotest.(check bool) "overflow bound is infinite" true
    (H.bucket_upper (H.num_buckets - 1) = infinity);
  (* NaN and negatives are clamped into the first bucket, never dropped:
     a histogram count must stay in lockstep with the consumed counter. *)
  let h = H.create () in
  H.record h (-1.0);
  H.record h Float.nan;
  Alcotest.(check int) "clamped count" 2 (H.count h);
  Alcotest.(check int) "clamped into bucket 0" 2 (H.bucket_counts h).(0)

let random_histogram st n =
  let h = H.create () in
  for _ = 1 to n do
    (* log-uniform over ~9 decades: exercises every bucket region *)
    H.record h (1e-7 *. (10. ** Random.State.float st 9.0))
  done;
  h

let test_histogram_merge_associative () =
  let st = Random.State.make [| 42 |] in
  let a = random_histogram st 100 in
  let b = random_histogram st 57 in
  let c = random_histogram st 23 in
  let ab_c = H.merge (H.merge a b) c in
  let a_bc = H.merge a (H.merge b c) in
  Alcotest.(check (array int)) "bucket counts associative"
    (H.bucket_counts ab_c) (H.bucket_counts a_bc);
  Alcotest.(check int) "count associative" (H.count ab_c) (H.count a_bc);
  Alcotest.(check (float 1e-9)) "sum associative" (H.sum ab_c) (H.sum a_bc);
  Alcotest.(check (float 0.0)) "max associative" (H.max_value ab_c)
    (H.max_value a_bc);
  Alcotest.(check int) "operands untouched" 100 (H.count a);
  let into = H.copy a in
  H.merge_into ~into b;
  Alcotest.(check (array int)) "merge_into = merge"
    (H.bucket_counts (H.merge a b))
    (H.bucket_counts into)

let test_histogram_percentile_monotone () =
  let st = Random.State.make [| 7 |] in
  for _trial = 1 to 25 do
    let h = random_histogram st (1 + Random.State.int st 200) in
    let qs = [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 1.0 ] in
    ignore
      (List.fold_left
         (fun prev q ->
           let p = H.percentile h q in
           Alcotest.(check bool)
             (Printf.sprintf "p%g >= previous" (100. *. q))
             true (p >= prev);
           p)
         0.0 qs);
    Alcotest.(check bool) "p100 <= max" true
      (H.percentile h 1.0 <= H.max_value h)
  done;
  Alcotest.(check (float 0.0)) "empty histogram percentile" 0.0
    (H.percentile (H.create ()) 0.5)

let telemetry_instrument sample =
  {
    Executor.sample_occupancy = false;
    telemetry = true;
    telemetry_sample = sample;
  }

let run_telemetry ?placement ?fused ?ordered ?(sample = 1) topo vs ~tuples
    ~seed =
  with_watchdog (fun () ->
      Executor.run ~workers:2 ?placement ?fused ?ordered ~seed
        ~instrument:(telemetry_instrument sample)
        ~source:
          (Executor.source_of_fn ~count:tuples (fun i ->
               tuple ~key:i [| float_of_int i |]))
        ~registry:(identity_registry vs) topo)

let report m = Option.get m.Executor.telemetry

(* Telemetry must not depend on where actors run: identical edge counts
   with and without a placement, consumed counts equal to [Engine.replay],
   and with [telemetry_sample = 1] the histogram counts track the consumed
   counters exactly. *)
let check_telemetry_equivalence ?fused ?ordered ~name build vs ~tuples ~seed
    =
  let topo = build () in
  let src = Topology.source topo in
  let pool = run_telemetry ?fused ?ordered (build ()) vs ~tuples ~seed in
  let placement = Array.init (Topology.size topo) (fun v -> v mod 2) in
  let grouped =
    run_telemetry ~placement ?fused ?ordered (build ()) vs ~tuples ~seed
  in
  let r_pool = report pool and r_grouped = report grouped in
  Alcotest.(check (list (triple int int int)))
    (name ^ ": edge counts, grouped = ungrouped pool")
    r_pool.Ss_telemetry.Telemetry.edges r_grouped.Ss_telemetry.Telemetry.edges;
  Alcotest.(check (array int)) (name ^ ": consumed = DES replay")
    (fst (Ss_sim.Engine.replay ?fused ~seed ~tuples (build ())))
    pool.Executor.consumed;
  List.iter
    (fun (m, r, side) ->
      (* every consumed tuple entered over some edge *)
      let in_flow = Array.make (Topology.size topo) 0 in
      List.iter
        (fun (_, v, c) -> in_flow.(v) <- in_flow.(v) + c)
        r.Ss_telemetry.Telemetry.edges;
      Array.iteri
        (fun v c ->
          if v <> src then begin
            Alcotest.(check int)
              (Printf.sprintf "%s: %s in-edge flow of %d" name side v)
              c in_flow.(v);
            Alcotest.(check int)
              (Printf.sprintf "%s: %s latency count of %d" name side v)
              c
              (H.count r.Ss_telemetry.Telemetry.latency.(v));
            Alcotest.(check int)
              (Printf.sprintf "%s: %s service count of %d" name side v)
              c
              (H.count r.Ss_telemetry.Telemetry.service.(v))
          end)
        m.Executor.consumed)
    [ (pool, r_pool, "pool"); (grouped, r_grouped, "grouped") ]

let test_telemetry_equivalence_plain () =
  check_telemetry_equivalence ~name:"plain"
    (fun () ->
      Topology.create_exn
        [| op "src" 0.01; op "a" 0.01; op "b" 0.01; op "sink" 0.01 |]
        [ (0, 1, 0.3); (0, 2, 0.7); (1, 3, 1.0); (2, 3, 1.0) ])
    [ 1; 2; 3 ] ~tuples:600 ~seed:7

let test_telemetry_equivalence_fission () =
  check_telemetry_equivalence ~name:"fission"
    (fun () ->
      Topology.create_exn
        [|
          op "src" 0.01;
          Operator.make ~service_time:1e-5 ~replicas:3 "w";
          op "s1" 0.01;
          op "s2" 0.01;
        |]
        [ (0, 1, 1.0); (1, 2, 0.4); (1, 3, 0.6) ])
    [ 1; 2; 3 ] ~tuples:600 ~seed:11

let test_telemetry_equivalence_fused () =
  check_telemetry_equivalence ~fused:[ [ 1; 2; 3 ] ] ~name:"fused"
    (fun () ->
      Topology.create_exn
        [|
          op "src" 0.01;
          op "fe" 0.01;
          op "l" 0.01;
          op "r" 0.01;
          op "sink" 0.01;
        |]
        [ (0, 1, 1.0); (1, 2, 0.5); (1, 3, 0.5); (2, 4, 1.0); (3, 4, 1.0) ])
    [ 1; 2; 3; 4 ] ~tuples:600 ~seed:17

let test_telemetry_sampling_ratio () =
  (* With [telemetry_sample = k] on a single-actor vertex, histogram
     counts are exactly ceil (consumed / k); edge counters stay exact. *)
  let build () =
    Topology.create_exn
      [| op "src" 0.01; op "a" 0.01; op "sink" 0.01 |]
      [ (0, 1, 1.0); (1, 2, 1.0) ]
  in
  let tuples = 100 in
  let m =
    run_telemetry ~sample:3 (build ()) [ 1; 2 ] ~tuples ~seed:5
  in
  let r = report m in
  let ceil_div a b = (a + b - 1) / b in
  Array.iteri
    (fun v c ->
      if v <> 0 then begin
        Alcotest.(check int)
          (Printf.sprintf "sampled latency count of %d" v)
          (ceil_div c 3)
          (H.count r.Ss_telemetry.Telemetry.latency.(v));
        Alcotest.(check int)
          (Printf.sprintf "sampled service count of %d" v)
          (ceil_div c 3)
          (H.count r.Ss_telemetry.Telemetry.service.(v))
      end)
    m.Executor.consumed;
  List.iter
    (fun (_, _, c) -> Alcotest.(check int) "edges stay exact" tuples c)
    r.Ss_telemetry.Telemetry.edges

let busy_wait seconds =
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < seconds do
    ()
  done

(* A behavior whose service time follows a known skewed distribution:
   50% 10 us, 45% 100 us, 4% 400 us, 1% 3 ms by tuple key. The service
   percentiles of the telemetry report must be strictly ordered (the
   paper's latency plots are meaningless on a degenerate histogram). *)
let test_telemetry_percentiles () =
  let topo =
    Topology.create_exn
      [| op "src" 0.15; op "work" 0.1; op "sink" 0.01 |]
      [ (0, 1, 1.0); (1, 2, 1.0) ]
  in
  let skewed =
    Behavior.make ~name:"skewed" (fun () t ->
        let k = t.Tuple.key mod 100 in
        let us =
          if k < 50 then 10.0
          else if k < 95 then 100.0
          else if k < 99 then 400.0
          else 3000.0
        in
        busy_wait (us *. 1e-6);
        [ t ])
  in
  let m =
    with_watchdog (fun () ->
        Executor.run ~workers:2 ~instrument:(telemetry_instrument 1)
          ~source:
            (Executor.source_of_fn ~count:200 (fun i ->
                 (* pace the source just above the mean service time so
                    queueing stays transient and ages reflect the work *)
                 busy_wait 150e-6;
                 tuple ~key:i [| float_of_int i |]))
          ~registry:(registry_of [ (1, skewed); (2, Stateless_ops.identity) ])
          topo)
  in
  Alcotest.(check bool) "finished" true
    (m.Executor.outcome = Supervision.Finished);
  let r = report m in
  let s = H.snapshot r.Ss_telemetry.Telemetry.service.(1) in
  Alcotest.(check int) "every invocation timed" 200 s.H.count;
  Alcotest.(check bool)
    (Printf.sprintf "service p50 %.0fus < p95 %.0fus" (s.H.p50 *. 1e6)
       (s.H.p95 *. 1e6))
    true (s.H.p50 < s.H.p95);
  Alcotest.(check bool)
    (Printf.sprintf "service p95 %.0fus < p99 %.0fus" (s.H.p95 *. 1e6)
       (s.H.p99 *. 1e6))
    true (s.H.p95 < s.H.p99);
  Alcotest.(check bool) "service p99 <= max" true (s.H.p99 <= s.H.max);
  let l = H.snapshot r.Ss_telemetry.Telemetry.latency.(2) in
  Alcotest.(check bool) "latency percentiles ordered" true
    (l.H.p50 <= l.H.p95 && l.H.p95 <= l.H.p99 && l.H.p99 <= l.H.max);
  Alcotest.(check bool)
    (Printf.sprintf "latency non-degenerate (p50 %.0fus, p99 %.0fus)"
       (l.H.p50 *. 1e6) (l.H.p99 *. 1e6))
    true
    (l.H.p50 < l.H.p99)

let test_telemetry_off_is_none () =
  let t =
    Topology.create_exn [| op "src" 0.01; op "sink" 0.01 |] [ (0, 1, 1.0) ]
  in
  let m =
    with_watchdog (fun () ->
        Executor.run
          ~source:
            (Executor.source_of_fn ~count:10 (fun i ->
                 tuple [| float_of_int i |]))
          ~registry:(identity_registry [ 1 ])
          t)
  in
  Alcotest.(check bool) "no report by default" true
    (m.Executor.telemetry = None)

let test_telemetry_sample_validated () =
  let t =
    Topology.create_exn [| op "src" 0.01; op "sink" 0.01 |] [ (0, 1, 1.0) ]
  in
  Alcotest.check_raises "zero sample"
    (Invalid_argument "Executor.run: telemetry_sample must be >= 1")
    (fun () ->
      ignore
        (Executor.run
           ~instrument:(telemetry_instrument 0)
           ~source:(Executor.source_of_list [])
           ~registry:(identity_registry [ 1 ])
           t))

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  (* Register one case per mailbox implementation behind the facade. *)
  let per_kind name f =
    List.map
      (fun (kind, create) ->
        quick (Printf.sprintf "%s (%s)" name kind) (f create))
      mailbox_kinds
  in
  Alcotest.run "ss_runtime"
    [
      ( "mailbox",
        List.concat
          [
            per_kind "fifo order" test_mailbox_fifo;
            per_kind "try operations" test_mailbox_try_operations;
            per_kind "blocking put (backpressure)" test_mailbox_blocking_put;
            per_kind "blocking take" test_mailbox_blocking_take;
            per_kind "invalid capacity" test_mailbox_invalid_capacity;
            per_kind "close wakes blocked producer"
              test_mailbox_close_wakes_producer;
            per_kind "close wakes blocked consumer"
              test_mailbox_close_wakes_consumer;
            per_kind "closed mailbox semantics" test_mailbox_closed_operations;
            per_kind "put_batch and try_put_chunk" test_mailbox_put_batch;
            List.map
              (fun kind ->
                QCheck_alcotest.to_alcotest (test_mailbox_model kind))
              ring_kinds;
          ] );
      ( "supervision",
        [
          quick "failing behavior, single actor" test_failure_single_actor;
          quick "failing behavior, fission" test_failure_replicated;
          quick "failing behavior, fused group" test_failure_fused;
          quick "timeout shuts the run down" test_timeout_shuts_down;
          quick "fault-free run fully completed" test_fault_free_run_reports_completed;
          quick "backpressure blocked-time metric" test_backpressure_is_measured;
        ] );
      ( "pipelines",
        [
          quick "identity pipeline" test_identity_pipeline;
          quick "filter counts" test_filter_counts;
          quick "probabilistic split" test_probabilistic_split_conserves_flow;
          quick "content-based router" test_content_based_router;
          quick "diamond" test_diamond_join_counts;
          quick "windowed operator" test_windowed_operator_in_pipeline;
          quick "capacity-1 mailboxes drain" test_small_mailboxes_still_drain;
        ] );
      ( "fission",
        [
          quick "replicated stateless" test_replicated_stateless;
          quick "partitioned key affinity" test_partitioned_key_affinity;
          quick "ordered fission preserves order" test_ordered_fission_preserves_order;
          quick "ordered fission with selectivity" test_ordered_fission_with_selectivity;
          quick "ordered fission validation" test_ordered_fission_validation;
        ] );
      ( "fusion",
        [
          quick "fused counts equal unfused" test_fused_group_equivalent_counts;
          quick "fused branching group" test_fused_branching_group;
          quick "illegal groups rejected" test_fused_errors;
        ] );
      ( "sched mailbox",
        List.concat
          [
            per_kind "take_batch" test_mailbox_take_batch;
            per_kind "take_batch wakes blocked producer"
              test_take_batch_wakes_blocked_producer;
            per_kind "waiter registration protocol"
              test_mailbox_waiter_registration;
            per_kind "parked task wakes on close"
              test_sched_parked_wakeup_on_close;
            [
              quick "mpsc stress: 3 producers, 1 consumer" test_mpsc_stress;
              quick "mpsc stress under the pool" test_mpsc_pool_stress;
            ];
          ] );
      ( "sched",
        [
          quick "failure outcome parity" test_pool_failure_parity;
          quick "timeout outcome parity" test_pool_timeout_parity;
          quick "occupancy sampling gated" test_sample_occupancy_gating;
          quick "pool scales past the domain budget"
            test_pool_scales_past_domain_budget;
          quick "workers < 1 rejected" test_workers_validated;
        ] );
      ( "equivalence",
        [
          quick "plain topology" test_equivalence_plain;
          quick "fission" test_equivalence_fission;
          quick "ordered fission" test_equivalence_ordered_fission;
          quick "fused group" test_equivalence_fused;
          quick "placement assignment" test_equivalence_placement_assignment;
          quick "placement validation" test_placement_validation;
          quick "channel failure parity" test_channel_failure_parity;
          quick "batch policies" test_batch_policies;
        ] );
      ( "telemetry",
        [
          quick "histogram bucket boundaries" test_histogram_buckets;
          quick "histogram merge associative" test_histogram_merge_associative;
          quick "histogram percentiles monotone"
            test_histogram_percentile_monotone;
          quick "counters, plain topology" test_telemetry_equivalence_plain;
          quick "counters, fission" test_telemetry_equivalence_fission;
          quick "counters, fused group" test_telemetry_equivalence_fused;
          quick "1-in-k sampling ratio" test_telemetry_sampling_ratio;
          quick "percentiles non-degenerate (pool)" test_telemetry_percentiles;
          quick "off by default" test_telemetry_off_is_none;
          quick "sample ratio validated" test_telemetry_sample_validated;
        ] );
      ( "misc",
        [
          quick "replicated source rejected" test_replicated_source_rejected;
          quick "source_of_fn" test_source_of_fn;
          quick "source_throttled deficit catch-up"
            test_source_throttled_deficit_catchup;
        ] );
    ]
