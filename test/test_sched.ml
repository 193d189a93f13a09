(* Scheduler-core tests: the Chase–Lev lock-free pool, exercised
   directly (without the executor) through
   spawn/suspend/resume/yield storms across worker counts and group
   shapes. The invariants under test: every spawned task runs exactly
   once (no lost or double-run tasks), the pool drains, the first error
   propagates out of [run], group validation, and the prompt-finish tick
   contract. *)

module Sched = Ss_sched.Sched

(* A wedged scheduler would hang the test binary (workers parked forever,
   [run] never returns); the watchdog turns that into a prompt exit. *)
let with_watchdog ?(limit = 60.0) f =
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
          prerr_endline "watchdog: scheduler hung; killing test binary";
          Unix._exit 125
        end;
        Unix.sleepf 0.01;
        wait ()
  in
  wait ()

(* External resume source: a domain that fires registered wakeups from
   outside the pool, exercising the injection path and the parked-worker
   wakeup protocol. *)
let with_firer f =
  let q = Queue.create () in
  let m = Mutex.create () in
  let stop = Atomic.make false in
  let push resume =
    Mutex.lock m;
    Queue.push resume q;
    Mutex.unlock m
  in
  let d =
    Domain.spawn (fun () ->
        let rec loop () =
          let r =
            Mutex.lock m;
            let r = Queue.take_opt q in
            Mutex.unlock m;
            r
          in
          match r with
          | Some resume ->
              resume ();
              loop ()
          | None ->
              if not (Atomic.get stop) then begin
                Unix.sleepf 0.0005;
                loop ()
              end
        in
        loop ())
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join d)
    (fun () -> f push)

(* ------------------------------------------------------------------ *)
(* Shape and validation *)

let test_shape_validation () =
  Alcotest.check_raises "empty groups" (Invalid_argument
    "Sched.create: groups must be non-empty") (fun () ->
      ignore (Sched.create ~groups:[||] ()));
  Alcotest.check_raises "zero-sized group" (Invalid_argument
    "Sched.create: every group needs at least one worker") (fun () ->
      ignore (Sched.create ~groups:[| 2; 0 |] ()));
  Alcotest.check_raises "workers <> sum of groups" (Invalid_argument
    "Sched.create: workers must equal the sum of groups") (fun () ->
      ignore (Sched.create ~workers:4 ~groups:[| 2; 1 |] ()));
  Alcotest.check_raises "workers < 1" (Invalid_argument
    "Sched.create: workers must be >= 1") (fun () ->
      ignore (Sched.create ~workers:0 ()));
  let t = Sched.create ~groups:[| 2; 1 |] () in
  Alcotest.(check int) "workers = sum of groups" 3 (Sched.workers t);
  Alcotest.(check (array int)) "groups reported" [| 2; 1 |] (Sched.groups t);
  Alcotest.check_raises "spawn group out of range" (Invalid_argument
    "Sched.spawn: group out of range") (fun () ->
      Sched.spawn ~group:2 t (fun () -> ()));
  let ungrouped = Sched.create ~workers:2 () in
  Alcotest.(check (array int))
    "default shape is one group" [| 2 |] (Sched.groups ungrouped)

(* ------------------------------------------------------------------ *)
(* Exactly-once execution *)

let run_counting ~workers ?groups ~tasks body_of =
  let cells = Array.init tasks (fun _ -> Atomic.make 0) in
  let pool = Sched.create ~workers ?groups () in
  for i = 0 to tasks - 1 do
    let group =
      match groups with Some gs -> Some (i mod Array.length gs) | None -> None
    in
    Sched.spawn ?group pool (fun () ->
        body_of i;
        Atomic.incr cells.(i))
  done;
  with_watchdog (fun () -> Sched.run pool);
  Array.iteri
    (fun i c ->
      Alcotest.(check int) (Printf.sprintf "task %d ran exactly once" i) 1
        (Atomic.get c))
    cells

let test_basic_drain () =
  List.iter
    (fun workers -> run_counting ~workers ~tasks:64 (fun _ -> ()))
    [ 1; 2; 4 ]

let test_deque_growth () =
  (* 500 initial tasks on a single worker overflow the 64-slot initial
     ring several times; every yield re-enqueues through the grown
     buffer. *)
  run_counting ~workers:1 ~tasks:500 (fun _ ->
      for _ = 1 to 3 do
        Sched.yield ()
      done)

let test_grouped_drain () =
  run_counting ~workers:3 ~groups:[| 2; 1 |] ~tasks:100 (fun _ ->
      Sched.yield ())

let test_nested_spawn () =
  (* Tasks spawned from inside running tasks (inheriting the spawning
     worker's group) must also run exactly once. *)
  let children = 40 in
  let cells = Array.init children (fun _ -> Atomic.make 0) in
  let pool = Sched.create ~workers:2 ~groups:[| 1; 1 |] () in
  Sched.spawn pool (fun () ->
      for i = 0 to children - 1 do
        Sched.spawn pool (fun () ->
            Sched.yield ();
            Atomic.incr cells.(i))
      done);
  with_watchdog (fun () -> Sched.run pool);
  Array.iteri
    (fun i c ->
      Alcotest.(check int)
        (Printf.sprintf "child %d ran exactly once" i)
        1 (Atomic.get c))
    cells

(* ------------------------------------------------------------------ *)
(* Suspension across domains: mass-park then external wakeups, the
   worst case for the wake-one protocol (a lost wakeup deadlocks). *)

let test_external_resume_storm () =
  with_firer (fun fire ->
      run_counting ~workers:4 ~groups:[| 2; 2 |] ~tasks:100 (fun _ ->
          for _ = 1 to 2 do
            Sched.suspend ~register:(fun resume ->
                fire resume;
                true)
          done))

let test_register_false_continues () =
  run_counting ~workers:2 ~tasks:10 (fun _ ->
      (* The awaited condition already holds: the task continues without
         parking. *)
      Sched.suspend ~register:(fun _resume -> false))

(* ------------------------------------------------------------------ *)
(* Error propagation: [run] re-raises the first escaping exception after
   the pool drains, and the other tasks still complete. *)

let test_error_propagation () =
  let ran = Array.init 20 (fun _ -> Atomic.make 0) in
  let pool = Sched.create ~workers:2 () in
  for i = 0 to 19 do
    Sched.spawn pool (fun () ->
        Sched.yield ();
        Atomic.incr ran.(i);
        if i = 7 then failwith "storm")
  done;
  (match with_watchdog (fun () -> Sched.run pool) with
  | () -> Alcotest.fail "expected run to re-raise the task error"
  | exception Failure msg ->
      Alcotest.(check string) "first error propagated" "storm" msg);
  Array.iteri
    (fun i c ->
      Alcotest.(check int) (Printf.sprintf "task %d still ran" i) 1 (Atomic.get c))
    ran

(* ------------------------------------------------------------------ *)
(* Prompt finish under ?tick: the pool completing must interrupt the
   tick sleep instead of waiting out the full interval. *)

let test_tick_prompt_finish () =
  let pool = Sched.create ~workers:2 () in
  let ticks = ref 0 in
  (* Long enough that the runner reaches the tick loop while the pool is
     still busy (so [fn] observably runs), far shorter than the interval
     (so a prompt return proves the sleep was interrupted). *)
  Sched.spawn pool (fun () -> Unix.sleepf 0.1);
  let t0 = Unix.gettimeofday () in
  with_watchdog (fun () -> Sched.run ~tick:(5.0, fun () -> incr ticks) pool);
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "finish interrupts the 5s tick (took %.3fs)" elapsed)
    true (elapsed < 2.5);
  Alcotest.(check bool) "tick ran at least once" true (!ticks >= 1)

(* ------------------------------------------------------------------ *)
(* Randomized storms: arbitrary mixes of yields, immediate suspends,
   externally-resumed suspends and nested spawns over random worker
   counts and group shapes — exactly-once execution and drain must
   hold. *)

type script = { yields : int; suspends : int; immediates : int; children : int }

let script_gen =
  QCheck.Gen.(
    map
      (fun (yields, suspends, immediates, children) ->
        { yields; suspends; immediates; children })
      (quad (int_bound 3) (int_bound 2) (int_bound 1) (int_bound 2)))

let shape_gen =
  (* (workers, groups option): group sizes always sum to workers. *)
  QCheck.Gen.(
    int_range 1 4 >>= fun workers ->
    oneof
      [
        return (workers, None);
        ( int_range 1 workers >>= fun ngroups ->
          let sizes = Array.make ngroups 1 in
          let rec distribute k gen =
            if k = 0 then return sizes
            else
              int_bound (ngroups - 1) >>= fun g ->
              sizes.(g) <- sizes.(g) + 1;
              distribute (k - 1) gen
          in
          map (fun sizes -> (workers, Some sizes)) (distribute (workers - ngroups) ()) );
      ])

let storm_case =
  QCheck.Test.make ~count:25 ~name:"storm: exactly-once execution and drain"
    (QCheck.make
       QCheck.Gen.(pair shape_gen (list_size (int_range 1 40) script_gen)))
    (fun ((workers, groups), scripts) ->
      let n = List.length scripts in
      let total_children =
        List.fold_left (fun acc s -> acc + s.children) 0 scripts
      in
      let cells = Array.init n (fun _ -> Atomic.make 0) in
      let child_cells = Array.init (max 1 total_children) (fun _ -> Atomic.make 0) in
      let next_child = Atomic.make 0 in
      with_firer (fun fire ->
          let pool = Sched.create ~workers ?groups () in
          let ngroups = Array.length (Sched.groups pool) in
          List.iteri
            (fun i s ->
              Sched.spawn ~group:(i mod ngroups) pool (fun () ->
                  for _ = 1 to s.yields do
                    Sched.yield ()
                  done;
                  for _ = 1 to s.immediates do
                    Sched.suspend ~register:(fun _ -> false)
                  done;
                  for _ = 1 to s.suspends do
                    Sched.suspend ~register:(fun resume ->
                        fire resume;
                        true)
                  done;
                  for c = 1 to s.children do
                    let slot = Atomic.fetch_and_add next_child 1 in
                    Sched.spawn
                      ~group:((i + c) mod ngroups)
                      pool
                      (fun () ->
                        Sched.yield ();
                        Atomic.incr child_cells.(slot))
                  done;
                  Atomic.incr cells.(i)))
            scripts;
          with_watchdog (fun () -> Sched.run pool));
      Array.for_all (fun c -> Atomic.get c = 1) cells
      && Array.for_all (fun c -> Atomic.get c = 1)
           (Array.sub child_cells 0 total_children))

let () =
  let quick name fn = Alcotest.test_case name `Quick fn in
  Alcotest.run "ss_sched"
    [
      ( "shape",
        [
          quick "validation and accessors" test_shape_validation;
        ] );
      ( "exactly-once",
        [
          quick "basic drain" test_basic_drain;
          quick "deque growth" test_deque_growth;
          quick "grouped drain" test_grouped_drain;
          quick "nested spawn" test_nested_spawn;
          quick "external resume storm" test_external_resume_storm;
          quick "register false continues" test_register_false_continues;
        ] );
      ( "semantics",
        [
          quick "error propagation" test_error_propagation;
          quick "tick prompt finish" test_tick_prompt_finish;
        ] );
      ( "storm",
        [
          QCheck_alcotest.to_alcotest storm_case;
        ] );
    ]
