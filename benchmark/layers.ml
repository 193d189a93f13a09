(* Isolated per-layer costs, each timed from outside through a public
   function: mailbox, scheduler, routing draws, compiled fused steps,
   operators, codec, log, event time and the planners. Every figure is the
   median of a few timed repetitions after a warm-up. [scale] shrinks the
   operation counts for the smoke run. *)

open Ss_prelude
open Ss_topology
open Ss_core
module Mb = Ss_runtime.Mailbox
module Sched = Ss_sched.Sched
module B = Ss_operators.Behavior
module T = Ss_operators.Tuple
module U = Bench_util

let tuple = T.make ~key:7 [| 1.0 |]

let rec spin_take mb =
  match Mb.try_take mb with
  | Some x -> x
  | None ->
      Domain.cpu_relax ();
      spin_take mb

let rec spin_put mb x =
  if not (Mb.try_put mb x) then begin
    Domain.cpu_relax ();
    spin_put mb x
  end

let put_take mb ~ops () =
  for _ = 1 to ops do
    Mb.put mb tuple;
    ignore (Sys.opaque_identity (Mb.take mb))
  done

let take_batch ~ops =
  let mb = Mb.create_spsc ~capacity:64 and q = Queue.create () in
  let chunk = List.init 32 (fun _ -> tuple) in
  U.ns_per_op ~ops (fun () ->
      for _ = 1 to ops / 32 do
        ignore (Mb.try_put_chunk mb chunk);
        ignore (Mb.take_batch mb ~max:32 ~into:q);
        Queue.clear q
      done)

(* One-way latency of a tuple between two domains spinning on a pair of
   rings: the cross-core transfer with no parking. *)
let handoff ~ops =
  U.ns_per_op ~ops:(2 * ops) (fun () ->
      let ping = Mb.create_spsc ~capacity:1 and pong = Mb.create_spsc ~capacity:1 in
      let d =
        Domain.spawn (fun () ->
            for _ = 1 to ops do
              spin_put pong (spin_take ping)
            done)
      in
      for _ = 1 to ops do
        spin_put ping tuple;
        ignore (spin_take pong)
      done;
      Domain.join d)

(* One-way hop between two pool tasks that park on an empty mailbox and are
   woken by the other's put: the executor's suspend/wake path. *)
let suspend_wake ~ops =
  let rec recv mb =
    match Mb.try_take mb with
    | Some x -> x
    | None ->
        Sched.suspend ~register:(fun resume -> Mb.on_item mb resume);
        recv mb
  in
  let rec send mb x =
    if not (Mb.try_put mb x) then begin
      Sched.suspend ~register:(fun resume -> Mb.on_space mb resume);
      send mb x
    end
  in
  U.ns_per_op ~ops:(2 * ops) (fun () ->
      let pool = Sched.create () in
      let a = Mb.create_spsc ~capacity:1 and b = Mb.create_spsc ~capacity:1 in
      Sched.spawn pool (fun () ->
          for _ = 1 to ops do
            send a tuple;
            ignore (recv b)
          done);
      Sched.spawn pool (fun () ->
          for _ = 1 to ops do
            send b (recv a)
          done);
      Sched.run pool)

let yield_ ~ops =
  U.ns_per_op ~ops (fun () ->
      let pool = Sched.create ~workers:1 () in
      Sched.spawn pool (fun () ->
          for _ = 1 to ops do
            Sched.yield ()
          done);
      Sched.run pool)

let spawn_run ~ops =
  U.ns_per_op ~ops (fun () ->
      let pool = Sched.create () in
      for _ = 1 to ops do
        Sched.spawn pool ignore
      done;
      Sched.run pool)

let chain_topology members =
  Topology.create_exn
    (Array.init (members + 1) (fun v ->
         if v = 0 then Operator.source ~rate:1e6 "src"
         else Operator.make ~service_time:1e-8 (Printf.sprintf "identity#%d" v)))
    (List.init members (fun i -> (i, i + 1, 1.0)))

let staged_env size =
  {
    Ss_runtime.Fused_compile.rng = Rng.create 1;
    consumed = Array.make size 0;
    produced = Array.make size 0;
    emit = (fun _ _ _ -> ());
  }

(* A staged 12-identity instance's [step], called directly: the compiled
   loop's cost per member, routing draw included. *)
let step_per_member ~ops =
  let members = 12 in
  let topology = chain_topology members in
  match
    Ss_runtime.Fused_compile.plan topology ~members:(List.init members (fun i -> i + 1))
      ~registry:(fun _ -> Ss_operators.Stateless_ops.identity)
  with
  | Error e -> failwith ("identity chain does not compile: " ^ e)
  | Ok staged ->
      let inst = staged (staged_env (members + 1)) in
      U.ns_per_op ~ops:(ops * members) (fun () ->
          for _ = 1 to ops do
            inst.Ss_runtime.Fused_compile.step tuple
          done)

(* Planning and staging both fused_chain groups. *)
let plan_us ~reps =
  let topology = Workloads.fused_chain_topology () in
  1e-3
  *. U.ns_per_op ~reps ~ops:1 (fun () ->
         List.iter
           (fun members ->
             match
               Ss_runtime.Fused_compile.plan topology ~members
                 ~registry:Workloads.fused_chain_registry
             with
             | Ok staged -> ignore (staged (staged_env (Topology.size topology)))
             | Error e -> failwith e)
           Workloads.fused_groups)

let keyed = Array.init 64 (fun k -> T.make ~key:k [| float_of_int k |])

let inline_cost ~ops (b : B.t) =
  let run step =
    U.ns_per_op ~ops (fun () ->
        for i = 1 to ops do
          ignore (Sys.opaque_identity (step keyed.(i land 63)))
        done)
  in
  match b.B.inline with
  | Some (B.Inline_fold mk) -> run (mk ()).B.sstep
  | Some (B.Inline_window mk) -> run (mk ()).B.sstep
  | _ -> failwith (b.B.name ^ ": no stateful inline hook")

let codec ~ops =
  let bytes = Ss_log.Tuple_codec.encode tuple in
  let enc =
    U.ns_per_op ~ops (fun () ->
        for _ = 1 to ops do
          ignore (Sys.opaque_identity (Ss_log.Tuple_codec.encode tuple))
        done)
  in
  let dec =
    U.ns_per_op ~ops (fun () ->
        for _ = 1 to ops do
          ignore (Sys.opaque_identity (Ss_log.Tuple_codec.decode bytes))
        done)
  in
  (enc, dec)

(* A fresh 4-partition log configured like ingest_event's: appends batched
   as the workload batches them, encoding included (the closing sync
   untimed), read-back in 256-record batches, one atomic (synced) offset
   commit, and reopening the populated log, which rescans it. Each is
   timed [reps] times. *)
let log ~records ~reps ~dir =
  let module L = Ss_log.Log in
  let append =
    U.median
      (Array.init reps (fun _ ->
           U.rm_rf dir;
           let log = L.create ~config:Workloads.log_config dir in
           let i = ref 0 in
           let next () =
             incr i;
             if !i > records then None else Some { tuple with T.key = !i }
           in
           let t0 = U.now_ns () in
           Workloads.append_all log next;
           let dt = U.now_ns () - t0 in
           L.close log;
           float_of_int dt /. float_of_int records))
  in
  let log = L.create dir in
  let read =
    U.ns_per_op ~reps ~ops:records (fun () ->
        for p = 0 to L.partitions log - 1 do
          let rec drain from =
            match L.read log ~partition:p ~from () with
            | [] -> ()
            | batch -> drain (from + List.length batch)
          in
          drain 0
        done)
  in
  (* Each commit waits on the disk: the smoke run's few records get few. *)
  let commits = Stdlib.max 2 (records / 1000) in
  let commit =
    U.ns_per_op ~reps ~ops:commits (fun () ->
        for i = 1 to commits do
          L.commit log ~group:"layers" ~partition:0 i
        done)
  in
  L.close log;
  let open_ = U.ns_per_op ~reps ~ops:1 (fun () -> L.close (L.create dir)) in
  U.rm_rf dir;
  (append *. 1e-3, read *. 1e-3, commit *. 1e-3, open_ *. 1e-6)

(* ingest_event's window fed as in the workload, 100 in-order records per
   window over its keys: cost per [efn] call, and per [on_watermark] call
   closing one window. *)
let event_window ~windows =
  let e =
    match (Workloads.window_behavior ()).B.evented with
    | Some mk -> mk ()
    | None -> assert false
  in
  let per_window = 100 in
  let efn = ref 0 and wm = ref 0 in
  for w = 0 to windows - 1 do
    let batch =
      Array.init per_window (fun j ->
          let i = (w * per_window) + j in
          T.make ~ts:(float_of_int i /. Workloads.event_rate) ~key:(i mod Workloads.ingest_keys)
            [| 1.0 |])
    in
    let t0 = U.now_ns () in
    Array.iter (fun t -> ignore (Sys.opaque_identity (e.B.efn t))) batch;
    let t1 = U.now_ns () in
    ignore
      (Sys.opaque_identity (e.B.on_watermark (float_of_int (w + 1) *. Workloads.window_s)));
    let t2 = U.now_ns () in
    efn := !efn + (t1 - t0);
    wm := !wm + (t2 - t1)
  done;
  ( float_of_int !efn /. float_of_int (per_window * windows),
    float_of_int !wm /. float_of_int windows *. 1e-3 )

(* Every isolated layer cost, by metric name. *)
let measure ~scale ~reps ~log_reps ~work_dir =
  let ops n = Stdlib.max 64 (int_of_float (float_of_int n *. scale)) in
  let spsc = Mb.create_spsc ~capacity:64 and mpsc = Mb.create ~capacity:64 in
  let rng = Rng.create 1 and zipf = Discrete.zipf ~alpha:1.5 8 in
  let enc, dec = codec ~ops:(ops 1_000_000) in
  let append, read, commit, open_ =
    log ~records:(ops 20_000) ~reps:log_reps ~dir:(Filename.concat work_dir "layers-log")
  in
  let efn, on_wm = event_window ~windows:(ops 20_000) in
  let testbed = Workloads.testbed_base () in
  [
    ("mailbox.spsc_put_take_ns", U.ns_per_op ~ops:(ops 1_000_000) (put_take spsc ~ops:(ops 1_000_000)));
    ("mailbox.mpsc_put_take_ns", U.ns_per_op ~ops:(ops 1_000_000) (put_take mpsc ~ops:(ops 1_000_000)));
    ("mailbox.take_batch_ns_per_item", take_batch ~ops:(ops 1_000_000));
    ("mailbox.handoff_ns", handoff ~ops:(ops 50_000));
    ("sched.suspend_wake_ns", suspend_wake ~ops:(ops 50_000));
    ("sched.yield_ns", yield_ ~ops:(ops 500_000));
    ("sched.spawn_run_ns", spawn_run ~ops:(ops 200_000));
    ( "prelude.discrete_sample_ns",
      U.ns_per_op ~ops:(ops 2_000_000) (fun () ->
          for _ = 1 to ops 2_000_000 do
            ignore (Sys.opaque_identity (Discrete.sample rng zipf))
          done) );
    ( "prelude.rng_float_ns",
      U.ns_per_op ~ops:(ops 5_000_000) (fun () ->
          for _ = 1 to ops 5_000_000 do
            ignore (Sys.opaque_identity (Rng.float rng))
          done) );
    ("fused_compile.step_ns_per_member", step_per_member ~ops:(ops 500_000));
    ("fused_compile.plan_us", plan_us ~reps);
    ("operators.count_by_key_ns", inline_cost ~ops:(ops 2_000_000) (Ss_operators.Join_ops.count_by_key ()));
    ( "operators.window_sum_ns",
      inline_cost ~ops:(ops 2_000_000)
        (Ss_operators.Window_ops.sum
           ~spec:{ Ss_operators.Window_ops.length = 32; slide = 8; index = 0; per_key = true }
           ()) );
    ("tuple_codec.encode_ns", enc);
    ("tuple_codec.decode_ns", dec);
    ("log.append_us_per_record", append);
    ("log.read_us_per_record", read);
    ("log.commit_us", commit);
    ("log.open_ms", open_);
    ("eventtime.window_efn_ns", efn);
    ("eventtime.on_watermark_us", on_wm);
    ( "fission.optimize_ms",
      1e-6 *. U.ns_per_op ~reps ~ops:1 (fun () -> ignore (Fission.optimize testbed)) );
  ]

(* A pacing loop with no runtime behind it, paced exactly like
   [Executor.source_throttled]: the 99th percentile of how late it wakes
   is the host's own floor under any p99 latency measured at this rate. *)
let stall_p99_ms ~rate ~duration =
  let n = Stdlib.max 1 (int_of_float (rate *. duration)) in
  let late = Array.make n 0.0 in
  let t0 = U.now () in
  for i = 0 to n - 1 do
    let due = t0 +. (float_of_int i /. rate) in
    let now = U.now () in
    if due > now then Unix.sleepf (due -. now);
    late.(i) <- U.now () -. due
  done;
  1e3 *. U.percentile (U.sorted late) 0.99
