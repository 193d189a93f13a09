(* Clocks, order statistics, process probes and small file helpers shared
   by the workloads, the layer microbenchmarks and the tracer. *)

(* Monotonic nanoseconds (CLOCK_MONOTONIC): span timing needs better than
   the microsecond resolution of [Unix.gettimeofday]. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now () = float_of_int (now_ns ()) *. 1e-9

(* Process CPU seconds, every domain included (getrusage). *)
let cpu () = Sys.time ()

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an already sorted array, [p] in [0, 1]. *)
let percentile s p =
  let n = Array.length s in
  if n = 0 then invalid_arg "percentile: no samples";
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  s.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))

(* (q1, median, q3) with the "exclusive" method of Python's
   [statistics.quantiles(values, n=4)], so the numbers recorded in the
   history match what benchmark/compare.py recomputes. *)
let quartiles values =
  let s = sorted values in
  let n = Array.length s in
  if n = 0 then invalid_arg "quartiles: no samples";
  if n = 1 then (s.(0), s.(0), s.(0))
  else
    let m = n + 1 in
    let q i =
      let j = Stdlib.max 1 (Stdlib.min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

let median values =
  let _, m, _ = quartiles values in
  m

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
        | line -> (
            match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
            | Some kb -> float_of_int kb /. 1024.0
            | None -> scan ())
      in
      scan ())

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Median wall nanoseconds per operation of [f], which performs [ops]
   operations per call; [reps] timed calls after one warm-up call. *)
let ns_per_op ?(reps = 5) ~ops f =
  f ();
  median
    (Array.init reps (fun _ ->
         let t0 = now_ns () in
         f ();
         float_of_int (now_ns () - t0) /. float_of_int ops))
