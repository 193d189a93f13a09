(* Benchmark-side tracing. The tracer never reaches into the runtime: it
   wraps the behaviors the benchmark hands to the registry (their [fresh]
   function, [migrate] instance, [evented] callbacks and [inline] hook, so
   fused groups still compile) and the source closure. Every call is
   counted exactly; tuples whose id is 0 mod 64 also get a span (vertex,
   tuple id, start, end). A span's parent is the same tuple's previous span,
   so the gap between the two is the time the tuple spent between
   behaviors: mailbox wait plus scheduler delay, or nothing inside a
   compiled loop. Spans stay in per-domain buffers until the run ends. *)

module B = Ss_operators.Behavior
module T = Ss_operators.Tuple

(* A transformation applied to every per-tuple function of a behavior,
   polymorphic in the result so one hook covers list-returning functions
   and the inline map/filter/fold/window steps alike. *)
type hook = { call : 'a. int -> (T.t -> 'a) -> T.t -> 'a }

let wrap_behavior ?(on_watermark = fun _ f -> f) hook v (b : B.t) =
  let f fn = hook.call v fn in
  {
    b with
    B.fresh = (fun () -> f (b.B.fresh ()));
    migrate =
      Option.map
        (fun mk () ->
          let m = mk () in
          { m with B.mfn = f m.B.mfn })
        b.B.migrate;
    evented =
      Option.map
        (fun mk () ->
          let e = mk () in
          {
            e with
            B.efn = f e.B.efn;
            on_watermark = on_watermark v e.B.on_watermark;
          })
        b.B.evented;
    inline =
      Option.map
        (function
          | B.Inline_map mk -> B.Inline_map (fun () -> f (mk ()))
          | B.Inline_filter mk -> B.Inline_filter (fun () -> f (mk ()))
          | B.Inline_fold mk ->
              B.Inline_fold
                (fun () ->
                  let s = mk () in
                  { s with B.sstep = f s.B.sstep })
          | B.Inline_window mk ->
              B.Inline_window
                (fun () ->
                  let s = mk () in
                  { s with B.sstep = f s.B.sstep }))
        b.B.inline;
  }

(* [Call]: one behavior invocation on a sampled tuple. [Watermark]: one
   [on_watermark] call (every call is recorded; they are few). [Emit]: a
   zero-length marker for a sampled result a watermark released, so the
   result's first hop downstream has a parent. *)
type kind = Call | Watermark | Emit

type span = { vertex : int; id : int; kind : kind; start : int; stop : int }

type local = { counts : int array; mutable spans : span list }

type t = {
  id_of : T.t -> int;
  key : local Domain.DLS.key;
  locals : local list ref;
}

let sampled id = id >= 0 && id land 63 = 0

let create ~vertices ~id_of =
  let locals = ref [] and lock = Mutex.create () in
  let key =
    Domain.DLS.new_key (fun () ->
        let l = { counts = Array.make vertices 0; spans = [] } in
        Mutex.protect lock (fun () -> locals := l :: !locals);
        l)
  in
  { id_of; key; locals }

let push l span = l.spans <- span :: l.spans

let hook tr =
  {
    call =
      (fun v fn t ->
        let l = Domain.DLS.get tr.key in
        l.counts.(v) <- l.counts.(v) + 1;
        let id = tr.id_of t in
        if not (sampled id) then fn t
        else begin
          let start = Bench_util.now_ns () in
          let r = fn t in
          push l { vertex = v; id; kind = Call; start; stop = Bench_util.now_ns () };
          r
        end);
  }

let on_watermark tr v fire w =
  let l = Domain.DLS.get tr.key in
  let start = Bench_util.now_ns () in
  let out = fire w in
  let stop = Bench_util.now_ns () in
  push l { vertex = v; id = -1; kind = Watermark; start; stop };
  List.iter
    (fun o ->
      let id = tr.id_of o in
      if sampled id then push l { vertex = v; id; kind = Emit; start = stop; stop })
    out;
  out

let behavior tr v b = wrap_behavior ~on_watermark:(on_watermark tr) (hook tr) v b

(* The source closure counts as vertex [v]'s behavior. *)
let source tr v src () =
  let start = Bench_util.now_ns () in
  let r = src () in
  (match r with
  | None -> ()
  | Some t ->
      let l = Domain.DLS.get tr.key in
      l.counts.(v) <- l.counts.(v) + 1;
      let id = tr.id_of t in
      if sampled id then
        push l { vertex = v; id; kind = Call; start; stop = Bench_util.now_ns () });
  r

type summary = {
  counts : int array;  (** Exact calls per vertex. *)
  self_ns : float array;
      (** Per vertex: estimated total self time, the mean sampled call
          duration times the exact call count, plus every watermark call. *)
  gaps_ns : float array;  (** Sorted parent-end to child-start gaps. *)
  spans : span list;
}

(* What reading the clock twice costs, taken off every span: inside a
   compiled loop a member's own work is of the same order. *)
let clock_ns =
  lazy
    (Bench_util.median
       (Array.init 10_001 (fun _ ->
            let a = Bench_util.now_ns () in
            float_of_int (Bench_util.now_ns () - a))))

let summarize tr ~vertices =
  let clock = Lazy.force clock_ns in
  let counts = Array.make vertices 0 in
  let spans = List.concat_map (fun (l : local) -> l.spans) !(tr.locals) in
  List.iter
    (fun (l : local) -> Array.iteri (fun v c -> counts.(v) <- counts.(v) + c) l.counts)
    !(tr.locals);
  let sum = Array.make vertices 0.0 and n = Array.make vertices 0 in
  let wm = Array.make vertices 0.0 in
  List.iter
    (fun s ->
      let d = Float.max 0.0 (float_of_int (s.stop - s.start) -. clock) in
      match s.kind with
      | Call ->
          sum.(s.vertex) <- sum.(s.vertex) +. d;
          n.(s.vertex) <- n.(s.vertex) + 1
      | Watermark -> wm.(s.vertex) <- wm.(s.vertex) +. d
      | Emit -> ())
    spans;
  let self_ns =
    Array.init vertices (fun v ->
        let mean = if n.(v) = 0 then 0.0 else sum.(v) /. float_of_int n.(v) in
        (mean *. float_of_int counts.(v)) +. wm.(v))
  in
  let chained =
    List.filter (fun s -> s.id >= 0) spans
    |> List.sort (fun a b -> compare (a.id, a.start) (b.id, b.start))
  in
  let rec gaps acc = function
    | a :: (b :: _ as rest) ->
        let acc =
          if a.id = b.id then float_of_int (Stdlib.max 0 (b.start - a.stop)) :: acc
          else acc
        in
        gaps acc rest
    | _ -> acc
  in
  { counts; self_ns; gaps_ns = Bench_util.sorted (Array.of_list (gaps [] chained)); spans }

let write_spans path summary =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "vertex,id,kind,start_ns,stop_ns\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%d,%d,%s,%d,%d\n" s.vertex s.id
            (match s.kind with Call -> "call" | Watermark -> "watermark" | Emit -> "emit")
            s.start s.stop)
        summary.spans)
