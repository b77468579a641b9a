(* The repository benchmark: one workload per run, one closed-loop client
   on one domain (every pool is the inline one), inputs generated from
   [--seed].  See README.md for the workloads, the metrics and which layer
   should move which metric.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --self-test

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  With [--trace 0] the
   metrics are the end-to-end ones, measured with no [Obs] sink
   installed.  With [--trace 1] the run spends half its time untraced and
   half traced and reports the per-layer metrics, including the tracing
   overhead (traced over untraced mean latency). *)

open Harness

let workloads =
  [
    ("materialize", Wl_chase.materialize);
    ("bigdb", Wl_chase.bigdb);
    ("decide", Wl_decide.decide);
    ("serve", Wl_serve.serve);
  ]

(* Set-up runs at least [setup_reps] times per run, and again while the
   set-ups have taken less than [setup_min_s] in all; [setup_s] is the
   median.  A quick set-up is the noisiest, so it gets the most repeats. *)
let setup_reps = 3
let setup_min_s = 2.

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let mean a = Array.fold_left ( +. ) 0. a /. float_of_int (max 1 (Array.length a))

(* Linear-interpolated percentile of a sorted array, [q] in [0, 1]. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    sorted.(lo) +. ((pos -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

let failed_outcome i e =
  Printf.eprintf "request %d raised %s\n%!" i (Printexc.to_string e);
  { cls = "exception"; ms = infinity; words = 0.; ok = false; unknown = false }

(* A request's outcome and its position in the workload's mix. *)
type sample = { pos : int; o : outcome }

(* The peak size of the major heap over the measured phase, in words:
   sampled after every request and at the end of every major cycle, from
   a heap that set-up left compacted.  (OCaml 5.1's [Gc.compact] does not
   refresh the heap statistics; the [Gc.full_major] after it does.) *)
module Heap = struct
  let peak = ref 0
  let note () = peak := max !peak (Gc.quick_stat ()).Gc.heap_words

  let tracking f =
    peak := 0;
    note ();
    let alarm = Gc.create_alarm note in
    Fun.protect ~finally:(fun () -> Gc.delete_alarm alarm) f

  let mb words = float_of_int words *. float_of_int (Sys.word_size / 8) /. 1048576.
  let peak_mb () = mb !peak
end

let request wl ~traced cursor =
  let i = !cursor in
  incr cursor;
  if wl.fresh_heap then Gc.full_major ();
  let o = try wl.request ~traced i with e -> failed_outcome i e in
  Heap.note ();
  if traced then begin
    Trace.request_ms := !Trace.request_ms +. o.ms;
    incr Trace.requests
  end;
  { pos = i mod wl.cycle; o }

(* The closed loop: the next request is sent when the previous returns. *)
let run_for wl ~traced ~seconds cursor =
  let acc = ref [] in
  let stop = now () +. seconds in
  while now () < stop || !acc = [] do
    acc := request wl ~traced cursor :: !acc
  done;
  Array.of_list (List.rev !acc)

let run_count wl ~traced n cursor = Array.init n (fun _ -> request wl ~traced cursor)

let count p ss = Array.fold_left (fun n s -> if p s.o then n + 1 else n) 0 ss

(* One point of a phase's latency distribution. *)
type point = { kind : string; lat : float; alloc : float }

(* A phase's latency distribution: one point per position of the mix,
   holding the workload's [statistic] of the latencies of the position's
   repeats within the phase, and the median of their allocations.  The
   percentiles are taken over the positions of one pass, which weights
   each request class by its share of the mix however the run's end cuts a
   pass.  On a shared virtual machine the same request mix runs up to 1.5x
   slower for spells of seconds to minutes; a position's repeats are spread
   over the whole phase, so its point is read from all of it. *)
let point o = { kind = o.cls; lat = o.ms; alloc = o.words }

let points wl ss =
  let by_pos = Hashtbl.create 512 in
  Array.iter
    (fun s ->
      if Float.is_finite s.o.ms then
        Hashtbl.replace by_pos s.pos
          (s.o :: Option.value ~default:[] (Hashtbl.find_opt by_pos s.pos)))
    ss;
  let median_of f os = percentile (sorted (Array.of_list (List.map f os))) 0.5 in
  Hashtbl.fold
    (fun _ os acc ->
      let lat =
        match wl.statistic with
        | Least -> List.fold_left (fun m o -> Float.min m o.ms) infinity os
        | Median -> median_of (fun o -> o.ms) os
      in
      { kind = (List.hd os).cls; lat; alloc = median_of (fun o -> o.words) os } :: acc)
    by_pos []
  |> Array.of_list

let lat_ms pts = sorted (Array.map (fun p -> p.lat) pts)

(* A percentile reads steadily only if it sits inside one latency band:
   warn when the latencies 2% either side of it differ by more than 2x
   and belong to different request classes. *)
let check_boundaries pts =
  let a = Array.copy pts in
  Array.sort (fun x y -> compare x.lat y.lat) a;
  let n = Array.length a in
  List.iter
    (fun q ->
      let at f = a.(max 0 (min (n - 1) (int_of_float (f *. float_of_int (n - 1))))) in
      let lo, hi = (at (q -. 0.02), at (q +. 0.02)) in
      if hi.lat > 2. *. lo.lat && lo.kind <> hi.kind then
        Printf.eprintf "warning: p%.0f sits between classes %s (%.3g ms) and %s (%.3g ms)\n%!"
          (q *. 100.) lo.kind lo.lat hi.kind hi.lat)
    [ 0.5; 0.9 ]

let of_class pts cls =
  lat_ms (Array.of_list (List.filter (fun p -> p.kind = cls) (Array.to_list pts)))

let class_p50 pts cls = percentile (of_class pts cls) 0.5

(* Per-class latency summary of the samples, on standard error. *)
let describe_classes ss =
  let raw = Array.map (fun s -> point s.o) ss in
  let classes = List.sort_uniq compare (Array.to_list (Array.map (fun p -> p.kind) raw)) in
  List.iter
    (fun cls ->
      let a = of_class raw cls in
      Printf.eprintf "  %-22s %5.1f%% of requests  p10 %.3g  p50 %.3g  p90 %.3g ms\n" cls
        (100. *. float_of_int (Array.length a) /. float_of_int (Array.length raw))
        (percentile a 0.1) (percentile a 0.5) (percentile a 0.9))
    classes

let end_to_end wl ~setup_s ss =
  let pts = points wl ss in
  let lat = lat_ms pts in
  let share p = float_of_int (count p ss) /. float_of_int (Array.length ss) in
  [
    ("setup_s", setup_s, "s");
    ("requests_per_s", 1000. /. mean lat, "1/s");
    ("latency_p50_ms", percentile lat 0.5, "ms");
    ("latency_p90_ms", percentile lat 0.9, "ms");
    ("ok_share", share (fun o -> o.ok), "share");
    ("conclusive_share", share (fun o -> not o.unknown), "share");
    ("alloc_words_per_request", mean (Array.map (fun p -> p.alloc) pts), "words");
    ("heap_peak_mb", Heap.peak_mb (), "MB");
  ]

(* Layer metrics of the traced phase; [untraced] and [traced] are the
   latency distributions of the two halves of the run. *)
let per_layer ~untraced ~traced =
  let open Trace in
  let n = float_of_int (max 1 !requests) in
  let per x = x /. n in
  let ms name = per (sum name) in
  let c = counter in
  let steps = c "restricted.steps" +. c "session.steps" in
  let probes = c "plan.probe.index" +. c "plan.probe.scan" +. c "plan.probe.empty" in
  let adds = c "minstance.add" +. c "cinstance.add" in
  let dups = c "minstance.dup" +. c "cinstance.dup" in
  let loop =
    if sum "run" > 0. then sum "run" -. sum "store.load" -. sum "plan.compile" -. sum "plan.seed"
    else 0.
  in
  [
    ("parse.ms", ms "parse", "ms");
    ("parse.mb_per_s", ratio (sum "parse.bytes" /. 1e6) (sum "parse" /. 1000.), "MB/s");
    ("store.load_ms", ms "store.load", "ms");
    ("store.load_alloc_words", per (sum "store.load_alloc_words"), "words");
    ("store.dup_ratio", ratio dups (adds +. dups), "ratio");
    ("plan.compile_ms", ms "plan.compile", "ms");
    ("plan.seed_ms", ms "plan.seed", "ms");
    ("plan.seed_homs", per (sum "plan.seed_homs"), "count");
    ("plan.probe.index", per (c "plan.probe.index"), "count");
    ("plan.probe.scan", per (c "plan.probe.scan"), "count");
    ("plan.probe.empty_ratio", ratio (c "plan.probe.empty") probes, "ratio");
    ( "plan.memo.hit_ratio",
      ratio (c "plan.memo.hit") (c "plan.memo.hit" +. c "plan.memo.miss"),
      "ratio" );
    ("restricted.loop_ms", per loop, "ms");
    ("restricted.steps", per steps, "count");
    ("restricted.active_ratio", ratio steps (steps +. c "restricted.inactive"), "ratio");
    ("snapshot.ms", ms "snapshot", "ms");
    ("incremental.assert_ms", ms "incremental.assert", "ms");
    ("incremental.chase_ms", ms "incremental.chase", "ms");
    ("incremental.retract_ms", ms "incremental.retract", "ms");
    ("plan.delta.seed", per (c "plan.delta.seed"), "count");
    ("query.eval_ms", ms "query.eval", "ms");
    ("serve.decode_ms", ms "serve.decode", "ms");
    ("serve.render_ms", ms "serve.render", "ms");
    ("classify.ms", ms "classify", "ms");
    ("sticky.build_ms", ms "sticky.build", "ms");
    ("buchi.emptiness_ms", ms "buchi.emptiness", "ms");
    ("buchi.states", per (c "buchi.states"), "count");
    ( "sticky.next.memo_hit_ratio",
      ratio (c "sticky.next.memo_hit") (sum "sticky.next.calls"),
      "ratio" );
    ("guarded.search_ms", ms "guarded.search", "ms");
    ("guarded.candidates.searched", per (c "guarded.candidates.searched"), "count");
    ("unaccounted_share", 1. -. ratio !covered_ms !request_ms, "share");
    ("trace.overhead_share", (mean (lat_ms traced) /. mean (lat_ms untraced)) -. 1., "share");
    ("serve.assert_p50_ms", class_p50 untraced "assert", "ms");
    ("serve.chase_p50_ms", class_p50 untraced "chase", "ms");
    ("serve.query_p50_ms", class_p50 untraced "query", "ms");
    ("serve.rebuild_p50_ms", class_p50 untraced "rebuild", "ms");
  ]

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_result ss metrics =
  let attempted = Array.length ss in
  let failed = count (fun o -> not o.ok) ss in
  let fields =
    List.map
      (fun (name, v, unit) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed (String.concat ", " fields)

let setup make ~seed ~size =
  let times = ref [] and wl = ref None in
  while
    List.length !times < setup_reps || List.fold_left ( +. ) 0. !times < setup_min_s
  do
    wl := None;
    Gc.compact ();
    let t0 = now () in
    wl := Some (make ~seed ~size);
    times := (now () -. t0) :: !times
  done;
  Gc.compact ();
  Gc.full_major ();
  (Option.get !wl, percentile (sorted (Array.of_list !times)) 0.5)

let measure name ~seed ~seconds ~trace =
  let make = List.assoc name workloads in
  let wl, setup_s = setup make ~seed ~size:Full in
  Printf.eprintf "%s seed %d: %s; setup %.3f s\n%!" name seed wl.sizes setup_s;
  let cursor = ref 0 in
  ignore (run_for wl ~traced:false ~seconds:(0.1 *. seconds) cursor);
  if not trace then begin
    let heap0 = Heap.mb (Gc.quick_stat ()).Gc.heap_words in
    let ss = Heap.tracking (fun () -> run_for wl ~traced:false ~seconds cursor) in
    Printf.eprintf "heap %.1f MB after set-up and warm-up, %.1f MB peak while measured\n%!" heap0
      (Heap.peak_mb ());
    describe_classes ss;
    check_boundaries (points wl ss);
    print_result ss (end_to_end wl ~setup_s ss)
  end
  else begin
    let untraced = run_for wl ~traced:false ~seconds:(seconds /. 2.) cursor in
    (* the traced half starts at a pass boundary, from the state a pass
       returns to *)
    let rest = run_count wl ~traced:false ((wl.cycle - (!cursor mod wl.cycle)) mod wl.cycle) cursor in
    let untraced = Array.append untraced rest in
    wl.start_trace ();
    Trace.reset ();
    let traced = run_for wl ~traced:true ~seconds:(seconds /. 2.) cursor in
    print_result (Array.append untraced traced)
      (per_layer ~untraced:(points wl untraced) ~traced:(points wl traced))
  end

(* Every workload at tiny size: with the expected values intact no
   request may fail, untraced or traced; with one expected value made
   wrong the output check must catch it. *)
let self_test () =
  let results =
    List.map
      (fun (name, make) ->
        let wl = make ~seed:1 ~size:Tiny in
        let cursor = ref 0 in
        let untraced = run_count wl ~traced:false (wl.cycle * (1 + (60 / wl.cycle))) cursor in
        wl.start_trace ();
        let clean = Array.append untraced (run_count wl ~traced:true 60 cursor) in
        let clean_failed = count (fun o -> not o.ok) clean in
        wl.corrupt ();
        let bad_failed = count (fun o -> not o.ok) (run_count wl ~traced:false 60 cursor) in
        let pass = clean_failed = 0 && bad_failed > 0 in
        Printf.printf
          "%-12s %s: %d/%d clean requests failed, %d/60 failed with a wrong expected value (%s)\n%!"
          name
          (if pass then "ok  " else "FAIL")
          clean_failed (Array.length clean) bad_failed wl.sizes;
        pass)
      workloads
  in
  exit (if List.for_all Fun.id results then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and selftest = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of materialize, bigdb, decide, serve");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--self-test", Arg.Set selftest, " run every workload at tiny size and check the checks");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !selftest then self_test ()
  else if not (List.mem_assoc !workload workloads) then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end
  else measure !workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
