(* Shared pieces of the benchmark: the clock, allocation counting, the
   request record every workload returns, seeded input helpers, and the
   traced-run accumulators.

   Timing is wall-clock ([Unix.gettimeofday]); the benchmark runs one
   client on one domain, so wall time is the time the client waits. *)

open Chase_core

let now = Unix.gettimeofday
let ms_since t0 = (now () -. t0) *. 1000.

(* Words allocated so far on this domain: minor allocations plus direct
   major allocations (promotions are not new allocations). *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Small inputs for the self-test, full inputs for measured runs. *)
type size = Tiny | Full

(* One request of the closed loop.  [ms] and [words] cover only the calls
   into the program's public entry points; output checks and traced-run
   replays happen outside them. *)
type outcome = {
  cls : string;  (* request class, for per-class percentiles *)
  ms : float;
  words : float;
  ok : bool;  (* reply was not an error and passed its output check *)
  unknown : bool;  (* a decider answered Unknown (not a failure) *)
}

(* How a position's repeats within a phase make one point of the latency
   distribution.  [Least], as in best-of-N timing, suits requests of a
   few milliseconds: some repeats land in the host's fast moments, and the
   least latency depends least on the host.  A request of hundreds of
   milliseconds averages over those moments itself, so its least latency is
   just the low tail of its noise, and the [Median] is steadier. *)
type statistic = Least | Median

type workload = {
  sizes : string;  (* one line: the generated input sizes *)
  cycle : int;  (* requests in one pass over the workload's request mix *)
  request : traced:bool -> int -> outcome;  (* the [i]-th request *)
  start_trace : unit -> unit;  (* before the traced requests, at a pass boundary *)
  statistic : statistic;
  fresh_heap : bool;
      (* a full major collection before every request, outside its timing,
         so that each request starts from the same heap and pays the
         collection work of its own garbage, not a share of its
         predecessors' *)
  corrupt : unit -> unit;  (* self-test: make one expected value wrong *)
}

(* A seeded, fixed-length renaming of constants (and, for TGD sets, of
   predicates): every seed relabels the same input shape, so the work per
   request is the same across seeds while the bytes, hashes and sort
   orders differ. *)
let tag_of_seed seed =
  let st = Random.State.make [| seed; 0x7a6 |] in
  String.init 3 (fun _ -> Char.chr (Char.code 'a' + Random.State.int st 26))

let rename_atom tag a =
  Atom.map (function Term.Const c -> Term.Const (c ^ "_" ^ tag) | t -> t) a

let shuffle st arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- x
  done

(* Program text for a TGD set and database, facts printed in a seeded
   order (and renamed by [tag] when given). *)
let program_text st ?tag tgds db =
  let rename = match tag with Some tag -> rename_atom tag | None -> Fun.id in
  let facts = Array.of_list (List.map rename (Instance.to_list db)) in
  shuffle st facts;
  let buf = Buffer.create (64 * (Array.length facts + 1)) in
  List.iter
    (fun t ->
      Buffer.add_string buf (Chase_parser.Printer.print_tgd t);
      Buffer.add_char buf '\n')
    tgds;
  Array.iter
    (fun a ->
      Buffer.add_string buf (Chase_parser.Printer.print_fact a);
      Buffer.add_char buf '\n')
    facts;
  Buffer.contents buf

let rename_pred tag a = Atom.make (Atom.pred a ^ "_" ^ tag) (Atom.args a)

let rename_tgd tag t =
  Tgd.make ~name:(Tgd.name t)
    ~body:(List.map (rename_pred tag) (Tgd.body t))
    ~head:(List.map (rename_pred tag) (Tgd.head t))
    ()

(* A schedule of item indices in which item [k] appears [weights.(k)]
   times; the closed loop cycles through it.  The order is shuffled once,
   the same for every seed, so the garbage one request leaves for the
   next follows the same pattern on every seed. *)
let schedule weights =
  let s = Array.concat (Array.to_list (Array.mapi (fun k w -> Array.make w k) weights)) in
  shuffle (Random.State.make [| 0x5c4ed |]) s;
  s

(* The traced run.  Layer times come from two sources: calls into a
   layer's public functions timed here (inside the request, or replayed
   beside it on the same input when the layer sits inside one entry
   point), and the counters and spans the program emits into an
   installed [Obs.Stats] sink. *)
module Trace = struct
  let stats = ref (Obs.Stats.create ())
  let sums : (string, float) Hashtbl.t = Hashtbl.create 64

  (* request time, and the part of it that timed layer calls cover *)
  let request_ms = ref 0.
  let covered_ms = ref 0.
  let requests = ref 0

  let reset () =
    stats := Obs.Stats.create ();
    Hashtbl.reset sums;
    request_ms := 0.;
    covered_ms := 0.;
    requests := 0

  let sum name = Option.value ~default:0. (Hashtbl.find_opt sums name)
  let add name v = Hashtbl.replace sums name (v +. sum name)

  (* Record a layer time; [covers] says it stands for part of the request
     (false for sub-splits of a time already counted). *)
  let layer ?(covers = true) name ms =
    add name ms;
    if covers then covered_ms := !covered_ms +. ms

  (* Time [f] as a replayed layer call. *)
  let replay ?covers name f =
    let t0 = now () in
    let r = f () in
    layer ?covers name (ms_since t0);
    r

  let in_sink f = Obs.with_sink (Obs.Stats.sink !stats) f
  let counter name = float_of_int (Obs.Stats.counter !stats name)

  (* Total seconds of every span whose path ends in [name]. *)
  let span_s name =
    List.fold_left
      (fun acc (path, (_, s)) ->
        if path = name || String.ends_with ~suffix:("." ^ name) path then acc +. s else acc)
      0. (Obs.Stats.spans !stats)

  let ratio a b = if b > 0. then a /. b else 0.
end
