(* The two chase workloads.

   [materialize]: program text -> [Parser.parse_program] ->
   [Restricted.run] on the default compiled backend -> final instance,
   the [chasectl chase] path, over the E11 family set.

   [bigdb]: one skewed-hub database, built once at set-up as an
   [Instance.t], chased per request on the columnar backend.

   Both check every request against the step count and final cardinality
   a second backend computed at set-up (the backends are bit-identical by
   the fuzz oracle). *)

open Chase_core
open Chase_engine
open Harness

let max_steps = 200_000

type item = {
  name : string;
  text : string option;  (* program text, when requests start from text *)
  tgds : Tgd.t list;
  db : Instance.t;
  mutable steps : int;  (* expected, from the reference backend *)
  mutable card : int;
}

let reference ~backend it =
  let d = Restricted.run ~backend ~max_steps it.tgds it.db in
  if not (Derivation.terminated d) then failwith (it.name ^ ": reference run did not terminate");
  it.steps <- Derivation.length d;
  it.card <- Instance.cardinal (Derivation.final d)

(* Traced-run replays of the layers inside [Restricted.run], on the same
   input: store load, plan compilation and the seeding pass. *)
let replay_layers backend tgds db =
  let w0 = alloc_words () in
  let store = Trace.replay ~covers:false "store.load" (fun () -> Store.of_instance backend db) in
  Trace.add "store.load_alloc_words" (alloc_words () -. w0);
  let plans = Trace.replay ~covers:false "plan.compile" (fun () -> List.map Plan.compile tgds) in
  let homs = ref 0 in
  Trace.replay ~covers:false "plan.seed" (fun () ->
      List.iter (fun p -> Plan.iter_homs p store.Store.source (fun _ -> incr homs)) plans);
  Trace.add "plan.seed_homs" (float_of_int !homs)

let make_request ~(backend : Store.backend) items sched =
  fun ~traced i ->
    let it = items.(sched.(i mod Array.length sched)) in
    let body () =
      let w0 = alloc_words () in
      let t0 = now () in
      let tgds, db =
        match it.text with
        | None -> (it.tgds, it.db)
        | Some text ->
            let p = Chase_parser.Parser.parse_program text in
            (Chase_parser.Program.tgds p, Chase_parser.Program.database p)
      in
      let t1 = now () in
      let d = Restricted.run ~backend:(backend :> Backend.t) ~max_steps tgds db in
      let t2 = now () in
      let final = Derivation.final d in
      let t3 = now () in
      (tgds, db, d, final, [| t0; t1; t2; t3 |], alloc_words () -. w0)
    in
    let tgds, db, d, final, t, words = if traced then Trace.in_sink body else body () in
    let ms = (t.(3) -. t.(0)) *. 1000. in
    if traced then begin
      Option.iter
        (fun text ->
          Trace.layer "parse" ((t.(1) -. t.(0)) *. 1000.);
          Trace.add "parse.bytes" (float_of_int (String.length text)))
        it.text;
      Trace.layer "run" ((t.(2) -. t.(1)) *. 1000.);
      Trace.layer "snapshot" ((t.(3) -. t.(2)) *. 1000.);
      replay_layers backend tgds db
    end;
    let ok =
      Derivation.terminated d && Derivation.length d = it.steps
      && Instance.cardinal final = it.card
    in
    { cls = it.name; ms; words; ok; unknown = false }

(* --- materialize ----------------------------------------------------- *)

let ontology_src =
  "o1: employee(E) -> exists T. member(E,T).\no2: member(E,T) -> team(T).\n\
   o3: team(T) -> exists E. member(E,T).\no4: member(E,T) -> employee(E)."

(* The E11 families (bench/main.ml), the small ones at its full sizes and
   the two hub programs at half of them, with the share of requests each
   gets.  Latency bands: deep ~1 ms (30% of requests), join ~2 ms (55%),
   ontology and doctors ~8 ms (10%), the two hub programs 100-150 ms (5%).
   So p50 falls inside the join band and p90 in the middle of the
   ontology/doctors band, while the hub programs, parse-bound, take most
   of the time and so set requests_per_s. *)
let families size =
  let module S = Chase_workload.St_mapping in
  let st (s : S.scenario) = (s.S.name, s.S.tgds, s.S.database) in
  let ontology n =
    ( Printf.sprintf "ontology-%d" n,
      Chase_parser.Parser.parse_tgds ontology_src,
      Chase_workload.Db_gen.unary ~pred:"employee" ~count:n )
  in
  match size with
  | Tiny ->
      [
        (ontology 20, 1);
        (st (S.doctors ~patients:20), 1);
        (st (S.deep ~depth:3 ~width:4), 1);
        (st (S.join_heavy ~rows:10), 1);
        (st (S.hub_propagation ~n:20 ~pad:40), 1);
        (st (S.hub_exchange ~n:20 ~pad:40), 1);
      ]
  | Full ->
      [
        (ontology 300, 2);
        (st (S.doctors ~patients:150), 2);
        (st (S.deep ~depth:6 ~width:25), 12);
        (st (S.join_heavy ~rows:45), 22);
        (st (S.hub_propagation ~n:1000 ~pad:4000), 1);
        (st (S.hub_exchange ~n:750 ~pad:6000), 1);
      ]

let materialize ~seed ~size =
  let st = Random.State.make [| seed; 0x3a7 |] in
  let tag = tag_of_seed seed in
  let fams = families size in
  let items =
    Array.of_list
      (List.map
         (fun ((name, tgds, db), _) ->
           let text = program_text st ~tag tgds db in
           let p = Chase_parser.Parser.parse_program text in
           let it =
             {
               name;
               text = Some text;
               tgds = Chase_parser.Program.tgds p;
               db = Chase_parser.Program.database p;
               steps = 0;
               card = 0;
             }
           in
           reference ~backend:`Columnar it;
           it)
         fams)
  in
  let sched = schedule (Array.of_list (List.map snd fams)) in
  let sizes =
    String.concat ", "
      (Array.to_list
         (Array.map
            (fun it ->
              let text = Option.get it.text in
              Printf.sprintf "%s: %d facts, %d steps, %d bytes" it.name
                (Instance.cardinal it.db) it.steps (String.length text))
            items))
  in
  (* requests parse [text]; keep no parsed copy alive *)
  let items = Array.map (fun it -> { it with tgds = []; db = Instance.empty }) items in
  {
    sizes;
    cycle = Array.length sched;
    request = make_request ~backend:`Compiled items sched;
    start_trace = ignore;
    statistic = Least;
    fresh_heap = false;
    corrupt = (fun () -> items.(0).steps <- items.(0).steps + 1);
  }

(* --- bigdb ----------------------------------------------------------- *)

(* [St_mapping.hub_propagation]'s shape with seeded constant names:
   an [n]-cycle [e], [eZ]/[m] edges of every cycle node into one hub, and
   [pad] more [m] atoms on the hub.  The chase walks the cycle in exactly
   [n - 1] steps.  One database per entry of [pads], each a snapshot of
   the next one's construction, so they share their atoms. *)
let hub_databases ~tag ~n ~pads =
  let c fmt = Printf.ksprintf (fun s -> Term.Const (s ^ "_" ^ tag)) fmt in
  let hub = c "hub" in
  let db = ref Instance.empty in
  let add p args = db := Instance.add (Atom.make p args) !db in
  for i = 0 to n - 1 do
    add "e" [ c "v%d" i; c "v%d" ((i + 1) mod n) ];
    add "eZ" [ c "v%d" i; hub ];
    add "m" [ c "v%d" i; hub ]
  done;
  add "r" [ c "v0" ];
  let added = ref 0 in
  List.map
    (fun pad ->
      while !added < pad do
        add "m" [ c "d%d" !added; hub ];
        incr added
      done;
      (pad, !db))
    pads

(* Three database sizes, so that the latency distribution has three
   points: p50 is the middle size and p90 lies between the two larger. *)
let bigdb ~seed ~size =
  let n, pads =
    match size with
    | Tiny -> (50, [ 100; 200; 300 ])
    | Full -> (6_000, [ 86_000; 190_000; 294_000 ])
  in
  let tgds = (Chase_workload.St_mapping.hub_propagation ~n:1 ~pad:0).tgds in
  let items =
    Array.of_list
      (List.map
         (fun (pad, db) ->
           let it =
             { name = Printf.sprintf "hub-%d+%d" n pad; text = None; tgds; db; steps = 0; card = 0 }
           in
           reference ~backend:`Compiled it;
           it)
         (hub_databases ~tag:(tag_of_seed seed) ~n ~pads))
  in
  let sizes =
    String.concat ", "
      (Array.to_list
         (Array.map
            (fun it ->
              Printf.sprintf "%s: %d facts, %d steps" it.name (Instance.cardinal it.db) it.steps)
            items))
  in
  let sched = schedule (Array.make (Array.length items) 1) in
  {
    sizes;
    cycle = Array.length sched;
    request = make_request ~backend:`Columnar items sched;
    start_trace = ignore;
    statistic = Median;
    fresh_heap = true;
    corrupt = (fun () -> items.(0).card <- items.(0).card + 1);
  }
