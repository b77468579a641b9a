(* The observability substrate (lib/obs): signal accounting in the Stats
   sink, sink plumbing (install/with_sink/tee/suspended), span paths and
   exception safety, JSON-lines well-formedness (checked with a small
   hand-written JSON parser — the tree has no JSON dependency), and the
   property that matters most: installing a sink never changes what the
   engines derive. *)

open Chase_core
open Chase_engine

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let str = Alcotest.string

(* A deterministic clock: each [tick t] call advances time to [t]. *)
let with_fake_clock f =
  let t = ref 0.0 in
  Obs.set_clock (fun () -> !t);
  Fun.protect ~finally:(fun () -> Obs.set_clock Unix.gettimeofday) (fun () -> f t)

(* The default clock is wall time, so a span around a sleep — which burns
   no CPU — must report (roughly) the slept duration.  Under the old
   [Sys.time] default this span measured ~0 s; under a jobs>1 pool it
   over-reported instead (every domain's CPU accrues to the process). *)
let test_wall_clock_spans () =
  let st = Obs.Stats.create () in
  Obs.with_sink (Obs.Stats.sink st) (fun () -> Obs.span "sleep" (fun () -> Unix.sleepf 0.05));
  (match Obs.Stats.spans st with
  | [ ("sleep", (1, s)) ] ->
      check bool "span covers the sleep" true (s >= 0.03);
      check bool "span is sane (not hours)" true (s < 10.0)
  | spans ->
      Alcotest.failf "unexpected spans: %s" (String.concat ", " (List.map fst spans)));
  (* [set_clock] re-anchors the origin: [now] restarts near 0 for the
     new clock rather than keeping the old origin. *)
  Obs.set_clock Unix.gettimeofday;
  check bool "origin re-anchored" true (Float.abs (Obs.now ()) < 1.0)

(* --- Stats accounting ------------------------------------------------ *)

let test_counters () =
  let st = Obs.Stats.create () in
  Obs.with_sink (Obs.Stats.sink st) (fun () ->
      Obs.incr "a";
      Obs.incr "a";
      Obs.count "a" 3;
      Obs.count "b" 7);
  check int "a sums" 5 (Obs.Stats.counter st "a");
  check int "b sums" 7 (Obs.Stats.counter st "b");
  check int "absent is 0" 0 (Obs.Stats.counter st "c");
  check bool "sorted keys" true (Obs.Stats.counters st = [ ("a", 5); ("b", 7) ])

let test_gauges_events () =
  let st = Obs.Stats.create () in
  Obs.with_sink (Obs.Stats.sink st) (fun () ->
      Obs.gauge "pool" 3;
      Obs.gauge "pool" 9;
      Obs.event "step" [ ("i", Obs.Int 1) ];
      Obs.event "step" []);
  check bool "gauge keeps last" true (Obs.Stats.gauges st = [ ("pool", 9) ]);
  check bool "events counted" true (Obs.Stats.events st = [ ("step", 2) ])

let test_spans () =
  with_fake_clock (fun t ->
      let st = Obs.Stats.create () in
      Obs.with_sink (Obs.Stats.sink st) (fun () ->
          Obs.span "outer" (fun () ->
              t := 1.0;
              Obs.span "inner" (fun () -> t := 3.0);
              Obs.span "inner" (fun () -> ())));
      match Obs.Stats.spans st with
      | [ ("outer", (1, outer)); ("outer.inner", (2, inner)) ] ->
          check bool "outer duration" true (Float.abs (outer -. 3.0) < 1e-9);
          check bool "inner total" true (Float.abs (inner -. 2.0) < 1e-9)
      | spans ->
          Alcotest.failf "unexpected spans: %s"
            (String.concat ", " (List.map fst spans)))

let test_span_path_and_exceptions () =
  let st = Obs.Stats.create () in
  Obs.with_sink (Obs.Stats.sink st) (fun () ->
      check bool "no path outside spans" true (Obs.span_path () = None);
      (try Obs.span "boom" (fun () -> failwith "inside") with Failure _ -> ());
      (* the failed span must still be popped and recorded *)
      check bool "path restored after raise" true (Obs.span_path () = None);
      Obs.span "a" (fun () ->
          Obs.span "b" (fun () ->
              check bool "nested path" true (Obs.span_path () = Some "a.b"))));
  check bool "raising span recorded" true
    (List.mem_assoc "boom" (Obs.Stats.spans st))

(* --- sink plumbing --------------------------------------------------- *)

let test_plumbing () =
  check bool "disabled by default" false (Obs.enabled ());
  Obs.incr "ignored" (* must be a no-op, not an exception *);
  let st1 = Obs.Stats.create () and st2 = Obs.Stats.create () in
  Obs.with_sink (Obs.Stats.sink st1) (fun () ->
      check bool "enabled inside with_sink" true (Obs.enabled ());
      Obs.with_sink (Obs.Stats.sink st2) (fun () -> Obs.incr "deep");
      (* inner with_sink restores the outer sink, not None *)
      Obs.incr "outer";
      Obs.suspended (fun () ->
          check bool "suspended disables" false (Obs.enabled ());
          Obs.incr "invisible");
      Obs.incr "outer");
  check bool "restored to disabled" false (Obs.enabled ());
  check int "inner sink saw only its window" 1 (Obs.Stats.counter st2 "deep");
  check int "outer sink unaffected by inner window" 0 (Obs.Stats.counter st1 "deep");
  check int "outer resumed after nesting" 2 (Obs.Stats.counter st1 "outer");
  check int "suspended hid the signal" 0 (Obs.Stats.counter st1 "invisible")

let test_tee () =
  let st1 = Obs.Stats.create () and st2 = Obs.Stats.create () in
  Obs.with_sink (Obs.tee (Obs.Stats.sink st1) (Obs.Stats.sink st2)) (fun () ->
      Obs.incr "x";
      Obs.gauge "g" 4;
      Obs.event "e" []);
  List.iter
    (fun st ->
      check int "counter teed" 1 (Obs.Stats.counter st "x");
      check bool "gauge teed" true (Obs.Stats.gauges st = [ ("g", 4) ]);
      check bool "event teed" true (Obs.Stats.events st = [ ("e", 1) ]))
    [ st1; st2 ]

let test_install () =
  let st = Obs.Stats.create () in
  Obs.install (Obs.Stats.sink st);
  Fun.protect ~finally:Obs.uninstall (fun () -> Obs.incr "x");
  check bool "uninstalled" false (Obs.enabled ());
  check int "installed sink saw signal" 1 (Obs.Stats.counter st "x")

(* --- a minimal JSON parser (validation only) ------------------------- *)

type json =
  | JNull
  | JBool of bool
  | JNum of float
  | JStr of string
  | JArr of json list
  | JObj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d in %s" msg !pos s)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if peek () = Some c then advance () else fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> Buffer.add_char buf '"'; advance (); go ()
          | Some '\\' -> Buffer.add_char buf '\\'; advance (); go ()
          | Some '/' -> Buffer.add_char buf '/'; advance (); go ()
          | Some 'n' -> Buffer.add_char buf '\n'; advance (); go ()
          | Some 't' -> Buffer.add_char buf '\t'; advance (); go ()
          | Some 'r' -> Buffer.add_char buf '\r'; advance (); go ()
          | Some 'b' -> Buffer.add_char buf '\b'; advance (); go ()
          | Some 'f' -> Buffer.add_char buf '\012'; advance (); go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then fail "short \\u escape";
              let hex = String.sub s !pos 4 in
              String.iter
                (fun c ->
                  match c with
                  | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> ()
                  | _ -> fail "bad \\u escape")
                hex;
              Buffer.add_string buf ("\\u" ^ hex);
              pos := !pos + 4;
              go ()
          | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "raw control char in string"
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && num_char s.[!pos] do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> JNum f
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          JObj []
        end
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ((k, v) :: acc)
            | Some '}' -> advance (); JObj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          members []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          JArr []
        end
        else
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elements (v :: acc)
            | Some ']' -> advance (); JArr (List.rev ((v :: acc)))
            | _ -> fail "expected , or ]"
          in
          elements []
    | Some '"' -> JStr (parse_string ())
    | Some 't' -> literal "true" (JBool true)
    | Some 'f' -> literal "false" (JBool false)
    | Some 'n' -> literal "null" JNull
    | Some _ -> parse_number ()
    | None -> fail "unexpected end"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* --- JSON-lines sink ------------------------------------------------- *)

let collect_lines f =
  let lines = ref [] in
  Obs.with_sink (Obs.Jsonl.sink (fun l -> lines := l :: !lines)) f;
  List.rev !lines

let field name = function
  | JObj kvs -> List.assoc_opt name kvs
  | _ -> None

let test_jsonl_schema () =
  let lines =
    collect_lines (fun () ->
        Obs.incr "c";
        Obs.count "c" 4;
        Obs.gauge "g" (-2);
        Obs.span "s" (fun () -> Obs.event "e" [ ("k", Obs.Str "v"); ("f", Obs.Float 0.5) ]);
        Obs.event "top" [ ("ok", Obs.Bool true) ])
  in
  check int "one line per signal" 6 (List.length lines);
  let parsed = List.map parse_json lines in
  List.iter
    (fun j ->
      check bool "has ts" true (match field "ts" j with Some (JNum _) -> true | _ -> false);
      check bool "has kind" true
        (match field "kind" j with
        | Some (JStr ("counter" | "gauge" | "span" | "event")) -> true
        | _ -> false);
      check bool "has name" true (match field "name" j with Some (JStr _) -> true | _ -> false))
    parsed;
  let by_kind k =
    List.filter
      (fun j -> match field "kind" j with Some (JStr k') -> k' = k | _ -> false)
      parsed
  in
  check int "two counter lines" 2 (List.length (by_kind "counter"));
  check bool "counter carries n" true
    (List.for_all
       (fun j -> match field "n" j with Some (JNum _) -> true | _ -> false)
       (by_kind "counter"));
  check bool "gauge carries value" true
    (match by_kind "gauge" with
    | [ j ] -> field "value" j = Some (JNum (-2.))
    | _ -> false);
  check bool "span carries seconds" true
    (match by_kind "span" with
    | [ j ] ->
        field "name" j = Some (JStr "s")
        && (match field "s" j with Some (JNum s) -> s >= 0. | _ -> false)
    | _ -> false);
  (* events: the one inside the span carries its path, the other doesn't *)
  let ev name =
    List.find (fun j -> field "name" j = Some (JStr name)) (by_kind "event")
  in
  check bool "event in span has span path" true (field "span" (ev "e") = Some (JStr "s"));
  check bool "event outside span has no span" true (field "span" (ev "top") = None);
  check bool "event fields typed" true
    (match field "fields" (ev "e") with
    | Some (JObj kvs) ->
        List.assoc_opt "k" kvs = Some (JStr "v") && List.assoc_opt "f" kvs = Some (JNum 0.5)
    | _ -> false);
  check bool "bool field" true
    (match field "fields" (ev "top") with
    | Some (JObj kvs) -> List.assoc_opt "ok" kvs = Some (JBool true)
    | _ -> false)

let test_jsonl_escaping () =
  let nasty = "a\"b\\c\nd\te\r\001f" in
  let lines =
    collect_lines (fun () -> Obs.event nasty [ (nasty, Obs.Str nasty) ])
  in
  match List.map parse_json lines with
  | [ j ] ->
      (* \001 is emitted as a \\u escape, which the validation parser keeps verbatim *)
      let expect = "a\"b\\c\nd\te\r\\u0001f" in
      check bool "name escaped" true (field "name" j = Some (JStr expect));
      check bool "field key+value escaped" true
        (match field "fields" j with
        | Some (JObj [ (k, JStr v) ]) -> k = expect && v = expect
        | _ -> false)
  | _ -> Alcotest.fail "expected exactly one line"

let test_jsonl_nonfinite () =
  let lines = collect_lines (fun () -> Obs.event "e" [ ("x", Obs.Float Float.nan) ]) in
  match List.map parse_json lines with
  | [ j ] ->
      check bool "nan maps to null" true
        (match field "fields" j with
        | Some (JObj [ ("x", JNull) ]) -> true
        | _ -> false)
  | _ -> Alcotest.fail "expected exactly one line"

(* A real chase traced end to end: every line parses, and the stream
   contains the run/step/done event skeleton with non-zero counters. *)
let test_jsonl_chase () =
  let tgds, db =
    let p =
      Chase_parser.Parser.parse_program
        "s1: s(X,Y) -> t(X).\ns2: r(X,Y), t(Y) -> p(X,Y).\n\
         s3: p(X,Y) -> exists Z. p(Y,Z).\nr(a,b). s(b,c)."
    in
    (Chase_parser.Program.tgds p, Chase_parser.Program.database p)
  in
  let lines = collect_lines (fun () -> ignore (Restricted.run ~max_steps:10 tgds db)) in
  check bool "trace is non-empty" true (lines <> []);
  let parsed = List.map parse_json lines in
  let count pred = List.length (List.filter pred parsed) in
  let kind_name k nm j = field "kind" j = Some (JStr k) && field "name" j = Some (JStr nm) in
  check int "one run event" 1 (count (kind_name "event" "run"));
  check int "one done event" 1 (count (kind_name "event" "done"));
  check int "ten step events" 10 (count (kind_name "event" "step"));
  check int "one run span" 1 (count (kind_name "span" "restricted.run"));
  check bool "step counters present" true (count (kind_name "counter" "restricted.steps") = 10)

(* The two store-backed chase surfaces share one loop but count their
   steps apart ([restricted.steps], [session.steps]), so a consumer can
   add the two without counting a step twice. *)
let test_step_counters_disjoint () =
  let tgds, db =
    let p =
      Chase_parser.Parser.parse_program
        "a: p(X) -> exists Y. q(X,Y).\nb: q(X,Y) -> r(Y).\np(c1). p(c2)."
    in
    (Chase_parser.Program.tgds p, Chase_parser.Program.database p)
  in
  let counters f =
    let st = Obs.Stats.create () in
    Obs.with_sink (Obs.Stats.sink st) f;
    (Obs.Stats.counter st "restricted.steps", Obs.Stats.counter st "session.steps")
  in
  let run = counters (fun () -> ignore (Restricted.run tgds db)) in
  check (Alcotest.pair int int) "Restricted.run" (4, 0) run;
  let session = counters (fun () -> ignore (Incremental.chase (Incremental.create tgds db))) in
  check (Alcotest.pair int int) "session chase" (0, 4) session

(* --- observation is passive ------------------------------------------ *)

let same_steps d1 d2 =
  List.length (Derivation.steps d1) = List.length (Derivation.steps d2)
  && List.for_all2
       (fun s1 s2 ->
         Trigger.equal s1.Derivation.trigger s2.Derivation.trigger
         && List.equal Atom.equal s1.Derivation.produced s2.Derivation.produced)
       (Derivation.steps d1) (Derivation.steps d2)

let same_derivation d1 d2 =
  Derivation.status d1 = Derivation.status d2
  && same_steps d1 d2
  && Instance.equal (Derivation.final d1) (Derivation.final d2)

let tgds_gen =
  let open QCheck2.Gen in
  list_size (int_range 1 3) Tgen.tgd_gen

let random_db tgds seed =
  Chase_workload.Db_gen.random ~schema:(Schema.of_tgds tgds) ~atoms:5 ~domain:3 ~seed

let strategies = [ Restricted.Fifo; Restricted.Lifo; Restricted.Random 42 ]

let traced_run ~backend ~strategy tgds db =
  let st = Obs.Stats.create () in
  let sink = Obs.tee (Obs.Stats.sink st) (Obs.Jsonl.sink (fun _ -> ())) in
  let d = Obs.with_sink sink (fun () -> Restricted.run ~backend ~strategy ~max_steps:60 tgds db) in
  (d, st)

let properties =
  let open QCheck2 in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"tracing never changes the derivation" ~count:60
         (Gen.pair tgds_gen (Gen.int_bound 100_000))
         (fun (tgds, seed) ->
           let db = random_db tgds seed in
           List.for_all
             (fun strategy ->
               List.for_all
                 (fun backend ->
                   let plain = Restricted.run ~backend ~strategy ~max_steps:60 tgds db in
                   let traced, st = traced_run ~backend ~strategy tgds db in
                   same_derivation plain traced
                   && Obs.Stats.counter st "restricted.steps" = Derivation.length plain)
                 [ `Compiled; `Naive ])
             strategies));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"tracing is passive under a domain pool" ~count:40
         (Gen.pair tgds_gen (Gen.int_bound 100_000))
         (fun (tgds, seed) ->
           (* A sink installed while jobs>1 must not change the derivation:
              the coordinator emits only aggregate pool.* signals, worker
              domains have no sink at all (per-domain DLS). *)
           let db = random_db tgds seed in
           let jobs = Chase_exec.Pool.default_jobs ~default:3 () in
           List.for_all
             (fun strategy ->
               let plain = Restricted.run ~strategy ~max_steps:60 tgds db in
               let st = Obs.Stats.create () in
               let traced =
                 Obs.with_sink (Obs.Stats.sink st) (fun () ->
                     Chase_exec.Pool.with_pool ~jobs (fun pool ->
                         Restricted.run ~strategy ~max_steps:60 ~pool tgds db))
               in
               same_derivation plain traced
               && Obs.Stats.counter st "restricted.steps" = Derivation.length plain
               && (jobs = 1 || Obs.Stats.counter st "pool.domains" = jobs - 1))
             strategies));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"trace lines parse as JSON for random workloads" ~count:30
         (Gen.pair tgds_gen (Gen.int_bound 100_000))
         (fun (tgds, seed) ->
           let db = random_db tgds seed in
           let lines =
             collect_lines (fun () -> ignore (Restricted.run ~max_steps:40 tgds db))
           in
           List.for_all
             (fun l -> match parse_json l with JObj _ -> true | _ -> false)
             lines));
  ]

let unit_tests =
  [
    Alcotest.test_case "counters sum" `Quick test_counters;
    Alcotest.test_case "gauges keep last, events count" `Quick test_gauges_events;
    Alcotest.test_case "span durations and nesting" `Quick test_spans;
    Alcotest.test_case "default clock is wall time; set_clock re-anchors" `Quick
      test_wall_clock_spans;
    Alcotest.test_case "span paths and exception safety" `Quick test_span_path_and_exceptions;
    Alcotest.test_case "with_sink/suspended scoping" `Quick test_plumbing;
    Alcotest.test_case "tee duplicates signals" `Quick test_tee;
    Alcotest.test_case "install/uninstall" `Quick test_install;
    Alcotest.test_case "jsonl schema per kind" `Quick test_jsonl_schema;
    Alcotest.test_case "jsonl string escaping" `Quick test_jsonl_escaping;
    Alcotest.test_case "jsonl non-finite floats" `Quick test_jsonl_nonfinite;
    Alcotest.test_case "jsonl trace of a real chase" `Quick test_jsonl_chase;
    Alcotest.test_case "restricted and session step counters are disjoint" `Quick
      test_step_counters_disjoint;
  ]

let suite = [ ("obs", unit_tests); ("obs-passivity", properties) ]
