(* The chase-as-a-service layer (lib/serve): wire-protocol JSON, request
   decoding, the dispatch loop's reply/error contract, session budgets,
   and the core incremental-maintenance property — a warm session's
   re-chase is hom-equivalent to chasing the accumulated facts from
   scratch (at CHASE_JOBS parallelism, like the engine suites). *)

open Chase_core
open Chase_engine
module Json = Chase_serve.Json
module Protocol = Chase_serve.Protocol
module Session = Chase_serve.Session
module Server = Chase_serve.Server
module Pool = Chase_exec.Pool

let jobs = Pool.default_jobs ~default:3 ()

(* --- helpers ---------------------------------------------------------- *)

let server ?(max_sessions = 64) ?(defaults = Session.default_budgets) ?(backend = `Compiled) () =
  Server.create { Server.max_sessions; defaults; backend }

let ask srv line = Server.dispatch srv line

let get reply path =
  let rec go v = function
    | [] -> v
    | k :: rest -> (
        match Json.member k v with
        | Some v -> go v rest
        | None -> Alcotest.failf "reply %s lacks field %s" (Json.to_string reply) k)
  in
  go reply path

let get_str reply path =
  match get reply path with
  | Json.Str s -> s
  | v -> Alcotest.failf "expected string at %s, got %s" (String.concat "." path) (Json.to_string v)

let get_int reply path =
  match get reply path with
  | Json.Int n -> n
  | v -> Alcotest.failf "expected int at %s, got %s" (String.concat "." path) (Json.to_string v)

let get_bool reply path =
  match get reply path with
  | Json.Bool b -> b
  | v -> Alcotest.failf "expected bool at %s, got %s" (String.concat "." path) (Json.to_string v)

let check_ok reply = Alcotest.(check bool) "ok reply" true (get_bool reply [ "ok" ])

let check_error code reply =
  Alcotest.(check bool) "error reply" false (get_bool reply [ "ok" ]);
  Alcotest.(check string) "error code" code (get_str reply [ "error"; "code" ])

(* Escape a program into a JSON request string field. *)
let req fields =
  Json.to_string (Json.Obj fields)

let load ?(session = "s") srv program =
  ask srv (req [ ("op", Json.Str "load-program"); ("session", Json.Str session);
                 ("program", Json.Str program) ])

let op ?(session = "s") ?(extra = []) srv name =
  ask srv (req ([ ("op", Json.Str name); ("session", Json.Str session) ] @ extra))

(* --- JSON values ------------------------------------------------------ *)

let test_json_roundtrip () =
  let doc = {|{"a": [1, -2.5, true, null, "q\"uote\n"], "b": {"c": 1e3}}|} in
  let v = Json.parse doc in
  Alcotest.(check string) "stable rendering" (Json.to_string v) (Json.to_string (Json.parse (Json.to_string v)));
  (* escapes at the ends and between clean runs; a clean string verbatim *)
  Alcotest.(check string) "escaped rendering" {|["\"a\\b\n\t\r\u0001", "plain_x1"]|}
    (Json.to_string (Json.Arr [ Json.Str "\"a\\b\n\t\r\001"; Json.Str "plain_x1" ]));
  Alcotest.(check int) "int member" 1
    (Option.get (Json.to_int_opt (Json.member "a" v |> Option.get |> function
      | Json.Arr (x :: _) -> Some x
      | _ -> None)));
  (* Integral floats decode as ints where an int is wanted. *)
  Alcotest.(check (option int)) "1e3 as int" (Some 1000)
    (Json.to_int_opt (Some (Json.parse "1e3")))

let test_json_errors () =
  let pos s =
    match Json.parse s with
    | _ -> Alcotest.failf "parse %S should fail" s
    | exception Json.Error { line; col; _ } -> (line, col)
  in
  Alcotest.(check (pair int int)) "unterminated object" (1, 8) (pos {|{"a": 1|});
  Alcotest.(check (pair int int)) "bare word" (1, 1) (pos "bogus");
  Alcotest.(check (pair int int)) "second line" (2, 6) (pos "{\n \"a\" 1}");
  (match Json.parse {|{"a": 1} trailing|} with
  | _ -> Alcotest.fail "trailing input should fail"
  | exception Json.Error _ -> ());
  (* \u escapes must be exactly 4 hex digits — OCaml literal syntax
     like underscores must not slip through int_of_string. *)
  (match Json.parse {|"\u0041"|} with
  | Json.Str s -> Alcotest.(check string) "valid \\u escape" "A" s
  | _ -> Alcotest.fail "\\u0041 should parse to a string");
  List.iter
    (fun bad ->
      match Json.parse bad with
      | _ -> Alcotest.failf "%s should fail" bad
      | exception Json.Error _ -> ())
    [ {|"\u1_23"|}; {|"\u0x12"|}; {|"\u 123"|}; {|"\uGGGG"|} ];
  Alcotest.(check string) "non-finite floats render null" "null" (Json.to_string (Json.Float nan))

(* --- protocol decoding ------------------------------------------------ *)

(* Every documented wire op decodes to the matching request — this is
   the "parser variants" test the acceptance criteria ask for: the list
   of ops lives in one place (Protocol.names) and this test fails if a
   variant is added without decode support. *)
let test_protocol_variants () =
  List.iter
    (fun name ->
      let extra =
        match name with
        | "load-program" -> {|, "program": "p(a)."|}
        | "assert" | "retract" -> {|, "facts": "p(a)."|}
        | "query" -> {|, "query": "p(X) -> ans(X)."|}
        | _ -> ""
      in
      let json = Json.parse (Printf.sprintf {|{"op": "%s", "session": "x"%s}|} name extra) in
      match Protocol.of_json json with
      | Protocol.Ok r ->
          Alcotest.(check string) ("op name round-trips: " ^ name) name (Protocol.op_name r);
          Alcotest.(check string) "session" "x" (Protocol.session_of r)
      | Protocol.Fail (_, msg) -> Alcotest.failf "op %s failed to decode: %s" name msg)
    Protocol.names

let test_protocol_rejects () =
  let fail_code line =
    match Protocol.of_json (Json.parse line) with
    | Protocol.Fail (code, _) -> Protocol.error_code_name code
    | Protocol.Ok _ -> Alcotest.failf "%s should not decode" line
  in
  Alcotest.(check string) "unknown op" "invalid-request" (fail_code {|{"op": "explode"}|});
  Alcotest.(check string) "missing op" "invalid-request" (fail_code {|{"session": "s"}|});
  Alcotest.(check string) "missing program" "invalid-request" (fail_code {|{"op": "load-program"}|});
  Alcotest.(check string) "missing facts" "invalid-request" (fail_code {|{"op": "assert"}|});
  Alcotest.(check string) "non-object" "invalid-request" (fail_code "[1,2]");
  (match Protocol.of_json (Json.parse {|{"op": "stats"}|}) with
  | Protocol.Ok r ->
      Alcotest.(check string) "default session" Protocol.default_session (Protocol.session_of r)
  | Protocol.Fail (_, m) -> Alcotest.fail m)

(* --- session lifecycle ------------------------------------------------ *)

let tc_program = "e(X,Y) -> r(X,Y). r(X,Y), e(Y,Z) -> r(X,Z). e(a,b). e(b,c)."

let test_lifecycle () =
  let srv = server () in
  let r = load srv tc_program in
  check_ok r;
  Alcotest.(check bool) "fresh" true (get_bool r [ "fresh" ]);
  Alcotest.(check int) "tgds" 2 (get_int r [ "tgds" ]);
  Alcotest.(check int) "facts" 2 (get_int r [ "facts" ]);
  Alcotest.(check int) "one session" 1 (Server.session_count srv);
  let r = load srv tc_program in
  Alcotest.(check bool) "reload replaces" false (get_bool r [ "fresh" ]);
  check_ok (op srv "close");
  Alcotest.(check int) "closed" 0 (Server.session_count srv);
  check_error "unknown-session" (op srv "stats");
  check_error "unknown-session" (op srv "close")

let test_busy () =
  let srv = server ~max_sessions:1 () in
  check_ok (load ~session:"one" srv tc_program);
  check_error "busy" (load ~session:"two" srv tc_program);
  (* Reloading the existing session is not an admission. *)
  check_ok (load ~session:"one" srv tc_program);
  check_ok (op ~session:"one" srv "close");
  check_ok (load ~session:"two" srv tc_program)

(* --- budgets ---------------------------------------------------------- *)

let diverging = "gen: r(X) -> exists Y. s(X,Y). step: s(X,Y) -> r(Y). r(a)."

let test_step_budget_and_resume () =
  let srv = server ~defaults:{ Session.default_budgets with Session.max_steps = 5 } () in
  check_ok (load srv diverging);
  let r = op srv "chase" in
  check_ok r;
  Alcotest.(check string) "status" "budget-exhausted" (get_str r [ "status" ]);
  Alcotest.(check string) "limit" "steps" (get_str r [ "limit" ]);
  Alcotest.(check int) "exactly the budget" 5 (get_int r [ "steps" ]);
  (* The stopped state resumes where it left off. *)
  let r2 = op srv "chase" in
  Alcotest.(check int) "resumes for another budget's worth" 5 (get_int r2 [ "steps" ]);
  let s = op srv "stats" in
  Alcotest.(check int) "steps accumulate" 10 (get_int s [ "steps_total" ]);
  Alcotest.(check int) "two chase calls" 2 (get_int s [ "chases" ]);
  Alcotest.(check bool) "not saturated" false (get_bool s [ "saturated" ]);
  (* A per-request max_steps below the session budget wins. *)
  let r3 = op ~extra:[ ("max_steps", Json.Int 2) ] srv "chase" in
  Alcotest.(check int) "request cap" 2 (get_int r3 [ "steps" ])

(* A step budget the derivation uses up exactly is not an exhausted
   budget: the chase reports terminated, and the session answers
   queries. *)
let test_exact_step_budget () =
  let srv = server ~defaults:{ Session.default_budgets with Session.max_steps = 4 } () in
  check_ok (load srv "a: p(X) -> exists Y. q(X,Y). b: q(X,Y) -> r(Y). p(c1). p(c2).");
  let r = op srv "chase" in
  check_ok r;
  Alcotest.(check string) "status" "terminated" (get_str r [ "status" ]);
  Alcotest.(check int) "steps" 4 (get_int r [ "steps" ]);
  Alcotest.(check bool) "no limit" true (Json.member "limit" r = None);
  let q = op ~extra:[ ("query", Json.Str "q(X,Y) -> ans(X).") ] srv "query" in
  check_ok q;
  Alcotest.(check int) "answers" 2 (get_int q [ "count" ])

let test_fact_budget () =
  let srv = server ~defaults:{ Session.default_budgets with Session.max_facts = 8 } () in
  check_ok (load srv diverging);
  let r = op srv "chase" in
  Alcotest.(check string) "limit" "facts" (get_str r [ "limit" ]);
  (* Asserting past the cap is refused up front. *)
  check_error "budget-exhausted"
    (op ~extra:[ ("facts", Json.Str "r(b). r(c). r(d). r(e). r(f). r(g). r(h). r(i). r(j).") ]
       srv "assert");
  (* But an idempotent re-assert at the cap adds 0 new atoms and must
     not be refused — the pre-check counts only genuinely new facts. *)
  let r = op ~extra:[ ("facts", Json.Str "r(a). r(a).") ] srv "assert" in
  check_ok r;
  Alcotest.(check int) "re-assert adds nothing" 0 (get_int r [ "added" ]);
  (* Loading a database larger than the cap is refused too. *)
  let srv2 = server ~defaults:{ Session.default_budgets with Session.max_facts = 1 } () in
  check_error "budget-exhausted" (load srv2 "e(a,b). e(b,c).")

(* --- incrementality and retraction ------------------------------------ *)

let chain n =
  let b = Buffer.create 256 in
  Buffer.add_string b "e(X,Y) -> r(X,Y). tc: r(X,Y), e(Y,Z) -> r(X,Z).\n";
  for i = 1 to n do
    Buffer.add_string b (Printf.sprintf "e(v%d,v%d).\n" i (i + 1))
  done;
  Buffer.contents b

let test_warm_cheaper_than_cold () =
  let srv = server () in
  check_ok (load srv (chain 12));
  let cold = op srv "chase" in
  Alcotest.(check string) "cold terminates" "terminated" (get_str cold [ "status" ]);
  Alcotest.(check bool) "cold is not incremental" false (get_bool cold [ "incremental" ]);
  let cold_steps = get_int cold [ "steps" ] in
  (* One new edge at the end of the chain: the delta re-chase derives
     only the new reachabilities, far fewer than the cold run's
     quadratic step count. *)
  check_ok (op ~extra:[ ("facts", Json.Str "e(v13,v14).") ] srv "assert");
  let warm = op srv "chase" in
  Alcotest.(check string) "warm terminates" "terminated" (get_str warm [ "status" ]);
  Alcotest.(check bool) "warm is incremental" true (get_bool warm [ "incremental" ]);
  let warm_steps = get_int warm [ "steps" ] in
  Alcotest.(check bool)
    (Printf.sprintf "warm (%d) < cold (%d) steps" warm_steps cold_steps)
    true
    (warm_steps < cold_steps);
  (* And the warm result matches chasing everything from scratch. *)
  let scratch = server () in
  check_ok (load scratch (chain 13));
  let sc = op scratch "chase" in
  Alcotest.(check int) "same final cardinality as scratch" (get_int sc [ "facts" ])
    (get_int warm [ "facts" ])

(* A retract deletes what only the retracted facts supported and
   re-seeds just the triggers they witnessed: the next chase replays
   that delta, and the session equals one loaded with the surviving
   facts. *)
let test_retract_delta () =
  let srv = server () in
  check_ok (load srv tc_program);
  Alcotest.(check int) "cold facts" 5 (get_int (op srv "chase") [ "facts" ]);
  let r = op ~extra:[ ("facts", Json.Str "e(a,b).") ] srv "retract" in
  check_ok r;
  Alcotest.(check int) "removed" 1 (get_int r [ "removed" ]);
  Alcotest.(check string) "delta re-chase announced" "delta" (get_str r [ "rechase" ]);
  Alcotest.(check int) "e(a,b), r(a,b), r(a,c) deleted" 2 (get_int r [ "facts" ]);
  let c = op srv "chase" in
  Alcotest.(check bool) "no saturation since the retract" false (get_bool c [ "incremental" ]);
  Alcotest.(check string) "terminates" "terminated" (get_str c [ "status" ]);
  Alcotest.(check int) "nothing to replay" 0 (get_int c [ "steps" ]);
  let scratch = server () in
  check_ok (load scratch "e(X,Y) -> r(X,Y). r(X,Y), e(Y,Z) -> r(X,Z). e(b,c).");
  Alcotest.(check int) "same facts as a scratch session" (get_int (op scratch "chase") [ "facts" ])
    (get_int c [ "facts" ]);
  (* Re-asserting the fact is an ordinary warm delta. *)
  check_ok (op ~extra:[ ("facts", Json.Str "e(a,b).") ] srv "assert");
  let w = op srv "chase" in
  Alcotest.(check bool) "warm again" true (get_bool w [ "incremental" ]);
  Alcotest.(check int) "back to the cold result" 5 (get_int w [ "facts" ]);
  (* Retracting a fact that is not in the base is a no-op. *)
  let r2 = op ~extra:[ ("facts", Json.Str "e(z,z).") ] srv "retract" in
  Alcotest.(check int) "absent fact" 0 (get_int r2 [ "removed" ]);
  Alcotest.(check string) "no re-chase" "none" (get_str r2 [ "rechase" ]);
  let s = op srv "stats" in
  Alcotest.(check int) "one applied retraction" 1 (get_int s [ "rebuilds" ]);
  Alcotest.(check int) "three atoms deleted" 3
    (get_int s [ "counters"; "session.retract.deleted" ])

(* --- errors stay structured ------------------------------------------- *)

(* Over the channel transport: a line one byte over the cap gets
   exactly one line-too-long reply, and the requests around it are
   served. *)
let test_line_cap () =
  let cap = Server.max_line_bytes in
  let srv = server () in
  let input = Filename.temp_file "serve" ".in" and output = Filename.temp_file "serve" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove input; Sys.remove output)
    (fun () ->
      let padded line n = line ^ String.make (n - String.length line) ' ' in
      let long =
        let head = {|{"id": 2, "op": "assert", "facts": "|} and tail = {|"}|} in
        head ^ String.make (cap + 1 - String.length head - String.length tail) 'x' ^ tail
      in
      Out_channel.with_open_bin input (fun oc ->
          List.iter
            (fun l -> Out_channel.output_string oc (l ^ "\n"))
            [
              {|{"id": 1, "op": "load-program", "session": "s", "program": "p(a)."}|};
              long;
              padded {|{"id": 3, "op": "stats", "session": "s"}|} cap;
            ];
          (* the last line has no newline and is one byte over the cap too *)
          Out_channel.output_string oc (String.make (cap + 1) '{'));
      In_channel.with_open_bin input (fun ic ->
          Out_channel.with_open_bin output (fun oc -> Server.serve_channels srv ic oc));
      let replies = List.map Json.parse (In_channel.with_open_bin output In_channel.input_lines) in
      Alcotest.(check int) "one reply per line" 4 (List.length replies);
      match replies with
      | [ loaded; too_long; at_cap; last ] ->
          check_ok loaded;
          check_error "line-too-long" too_long;
          Alcotest.(check bool) "no id: the line was never parsed" true
            (Json.member "id" too_long = None);
          check_ok at_cap;
          Alcotest.(check int) "a line of exactly the cap is served" 3 (get_int at_cap [ "id" ]);
          check_error "line-too-long" last
      | _ -> assert false)

let test_malformed_input () =
  let srv = server () in
  let r = ask srv "this is not json" in
  check_error "invalid-json" r;
  Alcotest.(check int) "line" 1 (get_int r [ "error"; "line" ]);
  Alcotest.(check bool) "col present" true (get_int r [ "error"; "col" ] >= 1);
  check_error "invalid-request" (ask srv {|{"op": "explode"}|});
  check_error "invalid-request" (ask srv "[]");
  (* Surface-syntax errors carry positions too. *)
  let r = load srv "e(X Y) -> r(X)." in
  check_error "parse-error" r;
  Alcotest.(check int) "program error line" 1 (get_int r [ "error"; "line" ]);
  (* A facts payload smuggling a TGD is rejected. *)
  check_ok (load srv tc_program);
  check_error "invalid-request" (op ~extra:[ ("facts", Json.Str "p(X) -> q(X).") ] srv "assert");
  (* The server survives all of the above. *)
  check_ok (op srv "stats")

let test_query_contract () =
  let srv = server () in
  check_ok (load srv "p(X) -> exists Y. q(X,Y). p(a).");
  check_error "not-saturated" (op ~extra:[ ("query", Json.Str "q(X,Y) -> ans(X).") ] srv "query");
  check_ok (op srv "chase");
  let r = op ~extra:[ ("query", Json.Str "q(X,Y) -> ans(X).") ] srv "query" in
  check_ok r;
  Alcotest.(check int) "certain answer count" 1 (get_int r [ "count" ]);
  (* Tuples containing nulls are not certain answers. *)
  let r = op ~extra:[ ("query", Json.Str "q(X,Y) -> ans(X,Y).") ] srv "query" in
  Alcotest.(check int) "null tuples filtered" 0 (get_int r [ "count" ]);
  check_error "parse-error" (op ~extra:[ ("query", Json.Str "q(X,") ] srv "query")

(* Sessions and queries compile their own plans: a stream of programs
   with fresh TGDs, each loaded, chased, queried, changed and closed,
   leaves the process-wide plan cache as it found it. *)
let test_sessions_keep_no_plans () =
  let srv = server () in
  let before = Plan.cached () in
  for i = 1 to 5 do
    let session = Printf.sprintf "leak%d" i in
    let p = Printf.sprintf "e%d" i and r = Printf.sprintf "r%d" i in
    check_ok
      (load ~session srv
         (Printf.sprintf "%s(X,Y) -> %s(X,Y). %s(X,Y), %s(Y,Z) -> exists W. %s(X,W). %s(a,b). %s(b,c)."
            p r r p r p p));
    check_ok (op ~session srv "chase");
    check_ok (op ~session ~extra:[ ("facts", Json.Str (p ^ "(c,d).")) ] srv "assert");
    check_ok (op ~session srv "chase");
    check_ok (op ~session ~extra:[ ("query", Json.Str (r ^ "(a,Y) -> ans(Y).")) ] srv "query");
    check_ok (op ~session ~extra:[ ("facts", Json.Str (p ^ "(a,b).")) ] srv "retract");
    check_ok (op ~session srv "chase");
    check_ok (op ~session srv "close")
  done;
  Alcotest.(check int) "plan cache unchanged" before (Plan.cached ())

(* The deciders compile through [Plan.of_tgd]; a serve decide scopes
   them, so deciding fresh guarded programs leaves the cache as it
   found it. *)
let test_decide_keeps_no_plans () =
  let srv = server () in
  let before = Plan.cached () in
  for i = 1 to 2 do
    let session = Printf.sprintf "guarded%d" i in
    let r = Printf.sprintf "g%d" i and s = Printf.sprintf "h%d" i in
    check_ok
      (load ~session srv
         (Printf.sprintf "%s(X,Y), %s(Y) -> exists Z. %s(Y,Z). %s(X,Y) -> %s(Y). %s(a,b)." r s r r s r));
    let d = op ~session srv "decide" in
    check_ok d;
    Alcotest.(check string) "the guarded search decides" "guarded-search" (get_str d [ "method" ]);
    check_ok (op ~session srv "close");
    Alcotest.(check int) "plan cache unchanged" before (Plan.cached ())
  done

(* --- decide op -------------------------------------------------------- *)

let test_decide_op () =
  let srv = server () in
  check_ok (load srv "r(X,Y) -> exists Z. r(X,Z). r(a,b).");
  (* Fixed dispatch: a conclusive sticky answer, no procedures field. *)
  let r = op srv "decide" in
  check_ok r;
  Alcotest.(check string) "answer" "terminating" (get_str r [ "answer" ]);
  Alcotest.(check string) "method" "sticky-buchi" (get_str r [ "method" ]);
  Alcotest.(check bool) "no procedures in fixed mode" true
    (Json.member "procedures" r = None);
  (* A starved state budget degrades to an Unknown answer — never a
     protocol error or an exception escaping the session.  The shifted
     rule needs more than one Büchi state per component, so a budget of
     1 genuinely starves it. *)
  check_ok (load ~session:"t" srv "r(X,Y) -> exists Z. r(Y,Z). r(a,b).");
  let r = op ~session:"t" ~extra:[ ("max_states", Json.Int 1) ] srv "decide" in
  check_ok r;
  Alcotest.(check string) "starved budget is unknown" "unknown" (get_str r [ "answer" ]);
  let r = op ~session:"t" srv "decide" in
  Alcotest.(check string) "full budget decides" "non-terminating" (get_str r [ "answer" ]);
  (* Portfolio mode folds every racer into the reply. *)
  let r = op ~extra:[ ("portfolio", Json.Bool true) ] srv "decide" in
  check_ok r;
  Alcotest.(check string) "portfolio answer" "terminating" (get_str r [ "answer" ]);
  (match get r [ "procedures" ] with
  | Json.Arr (_ :: _ as procs) ->
      List.iter
        (fun p ->
          ignore (get_str p [ "name" ]);
          ignore (get_str p [ "outcome" ]);
          ignore (get_bool p [ "conclusive" ]))
        procs
  | v -> Alcotest.failf "expected a non-empty procedures array, got %s" (Json.to_string v));
  check_error "unknown-session" (op ~session:"nope" srv "decide")

let test_id_echo () =
  let srv = server () in
  let r = ask srv {|{"id": "abc-7", "op": "stats", "session": "nope"}|} in
  Alcotest.(check string) "id echoed on errors" "abc-7" (get_str r [ "id" ]);
  check_ok (load srv tc_program);
  let r = ask srv {|{"id": 42, "op": "stats", "session": "s"}|} in
  Alcotest.(check int) "id echoed on success" 42 (get_int r [ "id" ])

(* "compiled" and "columnar" name one store: a session echoes the name
   it was given, in the load reply and in stats, and answers alike;
   "naive" has no store and is refused. *)
let test_backend_alias () =
  let srv = server ~backend:`Columnar () in
  let answers session =
    check_ok (op ~session srv "chase");
    let r = op ~session ~extra:[ ("query", Json.Str "r(a,Y) -> ans(Y).") ] srv "query" in
    check_ok r;
    Json.to_string (get r [ "answers" ])
  in
  let load_as session backend =
    ask srv
      (req
         ([ ("op", Json.Str "load-program"); ("session", Json.Str session);
            ("program", Json.Str tc_program) ]
         @ match backend with Some b -> [ ("backend", Json.Str b) ] | None -> []))
  in
  List.iter
    (fun (session, backend, expect) ->
      let r = load_as session backend in
      check_ok r;
      Alcotest.(check string) ("load echoes " ^ expect) expect (get_str r [ "backend" ]);
      Alcotest.(check string) ("stats echo " ^ expect) expect
        (get_str (op ~session srv "stats") [ "backend" ]))
    [ ("c", Some "compiled", "compiled"); ("k", Some "columnar", "columnar");
      ("d", None, "columnar") ];
  let expect = answers "k" in
  Alcotest.(check string) "compiled answers as columnar" expect (answers "c");
  Alcotest.(check string) "default answers as columnar" expect (answers "d");
  check_error "invalid-request" (load_as "n" (Some "naive"));
  check_error "invalid-request" (load_as "n" (Some "minstance"))

(* --- transport hygiene ------------------------------------------------ *)

let test_stale_socket_guard () =
  (* A regular file at the socket path is user data: refuse, keep it. *)
  let file = Filename.temp_file "serve_guard" ".txt" in
  (match Server.remove_stale_socket file with
  | () -> Alcotest.fail "regular file should be refused"
  | exception Failure _ -> ());
  Alcotest.(check bool) "file survives" true (Sys.file_exists file);
  Sys.remove file;
  (* Nothing at the path: a no-op. *)
  Server.remove_stale_socket file;
  (* An actual leftover socket is unlinked. *)
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX file);
  Unix.close sock;
  Server.remove_stale_socket file;
  Alcotest.(check bool) "stale socket removed" false (Sys.file_exists file)

(* --- documentation ---------------------------------------------------- *)

(* docs/SERVICE.md must document every request op and every error code;
   this is the contract that keeps the reference complete as the
   protocol grows. *)
let test_service_doc_complete () =
  let doc = In_channel.with_open_text "../docs/SERVICE.md" In_channel.input_all in
  let contains needle =
    let nl = String.length needle and dl = String.length doc in
    let rec go i = i + nl <= dl && (String.sub doc i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "SERVICE.md documents op %S" name)
        true
        (contains (Printf.sprintf "\"op\": \"%s\"" name)))
    Protocol.names;
  List.iter
    (fun code ->
      Alcotest.(check bool)
        (Printf.sprintf "SERVICE.md documents error code %S" code)
        true (contains code))
    (List.map Protocol.error_code_name
       [
         Protocol.Invalid_json; Protocol.Invalid_request; Protocol.Parse_error;
         Protocol.Unknown_session; Protocol.Busy; Protocol.Budget_exhausted;
         Protocol.Not_saturated; Protocol.Line_too_long; Protocol.Internal;
       ])

(* --- incremental ≡ scratch (property) --------------------------------- *)

let incremental_equivalence =
  let open QCheck2 in
  let gen =
    let open Gen in
    let* tgds = list_size (int_range 1 3) Tgen.tgd_gen in
    let* seed = int_bound 10_000 in
    let* batches = int_range 2 4 in
    return (tgds, seed, batches)
  in
  QCheck_alcotest.to_alcotest
    (Test.make ~name:"incremental assert/chase is hom-equivalent to scratch" ~count:60 gen
       (fun (tgds, seed, batches) ->
         let db =
           Chase_workload.Db_gen.random ~schema:(Schema.of_tgds tgds) ~atoms:6 ~domain:3 ~seed
         in
         Pool.with_pool ~jobs @@ fun pool ->
         let scratch =
           Restricted.run ~strategy:Restricted.Fifo ~max_steps:400 ~naming:`Canonical ~pool tgds
             db
         in
         match Derivation.status scratch with
         | Derivation.Out_of_budget -> true (* nothing to compare against *)
         | Derivation.Terminated ->
             let atoms = Instance.to_list db in
             let inc = Incremental.create ~strategy:Restricted.Fifo tgds Instance.empty in
             let saturated =
               List.for_all
                 (fun i ->
                   let batch = List.filteri (fun j _ -> j mod batches = i) atoms in
                   ignore (Incremental.assert_atoms inc batch);
                   let o = Incremental.chase ~epool:pool ~max_steps:400 inc in
                   o.Incremental.saturated)
                 (List.init batches Fun.id)
             in
             if not saturated then true
             else
               let final = Incremental.instance inc in
               Model_check.is_model ~database:db ~tgds final
               && Model_check.hom_equivalent final (Derivation.final scratch)))

let suite =
  [
    ( "serve",
      [
        Alcotest.test_case "json round-trip and accessors" `Quick test_json_roundtrip;
        Alcotest.test_case "json errors are positioned" `Quick test_json_errors;
        Alcotest.test_case "every wire op decodes" `Quick test_protocol_variants;
        Alcotest.test_case "malformed requests are rejected" `Quick test_protocol_rejects;
        Alcotest.test_case "session lifecycle: load, reload, close" `Quick test_lifecycle;
        Alcotest.test_case "admission control replies busy" `Quick test_busy;
        Alcotest.test_case "step budget stops and resumes" `Quick test_step_budget_and_resume;
        Alcotest.test_case "an exactly used step budget terminates" `Quick test_exact_step_budget;
        Alcotest.test_case "fact budget refuses growth" `Quick test_fact_budget;
        Alcotest.test_case "warm re-chase beats cold" `Quick test_warm_cheaper_than_cold;
        Alcotest.test_case "retract re-chases only the delta" `Quick test_retract_delta;
        Alcotest.test_case "malformed input never kills the server" `Quick test_malformed_input;
        Alcotest.test_case "over-long request lines are skipped" `Quick test_line_cap;
        Alcotest.test_case "query needs saturation, filters nulls" `Quick test_query_contract;
        Alcotest.test_case "sessions keep no plans in the global cache" `Quick
          test_sessions_keep_no_plans;
        Alcotest.test_case "decide: fixed, starved budget, portfolio" `Quick test_decide_op;
        Alcotest.test_case "request ids echo into replies" `Quick test_id_echo;
        Alcotest.test_case "compiled is echoed as given and answers as columnar" `Quick
          test_backend_alias;
        Alcotest.test_case "stale-socket unlink refuses non-sockets" `Quick
          test_stale_socket_guard;
        Alcotest.test_case "SERVICE.md covers every op and error code" `Quick
          test_service_doc_complete;
        incremental_equivalence;
        Alcotest.test_case "decide keeps no plans in the global cache" `Quick
          test_decide_keeps_no_plans;
      ] );
  ]
