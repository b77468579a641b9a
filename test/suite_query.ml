(* Tests for conjunctive queries, certain answers, and containment under
   TGDs — the applications that motivate the paper (§1). *)

open Chase_core
open Chase_query

let parse_q = Conjunctive_query.parse
let parse = Chase_parser.Parser.parse_tgds

let program src =
  let p = Chase_parser.Parser.parse_program src in
  (Chase_parser.Program.tgds p, Chase_parser.Program.database p)

let unit_tests =
  [
    Alcotest.test_case "query evaluation with join" `Quick (fun () ->
        let q = parse_q "e(X,Y), e(Y,Z) -> ans(X,Z)." in
        let db = Chase_workload.Db_gen.chain ~pred:"e" ~length:3 in
        let answers = Conjunctive_query.answers q db in
        Alcotest.(check int) "two 2-paths" 2 (List.length answers));
    Alcotest.test_case "unsafe queries are rejected" `Quick (fun () ->
        match
          Conjunctive_query.make ~answer_vars:[ Term.Var "W" ]
            ~body:[ Atom.make "e" [ Term.Var "X"; Term.Var "Y" ] ]
            ()
        with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "certain answers exclude nulls" `Quick (fun () ->
        let tgds, db = program "emp(X) -> exists Y. mgr(X,Y).\nemp(ada)." in
        let q = parse_q "mgr(X,Y) -> ans(Y)." in
        let r = Certain_answers.compute ~tgds ~database:db q in
        Alcotest.(check int) "no certain managers" 0 (List.length r.Certain_answers.answers);
        let q2 = parse_q "mgr(X,Y) -> ans(X)." in
        let r2 = Certain_answers.compute ~tgds ~database:db q2 in
        Alcotest.(check int) "one certain employee" 1 (List.length r2.Certain_answers.answers));
    Alcotest.test_case "certain answers raise on diverging sets" `Quick (fun () ->
        let tgds, db = program "r(X,Y) -> exists Z. r(Y,Z).\nr(a,b)." in
        let q = parse_q "r(X,Y) -> ans(X)." in
        match Certain_answers.compute ~max_steps:100 ~tgds ~database:db q with
        | exception Certain_answers.Chase_diverged _ -> ()
        | _ -> Alcotest.fail "expected Chase_diverged");
    Alcotest.test_case "checked computation refuses non-terminating sets" `Quick (fun () ->
        let tgds, db = program "r(X,Y) -> exists Z. r(Y,Z).\nr(a,b)." in
        let q = parse_q "r(X,Y) -> ans(X)." in
        match Certain_answers.compute_checked ~tgds ~database:db q with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected refusal");
    Alcotest.test_case "containment under TGDs (r ⊑ s via r(X,Y)→s(X))" `Quick (fun () ->
        let tgds = parse "r(X,Y) -> s(X)." in
        let q1 = parse_q "r(X,Y) -> ans(X)." in
        let q2 = parse_q "s(X) -> ans(X)." in
        Alcotest.(check (result bool string)) "q1 ⊑ q2" (Ok true)
          (Containment.contained_in ~tgds q1 q2);
        Alcotest.(check (result bool string)) "q2 ⋢ q1" (Ok false)
          (Containment.contained_in ~tgds q2 q1));
    Alcotest.test_case "containment with existentials" `Quick (fun () ->
        (* under person(X) → ∃Y parent(X,Y)… wait, that set diverges; use a
           terminating one: emp(X) → ∃Y mgr(X,Y) with mgr unconstrained *)
        let tgds = parse "emp(X) -> exists Y. mgr(X,Y)." in
        let q1 = parse_q "emp(X) -> ans(X)." in
        let q2 = parse_q "emp(X), mgr(X,Y) -> ans(X)." in
        Alcotest.(check (result bool string)) "q1 ⊑ q2" (Ok true)
          (Containment.contained_in ~tgds q1 q2);
        (* without the TGD, the containment fails *)
        Alcotest.(check (result bool string)) "plainly not" (Ok false)
          (Containment.contained_in_plain q1 q2));
    Alcotest.test_case "plain containment is the homomorphism check" `Quick (fun () ->
        let q_path = parse_q "e(X,Y), e(Y,Z) -> ans(X,Z)." in
        let q_edge = parse_q "e(X,Z) -> ans(X,Z)." in
        (* every 1-edge answer pattern maps into the 2-path pattern?  no:
           e(X,Z) needs a direct edge between the answers *)
        Alcotest.(check (result bool string)) "path ⋢ edge" (Ok false)
          (Containment.contained_in_plain q_path q_edge);
        (* but the triangle query is contained in the edge query *)
        let q_tri = parse_q "e(X,Z), e(Z,W), e(W,X) -> ans(X,Z)." in
        Alcotest.(check (result bool string)) "triangle ⊑ edge" (Ok true)
          (Containment.contained_in_plain q_tri q_edge));
    Alcotest.test_case "containment reports divergence" `Quick (fun () ->
        let tgds = parse "r(X,Y) -> exists Z. r(Y,Z)." in
        let q1 = parse_q "r(X,Y) -> ans(X)." in
        match Containment.contained_in ~max_steps:100 ~tgds q1 q1 with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected divergence error");
    Alcotest.test_case "equivalence under constraints" `Quick (fun () ->
        let tgds = parse "p(X,Y) -> q(Y,X).\nq(X,Y) -> p(Y,X)." in
        let q1 = parse_q "p(X,Y) -> ans(X,Y)." in
        let q2 = parse_q "q(Y,X) -> ans(X,Y)." in
        Alcotest.(check (result bool string)) "equivalent" (Ok true)
          (Containment.equivalent ~tgds q1 q2));
  ]

(* The plan-based evaluator against the generic homomorphism search as
   the reference: random queries (constants in the body, repeated
   variables, answers bound to nulls, a predicate [u] no instance holds)
   over random chased programs, on every source. *)
let reference_answers q inst =
  Homomorphism.all (Conjunctive_query.body q) inst
  |> Seq.map (fun h -> List.map (Substitution.apply_term h) (Conjunctive_query.answer_vars q))
  |> List.of_seq
  |> List.sort_uniq (List.compare Term.compare)

let query_gen =
  let open QCheck2.Gen in
  let term =
    frequency
      [
        (3, map (fun v -> Term.Var v) (oneofl [ "X"; "Y"; "Z" ]));
        (1, map (fun c -> Term.Const c) (oneofl [ "a"; "b" ]));
      ]
  in
  let atom =
    let* p, ar = oneofl (("u", 2) :: Tgen.schema_preds) in
    let* args = list_repeat ar term in
    return (Atom.make p args)
  in
  let* body = list_size (int_range 1 3) atom in
  let vars =
    Term.Set.elements
      (List.fold_left (fun s a -> Term.Set.union (Atom.var_set a) s) Term.Set.empty body)
  in
  let* answer_vars = if vars = [] then return [] else list_size (int_range 0 3) (oneofl vars) in
  return (Conjunctive_query.make ~answer_vars ~body ())

let sources inst =
  let added_c = Cinstance.create () in
  Instance.iter (fun a -> ignore (Cinstance.add added_c a)) inst;
  let open Chase_engine.Plan in
  [
    ("instance", source_of_instance inst);
    ("cinstance", source_of_cinstance (Cinstance.of_instance inst));
    ("cinstance by adds", source_of_cinstance added_c);
  ]

let plan_tests =
  let open QCheck2 in
  [
    Alcotest.test_case "answers on every source: constants, repeats, nulls, absent predicates"
      `Quick (fun () ->
        let tgds, db = program "emp(X) -> exists Y. mgr(X,Y).\nr(a,a). r(a,b). emp(ada)." in
        let model = Chase_engine.Derivation.final (Chase_engine.Restricted.run tgds db) in
        let tuples = Alcotest.(list (list string)) in
        let strings = List.map (List.map Term.to_string) in
        List.iter
          (fun (what, src) ->
            let answers q = strings (Conjunctive_query.answers_on (parse_q q) src) in
            Alcotest.check tuples (what ^ ": constant") [ [ "a" ]; [ "b" ] ] (answers "r(a,Y) -> ans(Y).");
            Alcotest.check tuples (what ^ ": repeated variable") [ [ "a" ] ]
              (answers "r(X,X) -> ans(X).");
            Alcotest.check tuples (what ^ ": repeated answer") [ [ "a"; "a" ]; [ "a"; "b" ] ]
              (answers "r(X,Y) -> ans(X,Y).");
            Alcotest.check tuples (what ^ ": absent predicate") [] (answers "u(X,Y) -> ans(X).");
            let nulls = Conjunctive_query.answers_on (parse_q "mgr(X,Y) -> ans(Y).") src in
            Alcotest.(check bool) (what ^ ": one answer, a null") true
              (match nulls with [ [ Term.Null _ ] ] -> true | _ -> false);
            Alcotest.(check bool) (what ^ ": holds") true
              (Conjunctive_query.holds_on (parse_q "r(X,X), emp(Y) -> ans(X).") src);
            Alcotest.(check bool) (what ^ ": does not hold") false
              (Conjunctive_query.holds_on (parse_q "r(b,X) -> ans(X).") src))
          (sources model);
        Alcotest.(check int) "no certain manager" 0
          (List.length
             (Certain_answers.compute ~tgds ~database:db (parse_q "mgr(X,Y) -> ans(Y)."))
               .Certain_answers.answers));
    Alcotest.test_case "a query body may not hold a null" `Quick (fun () ->
        match Conjunctive_query.boolean [ Atom.make "r" [ Term.Null "n"; Term.Var "X" ] ] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"plan-based answers equal the homomorphism search" ~count:300
         ~print:(fun (_, _, q) -> Format.asprintf "%a" Conjunctive_query.pp q)
         (Gen.triple (Gen.list_size (Gen.int_range 1 2) Tgen.tgd_gen) Tgen.instance_gen query_gen)
         (fun (tgds, inst, q) ->
           let db = Instance.filter (fun a -> List.for_all Term.is_const (Atom.terms a)) inst in
           let model = Chase_engine.Derivation.final (Chase_engine.Restricted.run ~max_steps:60 tgds db) in
           let expected = reference_answers q model in
           let holds = Homomorphism.exists (Conjunctive_query.body q) model in
           List.for_all
             (fun (what, src) ->
               let got = Conjunctive_query.answers_on q src in
               if not (List.equal (List.equal Term.equal) expected got) then
                 Test.fail_reportf "%s: %d answers, the search finds %d" what (List.length got)
                   (List.length expected);
               if Conjunctive_query.holds_on q src <> holds then
                 Test.fail_reportf "%s: holds is %b" what (not holds);
               true)
             (sources model)));
  ]

let suite = [ ("query", unit_tests @ plan_tests) ]
