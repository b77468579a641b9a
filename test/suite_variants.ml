(* Tests for the parallel (weakly restricted) chase and the core chase. *)

open Chase_core
open Chase_engine

let program src =
  let p = Chase_parser.Parser.parse_program src in
  (Chase_parser.Program.tgds p, Chase_parser.Program.database p)

let parallel_tests =
  [
    Alcotest.test_case "parallel chase result is a model" `Quick (fun () ->
        let tgds, db =
          program
            "o1: employee(E) -> exists T. member(E,T).\no2: member(E,T) -> team(T).\n\
             o3: team(T) -> exists E. member(E,T).\no4: member(E,T) -> employee(E).\n\
             employee(a). employee(b). team(t)."
        in
        let r = Parallel.run tgds db in
        Alcotest.(check bool) "saturated" true r.Parallel.saturated;
        Alcotest.(check bool) "model" true (Model_check.is_model ~database:db ~tgds r.Parallel.final));
    Alcotest.test_case "parallel rounds bound sequential depth" `Quick (fun () ->
        let tgds, db =
          program
            "m1: employee(X,D), dept_city(D,C) -> works_in(X,C).\n\
             m2: employee(X,D) -> exists K. office(X,K).\n\
             m3: works_in(X,C) -> city(C).\n\
             employee(e1,d). employee(e2,d). dept_city(d,c)."
        in
        let p = Parallel.run tgds db in
        let s = Restricted.run tgds db in
        Alcotest.(check bool) "few rounds" true
          (Parallel.round_count p <= Derivation.length s);
        Alcotest.(check bool) "at least as many atoms" true
          (Instance.cardinal p.Parallel.final >= Instance.cardinal (Derivation.final s)));
    Alcotest.test_case "simultaneous application can overshoot (Def C.4 subtlety)" `Quick
      (fun () ->
        (* two triggers, each would deactivate the other: both fire in the
           first round of the weakly restricted chase *)
        let tgds, db =
          program "s1: a(X) -> exists Y. e(X,Y).\ns2: b(X) -> exists Y. e(X,Y).\na(k). b(k)."
        in
        let p = Parallel.run tgds db in
        let s = Restricted.run_exn tgds db in
        Alcotest.(check bool) "parallel ≥ sequential" true
          (Instance.cardinal p.Parallel.final >= Instance.cardinal s));
    Alcotest.test_case "parallel chase diverges where restricted does" `Quick (fun () ->
        let tgds, db = program "r(X,Y) -> exists Z. r(Y,Z).\nr(a,b)." in
        let p = Parallel.run ~max_rounds:20 tgds db in
        Alcotest.(check bool) "not saturated" false p.Parallel.saturated);
    Alcotest.test_case "a round past the trigger bound ends the run unsaturated" `Quick
      (fun () ->
        (* the body joins two unrelated atoms, so every other round
           squares the number of candidates: 4, 32, 1408, then about
           2M, past the 100,000 bound *)
        let tgds, db =
          program
            "pair: r(X,Y), r(Z,W) -> exists V. t(X,Z,V).
back: t(X,Z,V) -> exists U. r(V,U).
\
             r(a,b). r(c,d)."
        in
        let p = Parallel.run tgds db in
        Alcotest.(check bool) "not saturated" false p.Parallel.saturated;
        Alcotest.(check bool) "stopped well before the round budget" true
          (Parallel.round_count p < 10);
        Alcotest.(check bool) "no round applies more than the bound" true
          (List.for_all (fun r -> List.length r.Parallel.applied <= 100_000) p.Parallel.rounds);
        let last = List.nth p.Parallel.rounds (Parallel.round_count p - 1) in
        Alcotest.(check bool) "the last round is complete" true
          (Instance.equal last.Parallel.after p.Parallel.final);
        Alcotest.(check bool) "an unbounded first round agrees" true
          (Instance.equal (List.hd (Parallel.run ~max_rounds:1 tgds db).Parallel.rounds).Parallel.after
             (List.hd p.Parallel.rounds).Parallel.after));
    Alcotest.test_case "a database past the trigger bound runs no round" `Quick (fun () ->
        (* n facts give n * n database candidates: 317 * 317 = 100,489
           is over the bound, 316 * 316 = 99,856 fits *)
        let r_facts n =
          String.concat " " (List.init n (fun i -> Printf.sprintf "r(a%d,b%d)." i i))
        in
        let tgds, db = program ("r(X,Y), r(Z,W) -> s(X,Z).\n" ^ r_facts 317) in
        let p = Parallel.run tgds db in
        Alcotest.(check bool) "not saturated" false p.Parallel.saturated;
        Alcotest.(check int) "no rounds" 0 (Parallel.round_count p);
        Alcotest.(check bool) "final is the database" true (Instance.equal db p.Parallel.final);
        let tgds, db = program ("r(X,Y), r(Z,W) -> s(X,Z).\n" ^ r_facts 316) in
        Alcotest.(check bool) "99,856 candidates fit the bound" true
          (Parallel.run tgds db).Parallel.saturated);
  ]

let core_tests =
  [
    Alcotest.test_case "core collapses redundant nulls" `Quick (fun () ->
        let n s = Term.Null s and c s = Term.Const s in
        let i =
          Instance.of_list
            [
              Atom.make "r" [ c "a"; c "b" ];
              Atom.make "r" [ c "a"; n "x" ];  (* retracts onto r(a,b) *)
            ]
        in
        let k = Core_chase.core i in
        Alcotest.(check int) "one atom" 1 (Instance.cardinal k);
        Alcotest.(check bool) "is core" true (Core_chase.is_core k));
    Alcotest.test_case "facts are their own core" `Quick (fun () ->
        let db = Chase_workload.Db_gen.chain ~pred:"e" ~length:4 in
        Alcotest.(check bool) "core" true (Core_chase.is_core db);
        Alcotest.(check bool) "unchanged" true (Instance.equal db (Core_chase.core db)));
    Alcotest.test_case "core chase result is a minimal model" `Quick (fun () ->
        let tgds, db =
          program
            "o1: employee(E) -> exists T. member(E,T).\no2: member(E,T) -> team(T).\n\
             o3: team(T) -> exists E. member(E,T).\no4: member(E,T) -> employee(E).\n\
             employee(a). team(t)."
        in
        let r = Core_chase.run tgds db in
        Alcotest.(check bool) "saturated" true r.Core_chase.saturated;
        Alcotest.(check bool) "model" true
          (Model_check.is_model ~database:db ~tgds r.Core_chase.final);
        Alcotest.(check bool) "core" true (Core_chase.is_core r.Core_chase.final);
        (* minimality: no larger than the restricted result *)
        let s = Restricted.run_exn tgds db in
        Alcotest.(check bool) "≤ restricted" true
          (Instance.cardinal r.Core_chase.final <= Instance.cardinal s));
    Alcotest.test_case "core chase and restricted chase results are hom-equivalent" `Quick
      (fun () ->
        let tgds, db =
          program
            "m1: emp(X) -> exists Y. mgr(X,Y).\nm2: mgr(X,Y) -> person(X).\nemp(a). emp(b)."
        in
        let r = Core_chase.run tgds db in
        let s = Restricted.run_exn tgds db in
        Alcotest.(check bool) "hom-equivalent" true
          (Model_check.hom_equivalent r.Core_chase.final s));
    Alcotest.test_case "core chase diverges only without finite universal models" `Quick
      (fun () ->
        (* r(X,Y) → ∃Z r(Y,Z) over r(a,b): no finite universal model *)
        let tgds, db = program "r(X,Y) -> exists Z. r(Y,Z).\nr(a,b)." in
        let r = Core_chase.run ~max_rounds:10 tgds db in
        Alcotest.(check bool) "not saturated" false r.Core_chase.saturated);
  ]

let sequentialize_tests =
  [
    Alcotest.test_case "extraction of a saturated parallel run is a valid derivation" `Quick
      (fun () ->
        let tgds, db =
          program
            "o1: employee(E) -> exists T. member(E,T).\no2: member(E,T) -> team(T).\n\
             o3: team(T) -> exists E. member(E,T).\no4: member(E,T) -> employee(E).\n\
             employee(a). employee(b). team(t)."
        in
        let out = Sequentialize.parallel_then_extract tgds db in
        Alcotest.(check bool) "valid" true (Derivation.validate tgds out.Sequentialize.derivation);
        Alcotest.(check bool) "terminated" true
          (Derivation.terminated out.Sequentialize.derivation);
        Alcotest.(check bool) "model" true
          (Model_check.is_model ~database:db ~tgds
             (Derivation.final out.Sequentialize.derivation)));
    Alcotest.test_case "overshooting rounds get stopped in extraction" `Quick (fun () ->
        (* both a- and b-triggers fire in round 1 of the parallel chase,
           but sequentially the second is deactivated by the first *)
        let tgds, db =
          program
            "s1: a(X) -> exists Y. e(X,Y).\ns2: b(X) -> exists Y. e(X,Y).\na(k). b(k)."
        in
        ignore tgds;
        ignore db;
        (* e(X,Y) heads differ per rule only through the body: with frontier
           {X} both rules are satisfied by any e(k,_) atom *)
        let out = Sequentialize.parallel_then_extract tgds db in
        Alcotest.(check bool) "valid" true (Derivation.validate tgds out.Sequentialize.derivation);
        Alcotest.(check int) "one born" 1 out.Sequentialize.born;
        Alcotest.(check int) "one stopped" 1 out.Sequentialize.stopped);
    Alcotest.test_case "extraction equals a plain restricted result up to isomorphism" `Quick
      (fun () ->
        let tgds, db =
          program
            "m1: emp(X) -> exists Y. mgr(X,Y).\nm2: mgr(X,Y) -> person(X).\nemp(a). emp(b)."
        in
        let out = Sequentialize.parallel_then_extract tgds db in
        let direct = Restricted.run_exn tgds db in
        Alcotest.(check bool) "isomorphic" true
          (Chase_core.Homomorphism.isomorphic
             (Derivation.final out.Sequentialize.derivation)
             direct));
  ]

let suite =
  [
    ("parallel-chase", parallel_tests);
    ("core-chase", core_tests);
    ("sequentialize", sequentialize_tests);
  ]
