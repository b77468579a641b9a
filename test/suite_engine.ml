(* Tests for the chase engines (paper §3). *)

open Chase_core
open Chase_engine

let parse = Chase_parser.Parser.parse_program
let instance = Alcotest.testable Instance.pp Instance.equal

let program src =
  let p = parse src in
  (Chase_parser.Program.tgds p, Chase_parser.Program.database p)

let unit_tests =
  [
    Alcotest.test_case "intro example: restricted adds nothing, oblivious diverges" `Quick
      (fun () ->
        let tgds, db = program "r(X,Y) -> exists Z. r(X,Z).\nr(a,b)." in
        let d = Restricted.run tgds db in
        Alcotest.(check bool) "terminated" true (Derivation.terminated d);
        Alcotest.(check int) "no growth" 0 (Derivation.growth d);
        let ob = Oblivious.run ~max_steps:50 tgds db in
        Alcotest.(check bool) "oblivious does not saturate" false ob.Oblivious.saturated);
    Alcotest.test_case "restricted chase result is a model" `Quick (fun () ->
        let tgds, db =
          program
            "s1: p(X,Y) -> r(X,Y).\ns2: p(X,Y) -> s(X).\ns3: r(X,Y) -> s(X).\n\
             s4: s(X) -> exists Y. r(X,Y).\np(a,b)."
        in
        let final = Restricted.run_exn tgds db in
        Alcotest.(check bool) "model" true (Model_check.is_model ~database:db ~tgds final));
    Alcotest.test_case "restricted result maps into oblivious result" `Quick (fun () ->
        let tgds, db =
          program
            "s1: p(X,Y) -> r(X,Y).\ns2: p(X,Y) -> s(X).\ns3: r(X,Y) -> s(X).\n\
             s4: s(X) -> exists Y. r(X,Y).\np(a,b)."
        in
        let fin = Restricted.run_exn tgds db in
        let ob = Oblivious.run tgds db in
        Alcotest.(check bool) "saturated" true ob.Oblivious.saturated;
        Alcotest.(check bool) "hom both ways" true
          (Model_check.hom_equivalent fin ob.Oblivious.instance);
        Alcotest.(check bool) "restricted smaller" true
          (Instance.cardinal fin <= Instance.cardinal ob.Oblivious.instance));
    Alcotest.test_case "semi-oblivious between restricted and oblivious" `Quick (fun () ->
        let tgds, db = program "s(X) -> exists Y. r(X,Y).\nr(X,Y) -> s(X).\ns(a)." in
        let ob = Oblivious.run tgds db in
        let sob = Oblivious.run ~variant:Oblivious.Semi_oblivious tgds db in
        Alcotest.(check bool) "both saturate" true
          (ob.Oblivious.saturated && sob.Oblivious.saturated);
        Alcotest.(check bool) "semi ≤ oblivious" true
          (Instance.cardinal sob.Oblivious.instance <= Instance.cardinal ob.Oblivious.instance));
    Alcotest.test_case "derivations validate" `Quick (fun () ->
        let tgds, db =
          program "s1: n(X) -> exists Y. e(X,Y).\ns2: e(X,Y) -> n(X).\nn(a). n(b)."
        in
        let d = Restricted.run tgds db in
        Alcotest.(check bool) "valid" true (Derivation.validate tgds d));
    Alcotest.test_case "strategies agree on termination status (single-head, terminating)"
      `Quick (fun () ->
        let tgds, db =
          program
            "s1: emp(X) -> exists Y. reports(X,Y).\ns2: reports(X,Y) -> mgr(Y).\n\
             s3: mgr(Y) -> person(Y).\nemp(alice). emp(bob)."
        in
        let check s =
          let d = Restricted.run ~strategy:s tgds db in
          Derivation.terminated d
        in
        Alcotest.(check bool) "fifo" true (check Restricted.Fifo);
        Alcotest.(check bool) "lifo" true (check Restricted.Lifo);
        Alcotest.(check bool) "random" true (check (Restricted.Random 7)));
    Alcotest.test_case "canonical naming makes runs order-insensitive" `Quick (fun () ->
        let tgds, db =
          program "s1: n(X) -> exists Y. e(X,Y).\ns2: e(X,Y) -> m(Y).\nn(a). n(b)."
        in
        let f1 = Restricted.run_exn ~naming:`Canonical ~strategy:Restricted.Fifo tgds db in
        let f2 = Restricted.run_exn ~naming:`Canonical ~strategy:Restricted.Lifo tgds db in
        Alcotest.check instance "same instance" f1 f2);
    Alcotest.test_case "real oblivious chase: Example 3.2 has two copies of S(a)" `Quick
      (fun () ->
        let tgds, db =
          program
            "s1: p(X,Y) -> r(X,Y).\ns2: p(X,Y) -> s(X).\ns3: r(X,Y) -> s(X).\n\
             s4: s(X) -> exists Y. r(X,Y).\np(a,b)."
        in
        let g = Real_oblivious.build ~max_depth:3 ~max_nodes:500 tgds db in
        let s_a = Atom.make "s" [ Term.Const "a" ] in
        Alcotest.(check bool) "multiset: ≥ 2 copies of s(a)" true (Real_oblivious.copies g s_a >= 2);
        (* the set of atoms coincides with the oblivious chase *)
        let ob = Oblivious.run ~max_steps:1000 tgds db in
        Alcotest.(check bool) "atoms ⊆ oblivious" true
          (Instance.subset (Real_oblivious.atom_set g)
             ob.Oblivious.instance));
    Alcotest.test_case "real oblivious: parents aligned with body order" `Quick (fun () ->
        let tgds, db = program "s1: r(X,Y), t(Y) -> exists Z. p(X,Z).\nr(a,b). t(b)." in
        let g = Real_oblivious.build tgds db in
        let produced =
          Array.to_list (Real_oblivious.nodes g)
          |> List.filter (fun n -> n.Real_oblivious.origin <> None)
        in
        Alcotest.(check int) "one node" 1 (List.length produced);
        let n = List.hd produced in
        Alcotest.(check int) "two parents" 2 (Array.length n.Real_oblivious.parents);
        let p0 = Real_oblivious.node g n.Real_oblivious.parents.(0) in
        Alcotest.(check string) "first parent is the r atom" "r"
          (Atom.pred p0.Real_oblivious.atom));
    Alcotest.test_case "multi-head trigger application shares witnesses" `Quick (fun () ->
        let tgds, db = program "r(X,Y,Y) -> exists Z. r(X,Z,Y), r(Z,Y,Y).\nr(a,b,b)." in
        let d = Restricted.run ~max_steps:1 tgds db in
        match Derivation.steps d with
        | [ s ] -> (
            match s.Derivation.produced with
            | [ a1; a2 ] ->
                (* the Z in both atoms is the same null *)
                Alcotest.(check bool) "shared null" true
                  (Term.equal (Atom.arg a1 1) (Atom.arg a2 0))
            | _ -> Alcotest.fail "expected two produced atoms")
        | _ -> Alcotest.fail "expected one step");
    Alcotest.test_case "backend names: compiled aliases the columnar store" `Quick (fun () ->
        let contains haystack needle =
          let nl = String.length needle and hl = String.length haystack in
          let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
          go 0
        in
        List.iter
          (fun b ->
            match Backend.of_name (Backend.name b) with
            | Ok b' -> Alcotest.(check string) "round-trips" (Backend.name b) (Backend.name b')
            | Error e -> Alcotest.fail e)
          Backend.all;
        let store name =
          match Store.backend_of_name name with
          | Ok b -> Ok (Backend.name (b :> Backend.t))
          | Error e -> Error e
        in
        let ok = Alcotest.(result string string) in
        Alcotest.check ok "compiled echoed as given" (Ok "compiled") (store "compiled");
        Alcotest.check ok "columnar echoed as given" (Ok "columnar") (store "columnar");
        (match store "naive" with
        | Ok _ -> Alcotest.fail "naive has no store"
        | Error e ->
            Alcotest.(check bool) "names both store choices" true
              (contains e "compiled, columnar"));
        match store "minstance" with
        | Ok _ -> Alcotest.fail "unknown name accepted"
        | Error e ->
            Alcotest.(check bool) "lists every backend" true
              (contains e "naive, compiled, columnar"));
  ]

(* Fact 3.5: the head-extension activeness test coincides with the
   stop-relation test, on random instances and TGDs. *)
let property_tests =
  let open QCheck2 in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"Fact 3.5: is_active ⟺ no stopper (single-head)" ~count:300
         (QCheck2.Gen.pair Tgen.tgd_gen Tgen.instance_gen)
         (fun (tgd, inst) ->
           Trigger.all [ tgd ] inst
           |> Seq.for_all (fun tr ->
                  Bool.equal (Trigger.is_active inst tr) (Stop.is_active_via_stop inst tr))));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"terminated restricted chase satisfies the TGDs" ~count:100
         (QCheck2.Gen.pair
            (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 2) Tgen.tgd_gen)
            Tgen.instance_gen)
         (fun (tgds, inst) ->
           (* ground the instance: keep only a database-like fragment *)
           let db = Instance.filter Atom.is_ground inst in
           let d = Restricted.run ~max_steps:200 tgds db in
           (not (Derivation.terminated d)) || Tgd.satisfied_by_all (Derivation.final d) tgds));
  ]

(* A fresh session adds a step's whole result before it discovers the
   triggers of any produced atom, as [Restricted.run] does, so the two
   derive the same instance literally, not just up to homomorphism.
   Discovering per added atom instead reorders a batch when a multi-head
   step's first atom joins with its second. *)
let order_tests =
  [
    (* A budget that the derivation uses up exactly still ends in a
       saturated state: no pending candidate is active, on both
       surfaces, and the step budget is not reported as the stop. *)
    Alcotest.test_case "a budget of exactly the derivation's length saturates" `Quick (fun () ->
        let tgds, db =
          program "a: p(X) -> exists Y. q(X,Y).\nb: q(X,Y) -> r(Y).\np(c1). p(c2)."
        in
        let d = Restricted.run ~max_steps:4 tgds db in
        Alcotest.(check int) "steps" 4 (Derivation.length d);
        Alcotest.(check bool) "Restricted.run terminated" true (Derivation.terminated d);
        let naive = Restricted.run ~backend:`Naive ~max_steps:4 tgds db in
        Alcotest.(check bool) "naive terminated" true (Derivation.terminated naive);
        let o = Incremental.chase ~max_steps:4 (Incremental.create tgds db) in
        Alcotest.(check int) "session steps" 4 o.Incremental.steps;
        Alcotest.(check bool) "session saturated" true o.Incremental.saturated;
        Alcotest.(check bool) "no limit" true (o.Incremental.limit = None);
        let short = Incremental.chase ~max_steps:3 (Incremental.create tgds db) in
        Alcotest.(check bool) "one step short" false short.Incremental.saturated;
        Alcotest.(check bool) "stopped by steps" true
          (short.Incremental.limit = Some Incremental.Steps);
        Alcotest.(check bool) "Restricted.run one step short" false
          (Derivation.terminated (Restricted.run ~max_steps:3 tgds db)));
    Alcotest.test_case "fresh session derives what Restricted.run does (multi-head)" `Quick
      (fun () ->
        let tgds, db =
          program
            "t0: r(Y,Z), a(X) -> exists E. s(X,E), r(Y,Y).\n\
             t1: r(Z,Z) -> exists E. r(E,Z), a(E).\n\
             b(c1). r(c1,c1). s(c2,c1)."
        in
        let d = Restricted.run ~naming:`Canonical tgds db in
        let s = Incremental.create tgds db in
        Alcotest.(check bool) "saturated" true (Incremental.chase s).Incremental.saturated;
        Alcotest.check instance "same instance" (Derivation.final d) (Incremental.instance s));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"fresh session = Restricted.run, literally (multi-head sets)"
         ~count:300
         QCheck2.Gen.(
           triple (list_size (int_range 1 3) Tgen.multi_head_tgd_gen) (int_bound 100_000)
             (oneofl [ Restricted.Fifo; Restricted.Lifo; Restricted.Random 42 ]))
         (fun (tgds, seed, strategy) ->
           let db =
             Chase_workload.Db_gen.random ~schema:(Schema.of_tgds tgds) ~atoms:5 ~domain:3 ~seed
           in
           let d = Restricted.run ~strategy ~max_steps:60 ~naming:`Canonical tgds db in
           let s = Incremental.create ~strategy tgds db in
           let o = Incremental.chase ~max_steps:60 s in
           Instance.equal (Incremental.instance s) (Derivation.final d)
           && o.Incremental.steps = Derivation.length d
           && o.Incremental.saturated = Derivation.terminated d));
    (* Retracting part of the database from a saturated multi-head
       session and re-chasing ends in a model of what is left,
       hom-equivalent to a scratch chase of it. *)
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"retract then re-chase = scratch chase (multi-head sets)"
         ~count:150
         QCheck2.Gen.(
           triple (list_size (int_range 1 3) Tgen.multi_head_tgd_gen) (int_bound 100_000)
             (list_size (int_range 1 3) (int_bound 4)))
         (fun (tgds, seed, picks) ->
           let db =
             Chase_workload.Db_gen.random ~schema:(Schema.of_tgds tgds) ~atoms:5 ~domain:3 ~seed
           in
           let s = Incremental.create tgds db in
           let facts = Instance.to_list db in
           facts = []
           || (not (Incremental.chase ~max_steps:60 s).Incremental.saturated)
           ||
           let doomed = List.map (fun i -> List.nth facts (i mod List.length facts)) picks in
           ignore (Incremental.retract_atoms s doomed);
           let left = Incremental.base s in
           let scratch = Restricted.run ~max_steps:60 ~naming:`Canonical tgds left in
           (not (Incremental.chase ~max_steps:60 s).Incremental.saturated)
           || (not (Derivation.terminated scratch))
           || Instance.is_empty (Instance.inter left (Instance.of_list doomed))
              && Model_check.is_model ~database:left ~tgds (Incremental.instance s)
              && Model_check.hom_equivalent (Incremental.instance s) (Derivation.final scratch)));
  ]

(* Retraction in a resumable session (Incremental): delete what only
   dead steps derived, keep what survives, re-seed what a deleted atom
   witnessed — under both store names, which the session records as
   given and runs on the one columnar store. *)
let retract_tests =
  let atom = Chase_parser.Parser.parse_atom_exn in
  let scratch tgds db = Restricted.run_exn ~naming:`Canonical tgds db in
  let matches_scratch s tgds =
    let base = Incremental.base s in
    let final = Incremental.instance s in
    Alcotest.(check bool) "model of the base" true (Model_check.is_model ~database:base ~tgds final);
    Alcotest.(check bool) "hom-equivalent to scratch" true
      (Model_check.hom_equivalent final (scratch tgds base));
    Alcotest.(check int) "scratch cardinality" (Instance.cardinal (scratch tgds base))
      (Incremental.cardinal s)
  in
  let create backend tgds db =
    let s = Incremental.create ~backend tgds db in
    Alcotest.(check string) "backend recorded as given" (Backend.name (backend :> Backend.t))
      (Backend.name (Incremental.backend s :> Backend.t));
    s
  in
  let chase_steps s =
    let o = Incremental.chase s in
    Alcotest.(check bool) "saturated" true o.Incremental.saturated;
    o.Incremental.steps
  in
  let refire backend () =
    let tgds, db = program "p(X) -> exists Y. q(X,Y).\np(a). q(a,b)." in
    let s = create backend tgds db in
    Alcotest.(check int) "q(a,b) witnesses the head" 0 (chase_steps s);
    Alcotest.(check int) "removed" 1 (Incremental.retract_atoms s [ atom "q(a,b)" ]);
    Alcotest.(check int) "only p(a) left" 1 (Incremental.cardinal s);
    Alcotest.(check int) "its trigger is re-seeded" 1 (Incremental.pending s);
    Alcotest.(check int) "and fires" 1 (chase_steps s);
    matches_scratch s tgds
  in
  let derived_base backend () =
    let tgds, db = program "p(X) -> exists Y. q(X), s(X,Y).\np(a). q(a)." in
    let s = create backend tgds db in
    Alcotest.(check int) "one step" 1 (chase_steps s);
    Alcotest.(check int) "removed" 1 (Incremental.retract_atoms s [ atom "q(a)" ]);
    Alcotest.(check bool) "q(a) left the base" false (Instance.mem (atom "q(a)") (Incremental.base s));
    Alcotest.(check bool) "the surviving step still derives q(a)" true
      (Instance.mem (atom "q(a)") (Incremental.instance s));
    Alcotest.(check int) "nothing deleted" 3 (Incremental.cardinal s);
    Alcotest.(check int) "nothing to replay" 0 (chase_steps s);
    matches_scratch s tgds;
    (* the step now owns q(a): retracting its body takes q(a) along *)
    Alcotest.(check int) "removed p(a)" 1 (Incremental.retract_atoms s [ atom "p(a)" ]);
    Alcotest.(check int) "everything gone" 0 (Incremental.cardinal s)
  in
  let reassert backend () =
    let tgds, db =
      program
        "e(X,Y) -> r(X,Y).\nr(X,Y), e(Y,Z) -> r(X,Z).\nr(X,Y) -> exists W. m(Y,W).\n\
         e(a,b). e(b,c)."
    in
    let batch = [ atom "e(c,d)"; atom "e(d,f)" ] in
    let s = create backend tgds db in
    ignore (chase_steps s);
    let loaded = Incremental.instance s in
    Alcotest.(check int) "asserted" 2 (Incremental.assert_atoms s batch);
    ignore (chase_steps s);
    Alcotest.(check int) "retracted" 2 (Incremental.retract_atoms s batch);
    Alcotest.(check int) "back at the loaded chase" 0 (chase_steps s);
    Alcotest.(check bool) "same instance as before the assert" true
      (Instance.equal loaded (Incremental.instance s));
    (* the triggers of the re-asserted batch were pushed before; a pool
       that remembered them would drop them now *)
    Alcotest.(check int) "re-asserted" 2 (Incremental.assert_atoms s batch);
    Alcotest.(check bool) "replays steps" true (chase_steps s > 0);
    matches_scratch s tgds
  in
  (* the store is compacted in place: no span of the retract loads one *)
  let no_reload backend () =
    let tgds, db = program "e(X,Y) -> r(X,Y).\nr(X,Y), e(Y,Z) -> r(X,Z).\ne(a,b). e(b,c)." in
    let s = create backend tgds db in
    ignore (chase_steps s);
    let st = Obs.Stats.create () in
    Obs.with_sink (Obs.Stats.sink st) (fun () ->
        Alcotest.(check int) "removed" 1 (Incremental.retract_atoms s [ atom "e(a,b)" ]));
    Alcotest.(check (list string)) "spans" [ "session.retract" ]
      (List.map fst (Obs.Stats.spans st));
    Alcotest.(check int) "e(a,b), r(a,b), r(a,c) deleted" 3
      (Obs.Stats.counter st "session.retract.deleted");
    ignore (chase_steps s);
    matches_scratch s tgds
  in
  (* A session stopped by its step budget holds pending candidates as
     interned ids.  Retracting the only fact that uses a term drops the
     term from the interner and renumbers every later id, so the
     pending candidates must be re-keyed to keep naming the same
     triggers. *)
  let rekey () =
    let tgds, db =
      program
        "e(X,Y) -> exists Z. f(Y,Z).\nf(X,Y) -> g(X).\n\
         a(gone). e(c1,c2). e(c2,c3). e(c3,c4). e(c4,c5)."
    in
    let s = Incremental.create tgds db in
    let o = Incremental.chase ~max_steps:2 s in
    Alcotest.(check bool) "stopped by the budget" false o.Incremental.saturated;
    let pending = Incremental.pending s in
    Alcotest.(check bool) "candidates pending" true (pending > 0);
    let st = Obs.Stats.create () in
    Obs.with_sink (Obs.Stats.sink st) (fun () ->
        Alcotest.(check int) "removed" 1 (Incremental.retract_atoms s [ atom "a(gone)" ]));
    Alcotest.(check int) "a term left the interner" 1
      (Obs.Stats.counter st "cinstance.compact.terms");
    Alcotest.(check int) "every pending candidate kept" pending (Incremental.pending s);
    ignore (chase_steps s);
    matches_scratch s tgds
  in
  Alcotest.test_case "retract re-keys the pending candidates of a budget-stopped session" `Quick
    rekey
  :: List.concat_map
    (fun backend ->
      let b = Backend.name (backend :> Backend.t) in
      [
        Alcotest.test_case ("retract re-fires a trigger whose witness left (" ^ b ^ ")") `Quick
          (refire backend);
        Alcotest.test_case ("retract keeps a base fact a surviving step derives (" ^ b ^ ")")
          `Quick (derived_base backend);
        Alcotest.test_case ("retract then re-assert equals one scratch chase (" ^ b ^ ")")
          `Quick (reassert backend);
      ])
    [ `Compiled; `Columnar ]
  @ List.map
      (fun backend ->
        Alcotest.test_case
          ("retract opens no store.load span (" ^ Backend.name (backend :> Backend.t) ^ ")")
          `Quick (no_reload backend))
      [ `Compiled; `Columnar ]

let suite = [ ("engine", unit_tests @ property_tests @ order_tests @ retract_tests) ]
