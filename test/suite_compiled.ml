(* Equivalence properties for the compiled-plan / columnar-store engine
   path: plan-based trigger enumeration, activity and whole chase runs
   must agree exactly with the naive generic-search implementations they
   replace.  The run-level tests check *identical* derivations — same
   triggers in the same order, same produced atoms (including fresh null
   names), same status — for all three strategies, store against naive,
   on single- and multi-head sets. *)

open Chase_core
open Chase_engine

module TrigSet = Set.Make (Trigger)

let trig_set seq = TrigSet.of_seq seq

let same_trig_sets a b = TrigSet.equal (trig_set a) (trig_set b)

(* Small random TGD sets over Tgen's fixed r/2, s/1, t/3 schema. *)
let tgds_gen =
  let open QCheck2.Gen in
  list_size (int_range 1 3) Tgen.tgd_gen

let multi_head_tgds_gen =
  let open QCheck2.Gen in
  list_size (int_range 1 3) Tgen.multi_head_tgd_gen

let wa_cfg seed = { Chase_workload.Tgd_gen.default with Chase_workload.Tgd_gen.seed; tgds = 4 }

let random_db tgds seed =
  Chase_workload.Db_gen.random ~schema:(Schema.of_tgds tgds) ~atoms:5 ~domain:3 ~seed

let same_steps d1 d2 =
  List.length (Derivation.steps d1) = List.length (Derivation.steps d2)
  && List.for_all2
       (fun s1 s2 ->
         Trigger.equal s1.Derivation.trigger s2.Derivation.trigger
         && List.equal Atom.equal s1.Derivation.produced s2.Derivation.produced
         && Term.Set.equal s1.Derivation.frontier s2.Derivation.frontier)
       (Derivation.steps d1) (Derivation.steps d2)

let same_derivation d1 d2 =
  Derivation.status d1 = Derivation.status d2
  && same_steps d1 d2
  && Instance.equal (Derivation.final d1) (Derivation.final d2)

let strategies = [ Restricted.Fifo; Restricted.Lifo; Restricted.Random 42 ]

(* Literal sets for the store/naive identity.  Each holds an exact
   duplicate TGD (its triggers must dedup as one), two TGDs that differ
   only in name (two ranks, applied one after the other), constants in
   bodies and heads, and a head with two existentials (fresh nulls are
   drawn in variable order). *)
let literal_sets =
  List.map Chase_parser.Parser.parse_tgds
    [
      "t1: r(X,Y) -> exists Z. r(Y,Z).\n\
       t1: r(X,Y) -> exists Z. r(Y,Z).\n\
       t2: r(X,c1), s(X) -> exists Z, W. t(X,W,Z), s(c2).\n\
       t3: t(X,Y,Z) -> s(Y).\n\
       t3b: t(X,Y,Z) -> s(Y).";
      "a: s(X), r(X,c0) -> exists Y. r(c0,Y), t(Y,X,c2).\n\
       b: t(X,Y,c2) -> exists Z. r(Y,Z).\n\
       b: t(X,Y,c2) -> exists Z. r(Y,Z).\n\
       c: t(X,Y,c2) -> exists Z. r(Y,Z).\n\
       d: r(X,X) -> exists Z, V. t(V,Z,X).";
    ]

(* The canonical nulls c^{σ,h}_x of one fixed trigger, pinned: the
   digest key is "name|text|bindings|x", and a change to any part of it
   renames every canonical null a client has ever seen. *)
let pinned_canonical () =
  let tgds = Chase_parser.Parser.parse_tgds "sigma: r(X,Y), s(Y) -> exists Z, W. t(Y,Z,W,c)." in
  let a = Term.Const "a" and b = Term.Const "b" and c = Term.Const "c" in
  let db = Instance.of_list [ Atom.make "r" [ a; b ]; Atom.make "s" [ b ] ] in
  List.iter
    (fun backend ->
      let produced naming =
        List.concat_map
          (fun s -> s.Derivation.produced)
          (Derivation.steps (Restricted.run ~backend ~naming tgds db))
      in
      let name = Backend.name backend in
      let t z w = Atom.to_string (Atom.make "t" [ b; Term.Null z; Term.Null w; c ]) in
      Alcotest.(check (list string))
        (name ^ ": canonical nulls")
        [ t "cace99fe013f1d999" "c04de8b98ac7d3238" ]
        (List.map Atom.to_string (produced `Canonical));
      Alcotest.(check (list string))
        (name ^ ": fresh nulls in variable order")
        [ t "n1" "n0" ]
        (List.map Atom.to_string (produced `Fresh)))
    [ `Naive; `Columnar ]

(* The store engine builds a [Substitution.t] (counted as [plan.key.hom])
   for the steps it applies, not for the candidates it discovers. *)
let substitutions_per_step () =
  List.iter
    (fun tgds ->
      let db = random_db tgds 11 in
      let stats = Obs.Stats.create () in
      let d =
        Obs.with_sink (Obs.Stats.sink stats) (fun () -> Restricted.run ~max_steps:60 tgds db)
      in
      let count = Obs.Stats.counter stats in
      Alcotest.(check int) "one substitution per applied step" (Derivation.length d)
        (count "plan.key.hom");
      Alcotest.(check int) "restricted.steps" (Derivation.length d) (count "restricted.steps");
      Alcotest.(check bool) "more candidates than steps" true
        (count "restricted.pool.push" > Derivation.length d))
    literal_sets

let properties =
  let open QCheck2 in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"compiled Trigger.all = naive Trigger.all" ~count:200
         (Gen.pair tgds_gen Tgen.instance_gen) (fun (tgds, db) ->
           same_trig_sets (Trigger.all tgds db) (Trigger.all_naive tgds db)));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"compiled Trigger.involving = naive Trigger.involving" ~count:200
         (Gen.triple tgds_gen Tgen.instance_gen Tgen.ground_atom_gen)
         (fun (tgds, db, atom) ->
           let db = Instance.add atom db in
           same_trig_sets (Trigger.involving tgds db atom)
             (Trigger.involving_naive tgds db atom)));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"compiled is_active agrees with naive is_active" ~count:200
         (Gen.pair tgds_gen Tgen.instance_gen) (fun (tgds, db) ->
           Trigger.all tgds db
           |> Seq.for_all (fun t ->
                  Trigger.is_active db t = Trigger.is_active_naive db t)));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"plans over Cinstance = plans over Instance" ~count:200
         (Gen.pair tgds_gen Tgen.instance_gen) (fun (tgds, db) ->
           let csrc = Plan.source_of_cinstance (Cinstance.of_instance db) in
           let collect src tgd =
             let acc = ref TrigSet.empty in
             Plan.iter_homs (Plan.of_tgd tgd) src (fun hom ->
                 acc := TrigSet.add (Trigger.make tgd hom) !acc);
             !acc
           in
           List.for_all
             (fun tgd ->
               TrigSet.equal
                 (collect (Plan.source_of_instance db) tgd)
                 (collect csrc tgd))
             tgds));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"Cinstance mirrors Instance contents and index" ~count:200
         Gen.(
           let* db = Tgen.instance_gen in
           (* about half of [extra] re-adds base-tier rows, which the
              dedup table built on the first add must reject *)
           let extra_gen =
             if Instance.is_empty db then Tgen.ground_atom_gen
             else oneof [ Tgen.ground_atom_gen; oneofl (Instance.to_list db) ]
           in
           triple (return db)
             (list_size (int_range 0 6) extra_gen)
             (list_size (int_range 0 6) Tgen.ground_atom_gen))
         (fun (db, extra, probes) ->
           let m = Cinstance.of_instance db in
           (* [mem] agrees with the reference on its atoms and on random
              probes, most of them absent *)
           let mem_agrees reference =
             Instance.for_all (fun a -> Cinstance.mem m a) reference
             && List.for_all (fun a -> Cinstance.mem m a = Instance.mem a reference) probes
           in
           let before = mem_agrees db in
           let reference, adds_ok =
             List.fold_left
               (fun (i, ok) a ->
                 let fresh = not (Instance.mem a i) in
                 let i = Instance.add a i in
                 ( i,
                   ok
                   && Cinstance.add m a = fresh
                   && Cinstance.cardinal m = Instance.cardinal i
                   && mem_agrees i ))
               (db, true) extra
           in
           before && adds_ok
           && Instance.equal (Cinstance.snapshot m) reference
           && Cinstance.cardinal m = Instance.cardinal reference
           && Instance.for_all (fun a -> Cinstance.mem m a) reference
           && List.for_all
                (fun (p, ar) ->
                  Cinstance.pred_count m p = List.length (Instance.with_pred reference p)
                  && List.for_all
                       (fun a ->
                         let t = Atom.arg a 0 in
                         let ixd = Cinstance.with_pos_term m p 0 t in
                         Atom.Set.equal
                           (Atom.Set.of_list ixd)
                           (Instance.with_pred_pos_term reference p 0 t)
                         && Cinstance.pos_term_count m p 0 t = List.length ixd)
                       (Instance.with_pred reference p)
                  && ignore ar = ())
                Tgen.schema_preds));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"restricted chase: store backends and naive derive identically"
         ~count:60
         (Gen.pair tgds_gen (Gen.int_bound 100_000))
         (fun (tgds, seed) ->
           let db = random_db tgds seed in
           List.for_all
             (fun strategy ->
               List.for_all
                 (fun naming ->
                   let d1 = Restricted.run ~backend:`Columnar ~strategy ~naming ~max_steps:60 tgds db in
                   let d2 = Restricted.run ~backend:`Naive ~strategy ~naming ~max_steps:60 tgds db in
                   same_derivation d1 d2)
                 [ `Fresh; `Canonical ])
             strategies));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"restricted chase: store = naive on literal sets (dup, renamed, constants)"
         ~count:60 (Gen.int_bound 100_000) (fun seed ->
           List.for_all
             (fun tgds ->
               let db =
                 Chase_workload.Db_gen.random ~schema:(Schema.of_tgds tgds) ~atoms:6 ~domain:3
                   ~seed
               in
               List.for_all
                 (fun strategy ->
                   List.for_all
                     (fun naming ->
                       same_derivation
                         (Restricted.run ~backend:`Columnar ~strategy ~naming ~max_steps:60 tgds db)
                         (Restricted.run ~backend:`Naive ~strategy ~naming ~max_steps:60 tgds db))
                     [ `Fresh; `Canonical ])
                 strategies)
             literal_sets));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"restricted chase backends agree on WA workloads (terminating)"
         ~count:40 (Gen.int_bound 100_000) (fun seed ->
           let tgds = Chase_workload.Tgd_gen.weakly_acyclic_set (wa_cfg seed) in
           let db = random_db tgds seed in
           List.for_all
             (fun strategy ->
               same_derivation
                 (Restricted.run ~backend:`Columnar ~strategy ~max_steps:2_000 tgds db)
                 (Restricted.run ~backend:`Naive ~strategy ~max_steps:2_000 tgds db))
             strategies));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"oblivious chase: store backends and naive agree" ~count:60
         (Gen.pair tgds_gen (Gen.int_bound 100_000))
         (fun (tgds, seed) ->
           let db = random_db tgds seed in
           List.for_all
             (fun variant ->
               let r1 = Oblivious.run ~backend:`Columnar ~variant ~max_steps:80 tgds db in
               let r2 = Oblivious.run ~backend:`Naive ~variant ~max_steps:80 tgds db in
               Instance.equal r1.Oblivious.instance r2.Oblivious.instance
               && r1.Oblivious.applications = r2.Oblivious.applications
               && r1.Oblivious.saturated = r2.Oblivious.saturated)
             [ Oblivious.Oblivious; Oblivious.Semi_oblivious ]));
    (* "compiled" is an alias: both tags load the one columnar store. *)
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"compiled and columnar tags run one store" ~count:60
         (Gen.pair tgds_gen (Gen.int_bound 100_000))
         (fun (tgds, seed) ->
           let db = random_db tgds seed in
           let restricted backend strategy naming =
             Restricted.run ~backend ~strategy ~naming ~max_steps:60 tgds db
           in
           let oblivious backend variant = Oblivious.run ~backend ~variant ~max_steps:80 tgds db in
           Instance.equal
             (Cinstance.snapshot (Store.of_instance `Compiled db).Store.facts)
             (Cinstance.snapshot (Store.of_instance `Columnar db).Store.facts)
           && List.for_all
                (fun strategy ->
                  List.for_all
                    (fun naming ->
                      same_derivation
                        (restricted `Compiled strategy naming)
                        (restricted `Columnar strategy naming))
                    [ `Fresh; `Canonical ])
                strategies
           && List.for_all
                (fun variant ->
                  let r1 = oblivious `Compiled variant and r2 = oblivious `Columnar variant in
                  Instance.equal r1.Oblivious.instance r2.Oblivious.instance
                  && r1.Oblivious.applications = r2.Oblivious.applications
                  && r1.Oblivious.saturated = r2.Oblivious.saturated)
                [ Oblivious.Oblivious; Oblivious.Semi_oblivious ]));
    (* Tgen.tgd_gen is single-head; a multi-head step adds several atoms
       whose triggers the store engines discover only after the whole
       result is in. *)
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"restricted chase: store and naive agree on multi-head sets" ~count:100
         (Gen.pair multi_head_tgds_gen (Gen.int_bound 100_000))
         (fun (tgds, seed) ->
           let db = random_db tgds seed in
           List.for_all
             (fun strategy ->
               List.for_all
                 (fun naming ->
                   let d1 = Restricted.run ~backend:`Columnar ~strategy ~naming ~max_steps:60 tgds db in
                   let d2 = Restricted.run ~backend:`Naive ~strategy ~naming ~max_steps:60 tgds db in
                   same_derivation d1 d2)
                 [ `Fresh; `Canonical ])
             strategies));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"oblivious chase: store and naive agree on multi-head sets" ~count:60
         (Gen.pair multi_head_tgds_gen (Gen.int_bound 100_000))
         (fun (tgds, seed) ->
           let db = random_db tgds seed in
           List.for_all
             (fun variant ->
               let r1 = Oblivious.run ~backend:`Columnar ~variant ~max_steps:80 tgds db in
               let r2 = Oblivious.run ~backend:`Naive ~variant ~max_steps:80 tgds db in
               Instance.equal r1.Oblivious.instance r2.Oblivious.instance
               && r1.Oblivious.applications = r2.Oblivious.applications
               && r1.Oblivious.saturated = r2.Oblivious.saturated)
             [ Oblivious.Oblivious; Oblivious.Semi_oblivious ]));
    (* Parallel.run discovers its candidates on the columnar store; every
       trigger a round applies must be active on the round's start
       instance, and a saturated run must end in a model. *)
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"parallel chase applies only active triggers (multi-head sets)" ~count:100
         (Gen.pair multi_head_tgds_gen (Gen.int_bound 100_000))
         (fun (tgds, seed) ->
           let db = random_db tgds seed in
           let r = Parallel.run ~max_rounds:8 tgds db in
           let _, rounds_ok =
             List.fold_left
               (fun (before, ok) round ->
                 ( round.Parallel.after,
                   ok
                   && round.Parallel.applied <> []
                   && List.for_all (Trigger.is_active before) round.Parallel.applied
                   && Instance.subset before round.Parallel.after ))
               (db, true) r.Parallel.rounds
           in
           rounds_ok
           && Instance.subset db r.Parallel.final
           && ((not r.Parallel.saturated) || Model_check.is_model ~database:db ~tgds r.Parallel.final)));
  ]

(* In-place removal ([Cinstance.remove]) against [Instance] under the
   same operations: a bulk load, adds (the hash tier), a removal mixing
   base-tier rows, hash-tier rows, a whole relation and absent atoms,
   re-adds, and a second removal.  After each step the store must agree
   with the reference on every read the engines make, and its interner
   must hold exactly the terms of the surviving rows, ids and terms
   round-tripping, and the renaming the removal returns must agree with
   the new ids.  Plans run on one source made at the start, as an
   engine's do, so the relations and ids it caches must follow every
   add and removal. *)
let homs p src =
  let acc = ref [] in
  Plan.iter_homs p src (fun h -> acc := Trigger.make (Plan.tgd p) h :: !acc);
  List.sort Trigger.compare !acc

let interner_exact c reference =
  let it = Cinstance.interner c in
  let terms = Instance.active_domain reference in
  Term_interner.cardinal it = Term.Set.cardinal terms
  && Term.Set.for_all
       (fun t ->
         let id = Term_interner.find it t in
         id >= 0 && Term.equal (Term_interner.term_of it id) t)
       terms
  && List.for_all
       (fun id -> Term_interner.find it (Term_interner.term_of it id) = id)
       (List.init (Term_interner.cardinal it) Fun.id)

let agrees c src plans probes ~snapshot reference =
  let set = Atom.Set.of_list in
  let terms = Instance.active_domain (List.fold_right Instance.add probes reference) in
  Cinstance.cardinal c = Instance.cardinal reference
  && Instance.for_all (Cinstance.mem c) reference
  && List.for_all (fun a -> Cinstance.mem c a = Instance.mem a reference) probes
  && List.for_all
       (fun (p, arity) ->
         let preds = Cinstance.with_pred c p in
         Atom.Set.equal (set preds) (Instance.with_pred_set reference p)
         && List.length preds = Instance.pred_count reference p
         && List.for_all
              (fun pos ->
                Term.Set.for_all
                  (fun t ->
                    let ixd = Cinstance.with_pos_term c p pos t in
                    let expect = Instance.with_pred_pos_term reference p pos t in
                    Atom.Set.equal (set ixd) expect
                    && List.length ixd = Atom.Set.cardinal expect
                    && Cinstance.pos_term_count c p pos t = Atom.Set.cardinal expect)
                  terms)
              (List.init arity Fun.id))
       Tgen.schema_preds
  && List.for_all
       (fun p ->
         List.equal Trigger.equal
           (homs p (Plan.source_of_instance reference))
           (homs p src))
       plans
  && ((not snapshot) || Instance.equal (Cinstance.snapshot c) reference)
  && interner_exact c reference

(* [picks] selects from [xs] (cycled), so a removal draws from whatever
   the store holds at that point. *)
let pick picks xs = List.filteri (fun i _ -> List.nth picks (i mod List.length picks)) xs

let removal_gen =
  let open QCheck2.Gen in
  let* db = Tgen.instance_gen in
  let* tgds = tgds_gen in
  let* adds = list_size (int_range 0 8) Tgen.ground_atom_gen in
  let* picks1 = list_repeat 7 bool in
  let* wipe = oneofl (List.map fst Tgen.schema_preds) in
  let* ghosts = list_size (int_range 0 3) Tgen.ground_atom_gen in
  let* fresh = list_size (int_range 0 4) Tgen.ground_atom_gen in
  let* picks2 = list_repeat 5 bool in
  let* snaps = list_repeat 5 bool in
  let* probes = list_size (int_range 0 6) Tgen.ground_atom_gen in
  return (db, tgds, adds, (picks1, wipe, ghosts), fresh, picks2, snaps, probes)

let removal_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"in-place removal mirrors Instance (cinstance)" ~count:300
       removal_gen
       (fun (db, tgds, adds, (picks1, wipe, ghosts), fresh, picks2, snaps, probes) ->
         let c = Cinstance.of_instance db in
         let src = Plan.source_of_cinstance c in
         let plans = List.map Plan.compile tgds in
         let check i reference =
           agrees c src plans probes ~snapshot:(List.nth snaps i) reference
         in
         let add reference atoms =
           List.fold_left
             (fun (i, ok) a -> (Instance.add a i, ok && Cinstance.add c a = not (Instance.mem a i)))
             (reference, true) atoms
         in
         (* the renaming [remove] returns carries every surviving
            term's old id to its new one *)
         let renamed_ok = ref true in
         let remove reference atoms =
           let after = List.fold_left (fun i a -> Instance.remove a i) reference atoms in
           let survivors = Term.Set.elements (Instance.active_domain after) in
           let old = List.map (Cinstance.find_id c) survivors in
           let rename = Cinstance.remove c atoms in
           renamed_ok :=
             !renamed_ok
             && List.for_all2 (fun t id -> rename id = Cinstance.find_id c t) survivors old;
           after
         in
         let ok0 = check 0 db in
         let r1, added_ok = add db adds in
         let ok1 = check 1 r1 in
         let gone1 = pick picks1 (Instance.to_list r1) @ Instance.with_pred r1 wipe @ ghosts in
         let r2 = remove r1 gone1 in
         let ok2 = check 2 r2 in
         let r3, readded_ok = add r2 (pick picks2 gone1 @ fresh) in
         let ok3 = check 3 r3 in
         let r4 = remove r3 (pick picks2 (Instance.to_list r3)) in
         ok0 && added_ok && ok1 && ok2 && readded_ok && ok3 && check 4 r4 && !renamed_ok
         && Instance.equal (Cinstance.snapshot c) r4))

let suite =
  [
    ( "compiled-engine-equivalence",
      properties
      @ [
          removal_property;
          Alcotest.test_case "canonical null names are pinned on both engines" `Quick
            pinned_canonical;
          Alcotest.test_case "a substitution per applied step, not per candidate" `Quick
            substitutions_per_step;
        ] );
  ]
