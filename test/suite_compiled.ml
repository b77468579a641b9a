(* Equivalence properties for the compiled-plan / mutable-instance engine
   path: plan-based trigger enumeration, activity and whole chase runs
   must agree exactly with the naive generic-search implementations they
   replace.  The run-level tests check *identical* derivations — same
   triggers in the same order, same produced atoms (including fresh null
   names), same status — for all three strategies and all three
   backends (naive, compiled, columnar). *)

open Chase_core
open Chase_engine

module TrigSet = Set.Make (Trigger)

let trig_set seq = TrigSet.of_seq seq

let same_trig_sets a b = TrigSet.equal (trig_set a) (trig_set b)

(* Small random TGD sets over Tgen's fixed r/2, s/1, t/3 schema. *)
let tgds_gen =
  let open QCheck2.Gen in
  list_size (int_range 1 3) Tgen.tgd_gen

let wa_cfg seed = { Chase_workload.Tgd_gen.default with Chase_workload.Tgd_gen.seed; tgds = 4 }

let random_db tgds seed =
  Chase_workload.Db_gen.random ~schema:(Schema.of_tgds tgds) ~atoms:5 ~domain:3 ~seed

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

let strategies = [ Restricted.Fifo; Restricted.Lifo; Restricted.Random 42 ]

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
      (Test.make ~name:"plans over Minstance = plans over Instance" ~count:200
         (Gen.pair tgds_gen Tgen.instance_gen) (fun (tgds, db) ->
           let msrc = Plan.source_of_minstance (Minstance.of_instance db) in
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
                 (collect msrc tgd))
             tgds));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"Minstance mirrors Instance contents and index" ~count:200
         (Gen.pair Tgen.instance_gen (Gen.list_size (Gen.int_range 0 6) Tgen.ground_atom_gen))
         (fun (db, extra) ->
           let m = Minstance.of_instance db in
           let reference = List.fold_left (fun i a -> Instance.add a i) db extra in
           List.iter (fun a -> ignore (Minstance.add m a)) extra;
           Instance.equal (Minstance.snapshot m) reference
           && Minstance.cardinal m = Instance.cardinal reference
           && Instance.for_all (fun a -> Minstance.mem m a) reference
           && List.for_all
                (fun (p, ar) ->
                  Minstance.pred_count m p = List.length (Instance.with_pred reference p)
                  && List.for_all
                       (fun a ->
                         let t = Atom.arg a 0 in
                         let ixd = Minstance.with_pos_term m p 0 t in
                         Atom.Set.equal
                           (Atom.Set.of_list ixd)
                           (Instance.with_pred_pos_term reference p 0 t)
                         && Minstance.pos_term_count m p 0 t = List.length ixd)
                       (Instance.with_pred reference p)
                  && ignore ar = ())
                Tgen.schema_preds));
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
             (fun backend ->
               List.for_all
                 (fun strategy ->
                   List.for_all
                     (fun naming ->
                       let d1 =
                         Restricted.run ~backend ~strategy ~naming ~max_steps:60 tgds db
                       in
                       let d2 =
                         Restricted.run ~backend:`Naive ~strategy ~naming ~max_steps:60 tgds db
                       in
                       same_derivation d1 d2)
                     [ `Fresh; `Canonical ])
                 strategies)
             [ `Compiled; `Columnar ]));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"restricted chase backends agree on WA workloads (terminating)"
         ~count:40 (Gen.int_bound 100_000) (fun seed ->
           let tgds = Chase_workload.Tgd_gen.weakly_acyclic_set (wa_cfg seed) in
           let db = random_db tgds seed in
           List.for_all
             (fun strategy ->
               let reference = Restricted.run ~backend:`Naive ~strategy ~max_steps:2_000 tgds db in
               List.for_all
                 (fun backend ->
                   same_derivation
                     (Restricted.run ~backend ~strategy ~max_steps:2_000 tgds db)
                     reference)
                 [ `Compiled; `Columnar ])
             strategies));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"oblivious chase: store backends and naive agree" ~count:60
         (Gen.pair tgds_gen (Gen.int_bound 100_000))
         (fun (tgds, seed) ->
           let db = random_db tgds seed in
           List.for_all
             (fun variant ->
               let r2 = Oblivious.run ~backend:`Naive ~variant ~max_steps:80 tgds db in
               List.for_all
                 (fun backend ->
                   let r1 = Oblivious.run ~backend ~variant ~max_steps:80 tgds db in
                   Instance.equal r1.Oblivious.instance r2.Oblivious.instance
                   && r1.Oblivious.applications = r2.Oblivious.applications
                   && r1.Oblivious.saturated = r2.Oblivious.saturated)
                 [ `Compiled; `Columnar ])
             [ Oblivious.Oblivious; Oblivious.Semi_oblivious ]));
  ]

(* In-place removal ([Store.remove]) against [Instance] under the same
   operations: a bulk load, adds (the hash tier), a removal mixing
   base-tier rows, hash-tier rows, a whole relation and absent atoms,
   re-adds, and a second removal.  After each step the store must agree
   with the reference on every read the engines make. *)
type view = {
  store : Store.t;
  with_pred : string -> Atom.t list;
  with_pos_term : string -> int -> Term.t -> Atom.t list;
  pos_term_count : string -> int -> Term.t -> int;
  invariant : Instance.t -> bool;  (* store-specific, given the reference *)
}

let minstance_view db =
  let m = Minstance.of_instance db in
  {
    store = Store.of_minstance m;
    with_pred = Minstance.with_pred m;
    with_pos_term = Minstance.with_pos_term m;
    pos_term_count = Minstance.pos_term_count m;
    invariant = (fun _ -> true);
  }

(* The interner holds exactly the terms of the surviving rows, and ids
   and terms round-trip. *)
let cinstance_view db =
  let c = Cinstance.of_instance db in
  let it = Cinstance.interner c in
  {
    store = Store.of_cinstance c;
    with_pred = Cinstance.with_pred c;
    with_pos_term = Cinstance.with_pos_term c;
    pos_term_count = Cinstance.pos_term_count c;
    invariant =
      (fun reference ->
        let terms = Instance.active_domain reference in
        Term_interner.cardinal it = Term.Set.cardinal terms
        && Term.Set.for_all
             (fun t ->
               let id = Term_interner.find it t in
               id >= 0 && Term.equal (Term_interner.term_of it id) t)
             terms
        && List.for_all
             (fun id -> Term_interner.find it (Term_interner.term_of it id) = id)
             (List.init (Term_interner.cardinal it) Fun.id));
  }

let homs p src =
  let acc = ref [] in
  Plan.iter_homs p src (fun h -> acc := Trigger.make (Plan.tgd p) h :: !acc);
  List.sort Trigger.compare !acc

let agrees v plans probes ~snapshot reference =
  let s = v.store in
  let set = Atom.Set.of_list in
  let terms = Instance.active_domain (List.fold_right Instance.add probes reference) in
  s.Store.cardinal () = Instance.cardinal reference
  && Instance.for_all s.Store.mem reference
  && List.for_all (fun a -> s.Store.mem a = Instance.mem a reference) probes
  && List.for_all
       (fun (p, arity) ->
         let preds = v.with_pred p in
         Atom.Set.equal (set preds) (Instance.with_pred_set reference p)
         && List.length preds = Instance.pred_count reference p
         && List.for_all
              (fun pos ->
                Term.Set.for_all
                  (fun t ->
                    let ixd = v.with_pos_term p pos t in
                    let expect = Instance.with_pred_pos_term reference p pos t in
                    Atom.Set.equal (set ixd) expect
                    && List.length ixd = Atom.Set.cardinal expect
                    && v.pos_term_count p pos t = Atom.Set.cardinal expect)
                  terms)
              (List.init arity Fun.id))
       Tgen.schema_preds
  && List.for_all
       (fun p ->
         List.equal Trigger.equal
           (homs p (Plan.source_of_instance reference))
           (homs p s.Store.source))
       plans
  && ((not snapshot) || Instance.equal (s.Store.snapshot ()) reference)
  && v.invariant reference

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

let removal_property (name, view) =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:("in-place removal mirrors Instance (" ^ name ^ ")") ~count:300
       removal_gen
       (fun (db, tgds, adds, (picks1, wipe, ghosts), fresh, picks2, snaps, probes) ->
         let v = view db in
         let plans = List.map Plan.compile tgds in
         let check i reference = agrees v plans probes ~snapshot:(List.nth snaps i) reference in
         let add reference atoms =
           List.fold_left
             (fun (i, ok) a ->
               (Instance.add a i, ok && v.store.Store.add a = not (Instance.mem a i)))
             (reference, true) atoms
         in
         let remove reference atoms =
           v.store.Store.remove atoms;
           List.fold_left (fun i a -> Instance.remove a i) reference atoms
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
         ok0 && added_ok && ok1 && ok2 && readded_ok && ok3 && check 4 r4
         && Instance.equal (v.store.Store.snapshot ()) r4))

let suite =
  [
    ( "compiled-engine-equivalence",
      properties
      @ List.map removal_property [ ("minstance", minstance_view); ("cinstance", cinstance_view) ]
    );
  ]
