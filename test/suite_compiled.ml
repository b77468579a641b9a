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

let suite = [ ("compiled-engine-equivalence", properties) ]
