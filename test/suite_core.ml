(* Unit and property tests for the relational core (paper §2, App. A). *)

open Chase_core

let term = Alcotest.testable Term.pp Term.equal
let atom = Alcotest.testable Atom.pp Atom.equal
let instance = Alcotest.testable Instance.pp Instance.equal

let a ?(p = "r") args = Atom.make p args
let c x = Term.Const x
let v x = Term.Var x
let n x = Term.Null x

let unit_tests =
  [
    Alcotest.test_case "term ordering groups constants, nulls, variables" `Quick (fun () ->
        Alcotest.(check bool) "const < null" true (Term.compare (c "z") (n "a") < 0);
        Alcotest.(check bool) "null < var" true (Term.compare (n "z") (v "a") < 0));
    Alcotest.test_case "atom positions_of" `Quick (fun () ->
        let at = a [ c "x"; c "y"; c "x" ] ~p:"t" in
        Alcotest.(check (list int)) "positions" [ 0; 2 ] (Atom.positions_of at (c "x")));
    Alcotest.test_case "is_fact and is_ground" `Quick (fun () ->
        Alcotest.(check bool) "fact" true (Atom.is_fact (a [ c "x"; c "y" ]));
        Alcotest.(check bool) "null not fact" false (Atom.is_fact (a [ c "x"; n "1" ]));
        Alcotest.(check bool) "null ground" true (Atom.is_ground (a [ c "x"; n "1" ]));
        Alcotest.(check bool) "var not ground" false (Atom.is_ground (a [ c "x"; v "X" ])));
    Alcotest.test_case "substitution apply fixes constants" `Quick (fun () ->
        let s = Substitution.bind (v "X") (c "a") Substitution.empty in
        Alcotest.check term "var" (c "a") (Substitution.apply_term s (v "X"));
        Alcotest.check term "const" (c "b") (Substitution.apply_term s (c "b")));
    Alcotest.test_case "substitution bind rejects constants" `Quick (fun () ->
        Alcotest.check_raises "invalid"
          (Invalid_argument "Substitution.bind: constant in domain") (fun () ->
            ignore (Substitution.bind (c "a") (c "b") Substitution.empty)));
    Alcotest.test_case "unify consistency" `Quick (fun () ->
        let s = Option.get (Substitution.unify (v "X") (c "a") Substitution.empty) in
        Alcotest.(check bool) "conflict" true (Substitution.unify (v "X") (c "b") s = None);
        Alcotest.(check bool) "agree" true (Substitution.unify (v "X") (c "a") s <> None));
    Alcotest.test_case "instance dedup and index" `Quick (fun () ->
        let i = Instance.of_list [ a [ c "x"; c "y" ]; a [ c "x"; c "y" ] ] in
        Alcotest.(check int) "cardinal" 1 (Instance.cardinal i);
        Alcotest.(check int) "with_pred" 1 (List.length (Instance.with_pred i "r"));
        Alcotest.(check int) "missing pred" 0 (List.length (Instance.with_pred i "zz")));
    Alcotest.test_case "active domain" `Quick (fun () ->
        let i = Instance.of_list [ a [ c "x"; n "1" ] ] in
        Alcotest.(check int) "dom" 2 (Term.Set.cardinal (Instance.active_domain i));
        Alcotest.(check bool) "not db" false (Instance.is_database i));
    Alcotest.test_case "homomorphism: body into instance" `Quick (fun () ->
        let i = Instance.of_list [ a [ c "x"; c "y" ]; a [ c "y"; c "z" ] ] in
        let body = [ a [ v "X"; v "Y" ]; a [ v "Y"; v "Z" ] ] in
        let homs = List.of_seq (Homomorphism.all body i) in
        (* X→x,Y→y,Z→z and X→.. any chain of length 2: (x,y,z) only, plus
           degenerate matches via repeated atoms: (x,y)(y,z) and (y,z)(z,?) no *)
        Alcotest.(check bool) "found" true (List.length homs >= 1);
        List.iter
          (fun h ->
            List.iter
              (fun b -> Alcotest.(check bool) "maps in" true
                  (Instance.mem (Substitution.apply_atom h b) i))
              body)
          homs);
    Alcotest.test_case "homomorphism respects frozen terms" `Quick (fun () ->
        let target = a [ c "x"; c "y" ] in
        let pattern = a [ n "u"; n "w" ] in
        let free = Homomorphism.match_atom ~pattern ~target Substitution.empty in
        Alcotest.(check bool) "free match" true (Option.is_some free);
        let frozen = Term.Set.singleton (n "u") in
        let fr = Homomorphism.match_atom ~frozen ~pattern ~target Substitution.empty in
        Alcotest.(check bool) "frozen mismatch" true (Option.is_none fr));
    Alcotest.test_case "isomorphism detects renamings" `Quick (fun () ->
        let i1 = Instance.of_list [ a [ n "1"; n "2" ] ] in
        let i2 = Instance.of_list [ a [ n "7"; n "8" ] ] in
        let i3 = Instance.of_list [ a [ n "7"; n "7" ] ] in
        Alcotest.(check bool) "iso" true (Homomorphism.isomorphic i1 i2);
        Alcotest.(check bool) "not iso" false (Homomorphism.isomorphic i1 i3));
    Alcotest.test_case "tgd frontier and existentials" `Quick (fun () ->
        let t = Chase_parser.Parser.parse_tgd "r(X,Y) -> exists Z. t(X,Z,Z)." in
        Alcotest.(check int) "frontier" 1 (Term.Set.cardinal (Tgd.frontier t));
        Alcotest.(check int) "existential" 1 (Term.Set.cardinal (Tgd.existential_vars t));
        Alcotest.(check (list int)) "frontier positions" [ 0 ] (Tgd.frontier_positions t));
    Alcotest.test_case "tgd satisfaction" `Quick (fun () ->
        let t = Chase_parser.Parser.parse_tgd "r(X,Y) -> exists Z. r(X,Z)." in
        let i = Instance.of_list [ a [ c "x"; c "y" ] ] in
        Alcotest.(check bool) "satisfied" true (Tgd.satisfied_by i t);
        let t2 = Chase_parser.Parser.parse_tgd "r(X,Y) -> exists Z. r(Y,Z)." in
        Alcotest.(check bool) "violated" false (Tgd.satisfied_by i t2));
    Alcotest.test_case "tgd accepts constants but rejects nulls" `Quick (fun () ->
        let t = Tgd.make ~body:[ a [ c "k"; v "Y" ] ] ~head:[ a [ v "Y"; v "Y" ] ] () in
        Alcotest.(check bool) "not constant-free" false (Tgd.constant_free t);
        let cf = Tgd.make ~body:[ a [ v "X"; v "Y" ] ] ~head:[ a [ v "Y"; v "Y" ] ] () in
        Alcotest.(check bool) "constant-free" true (Tgd.constant_free cf);
        match Tgd.make ~body:[ a [ n "u"; v "Y" ] ] ~head:[ a [ v "Y"; v "Y" ] ] () with
        | exception Tgd.Ill_formed _ -> ()
        | _ -> Alcotest.fail "expected Ill_formed");
    Alcotest.test_case "schema arity conflict" `Quick (fun () ->
        match Schema.add "r" 3 (Schema.add "r" 2 Schema.empty) with
        | exception Schema.Arity_mismatch _ -> ()
        | _ -> Alcotest.fail "expected Arity_mismatch");
    Alcotest.test_case "equality types: partitions count Bell numbers" `Quick (fun () ->
        List.iteri
          (fun i expected ->
            Alcotest.(check int)
              (Printf.sprintf "B(%d)" i)
              expected
              (List.length (Equality_type.partitions i)))
          [ 1; 1; 2; 5; 15 ]);
    Alcotest.test_case "equality type of atom" `Quick (fun () ->
        let at = a ~p:"t" [ c "x"; c "y"; c "x" ] in
        let e = Equality_type.of_atom at in
        Alcotest.(check bool) "0~2" true (Equality_type.same_class e 0 2);
        Alcotest.(check bool) "0~1" false (Equality_type.same_class e 0 1);
        Alcotest.(check int) "classes" 2 (Equality_type.num_classes e));
    Alcotest.test_case "sideatom types" `Quick (fun () ->
        let beta = Atom.make "g" [ c "a"; c "d"; c "c"; c "b" ] in
        let alpha = Atom.make "p" [ c "a"; c "b"; c "c" ] in
        let pis = Sideatom_type.all_of_pair alpha ~of_:beta in
        Alcotest.(check bool) "exists" true (pis <> []);
        List.iter
          (fun pi ->
            Alcotest.(check bool) "is_sideatom" true (Sideatom_type.is_sideatom pi alpha ~of_:beta);
            Alcotest.check atom "project" alpha (Sideatom_type.project pi beta))
          pis);
    Alcotest.test_case "instance set algebra" `Quick (fun () ->
        let i1 = Instance.of_list [ a [ c "x"; c "y" ] ] in
        let i2 = Instance.of_list [ a [ c "y"; c "z" ] ] in
        let u = Instance.union i1 i2 in
        Alcotest.(check int) "union" 2 (Instance.cardinal u);
        Alcotest.check instance "diff" i1 (Instance.diff u i2);
        Alcotest.(check bool) "subset" true (Instance.subset i1 u));
  ]

(* Edge cases the columnar fact store must get right. *)
let storage_tests =
  [
    Alcotest.test_case "cinstance: 0-ary predicate" `Quick (fun () ->
        let s = Cinstance.create () in
        let p0 = Atom.make "p" [] in
        Alcotest.(check bool) "new" true (Cinstance.add s p0);
        Alcotest.(check bool) "dup" false (Cinstance.add s p0);
        Alcotest.(check bool) "mem" true (Cinstance.mem s p0);
        Alcotest.(check int) "cardinal" 1 (Cinstance.cardinal s);
        Alcotest.(check (list atom)) "with_pred" [ p0 ] (Cinstance.with_pred s "p");
        Alcotest.check instance "snapshot" (Instance.of_list [ p0 ]) (Cinstance.snapshot s));
    Alcotest.test_case "cinstance: duplicate add straddling a snapshot boundary" `Quick
      (fun () ->
        let s = Cinstance.create () in
        let at = a [ c "x"; c "y" ] in
        Alcotest.(check bool) "first" true (Cinstance.add s at);
        let snap1 = Cinstance.snapshot s in
        Alcotest.(check bool) "dup across snapshot" false (Cinstance.add s at);
        Alcotest.(check int) "cardinal" 1 (Cinstance.cardinal s);
        Alcotest.check instance "snapshot unchanged" snap1 (Cinstance.snapshot s);
        let at2 = a [ c "y"; c "x" ] in
        Alcotest.(check bool) "new after snapshot" true (Cinstance.add s at2);
        Alcotest.check instance "snapshot grows" (Instance.add at2 snap1) (Cinstance.snapshot s));
    Alcotest.test_case "cinstance: growth past initial capacity keeps indexes consistent"
      `Quick (fun () ->
        (* 100 rows over 101 distinct terms: columns, postings and the
           interner all outgrow their initial capacities. *)
        let s = Cinstance.create () in
        let k i = c (Printf.sprintf "k%03d" i) in
        let atoms = List.init 100 (fun i -> a [ k i; k (i + 1) ]) in
        List.iter (fun at -> Alcotest.(check bool) "new" true (Cinstance.add s at)) atoms;
        Alcotest.(check int) "cardinal" 100 (Cinstance.cardinal s);
        List.iteri
          (fun i at ->
            Alcotest.(check bool) "mem" true (Cinstance.mem s at);
            Alcotest.(check (list atom)) "indexed at pos 0" [ at ]
              (Cinstance.with_pos_term s "r" 0 (k i));
            Alcotest.(check int) "count at pos 0" 1 (Cinstance.pos_term_count s "r" 0 (k i)))
          atoms;
        Alcotest.check instance "snapshot" (Instance.of_list atoms) (Cinstance.snapshot s));
    Alcotest.test_case "cinstance: with_pos_term on a never-seen term" `Quick (fun () ->
        let s = Cinstance.create () in
        ignore (Cinstance.add s (a [ c "x"; c "y" ]));
        Alcotest.(check (list atom)) "ghost term" [] (Cinstance.with_pos_term s "r" 0 (c "ghost"));
        Alcotest.(check int) "ghost count" 0 (Cinstance.pos_term_count s "r" 0 (c "ghost"));
        Alcotest.(check (list atom)) "ghost pred" [] (Cinstance.with_pos_term s "zz" 0 (c "x"));
        Alcotest.(check bool) "ghost mem" false (Cinstance.mem s (a [ c "ghost"; c "y" ])));
    Alcotest.test_case "cinstance: one predicate at two arities" `Quick (fun () ->
        let s = Cinstance.create () in
        let one = a [ c "x" ] and two = a [ c "x"; c "y" ] in
        Alcotest.(check bool) "arity 1" true (Cinstance.add s one);
        Alcotest.(check bool) "arity 2" true (Cinstance.add s two);
        Alcotest.(check int) "cardinal" 2 (Cinstance.cardinal s);
        Alcotest.(check int) "with_pred sees both" 2 (List.length (Cinstance.with_pred s "r"));
        Alcotest.(check bool) "mem arity 1" true (Cinstance.mem s one);
        Alcotest.(check bool) "mem arity 2" true (Cinstance.mem s two));
    Alcotest.test_case "interner: dense ids survive growth past initial capacity" `Quick
      (fun () ->
        let it = Term_interner.create ~size_hint:1 () in
        let terms = List.init 100 (fun i -> c (Printf.sprintf "k%02d" i)) in
        (* after each doubling of the tables, every earlier id is
           still found *)
        let ids =
          List.mapi
            (fun i t ->
              let id = Term_interner.intern it t in
              if i land (i + 1) = 0 then
                List.iteri
                  (fun j t' ->
                    if j <= i then
                      Alcotest.(check int) "found after growth" j (Term_interner.find it t'))
                  terms;
              id)
            terms
        in
        Alcotest.(check (list int)) "dense ids" (List.init 100 Fun.id) ids;
        List.iteri
          (fun i t -> Alcotest.check term "roundtrip" t (Term_interner.term_of it i))
          terms;
        Alcotest.(check int) "cardinal" 100 (Term_interner.cardinal it);
        Alcotest.(check int) "re-intern is stable" 7 (Term_interner.intern it (c "k07"));
        Alcotest.(check int) "find on missing" (-1) (Term_interner.find it (c "zz")));
    Alcotest.test_case "interner: Const and Null with one label get distinct ids" `Quick
      (fun () ->
        let it = Term_interner.create () in
        let ic = Term_interner.intern it (c "a") and inull = Term_interner.intern it (n "a") in
        Alcotest.(check bool) "distinct" true (ic <> inull);
        Alcotest.(check int) "find const" ic (Term_interner.find it (c "a"));
        Alcotest.(check int) "find null" inull (Term_interner.find it (n "a"));
        Alcotest.check term "const back" (c "a") (Term_interner.term_of it ic);
        Alcotest.check term "null back" (n "a") (Term_interner.term_of it inull));
    Alcotest.test_case "cinstance: bulk-loaded 0-ary relation before and after an add" `Quick
      (fun () ->
        (* position 0 does not exist, so [mem] cannot go through the
           base tier's ranges *)
        let p0 = Atom.make "p" [] in
        let ci = Cinstance.of_instance (Instance.of_list [ p0; a [ c "x" ] ]) in
        Alcotest.(check bool) "mem before any add" true (Cinstance.mem ci p0);
        Alcotest.(check bool) "other 0-ary" false (Cinstance.mem ci (Atom.make "q" []));
        Alcotest.(check bool) "re-add is a dup" false (Cinstance.add ci p0);
        Alcotest.(check bool) "mem after" true (Cinstance.mem ci p0);
        Alcotest.(check int) "cardinal" 2 (Cinstance.cardinal ci));
    Alcotest.test_case "cinstance: dedup table is built on the first add, not the load" `Quick
      (fun () ->
        let x = c "x" and y = c "y" and z = c "z" in
        let db = Instance.of_list [ a [ x; y ]; a [ y; z ]; a ~p:"s" [ x; y ]; a ~p:"s" [ y; z ] ] in
        let st = Obs.Stats.create () in
        let counter = Obs.Stats.counter st in
        Obs.with_sink (Obs.Stats.sink st) (fun () ->
            let ci = Cinstance.of_instance db in
            Alcotest.(check int) "load counts adds" 4 (counter "cinstance.add");
            Alcotest.(check int) "no dedup table at load" 0 (counter "cinstance.rowset.build");
            Alcotest.(check bool) "new r row" true (Cinstance.add ci (a [ z; x ]));
            Alcotest.(check int) "built for r" 1 (counter "cinstance.rowset.build");
            Alcotest.(check int) "r's base rows hashed" 2 (counter "cinstance.rowset.rows");
            (* s has never been added to: its rows answer through the base tier *)
            Alcotest.(check bool) "base row" true (Cinstance.mem ci (a ~p:"s" [ y; z ]));
            Alcotest.(check bool) "base row, other" true (Cinstance.mem ci (a ~p:"s" [ x; y ]));
            Alcotest.(check bool) "cells of two rows" false (Cinstance.mem ci (a ~p:"s" [ x; z ]));
            Alcotest.(check bool) "swapped cells" false (Cinstance.mem ci (a ~p:"s" [ y; x ]));
            Alcotest.(check bool) "never-interned term" false (Cinstance.mem ci (a ~p:"s" [ x; c "w" ]));
            Alcotest.(check bool) "added row in r" true (Cinstance.mem ci (a [ z; x ]));
            Alcotest.(check bool) "dup of an r base row" false (Cinstance.add ci (a [ y; z ]));
            Alcotest.(check int) "s still unhashed" 1 (counter "cinstance.rowset.build");
            Alcotest.(check bool) "dup of an s base row" false (Cinstance.add ci (a ~p:"s" [ x; y ]));
            Alcotest.(check int) "built for s" 2 (counter "cinstance.rowset.build");
            Alcotest.(check int) "rows hashed" 4 (counter "cinstance.rowset.rows");
            Alcotest.(check int) "cardinal" 5 (Cinstance.cardinal ci)));
    Alcotest.test_case "cinstance: find_id on a never-interned term" `Quick (fun () ->
        let ci = Cinstance.of_instance (Instance.of_list [ a [ c "x"; c "y" ] ]) in
        Alcotest.(check int) "ghost id" (-1) (Cinstance.find_id ci (c "ghost"));
        Alcotest.(check bool) "seen id" true (Cinstance.find_id ci (c "x") >= 0));
  ]

let property_tests =
  let open QCheck2 in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"compose applies right-to-left" ~count:200
         (QCheck2.Gen.triple Tgen.substitution_gen Tgen.substitution_gen Tgen.var_term_gen)
         (fun (s2, s1, t) ->
           Term.equal
             (Substitution.apply_term (Substitution.compose s2 s1) t)
             (Substitution.apply_term s2 (Substitution.apply_term s1 t))));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"every found homomorphism maps the body into the instance" ~count:200
         (QCheck2.Gen.pair
            (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 2) Tgen.var_atom_gen)
            Tgen.instance_gen)
         (fun (body, inst) ->
           Homomorphism.all body inst |> List.of_seq
           |> List.for_all (fun h ->
                  List.for_all (fun b -> Instance.mem (Substitution.apply_atom h b) inst) body)));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"equality type canonical roundtrip" ~count:200 Tgen.ground_atom_gen
         (fun at ->
           let e = Equality_type.of_atom at in
           Equality_type.equal e (Equality_type.of_atom (Equality_type.canonical_atom e))));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"instance union is idempotent and commutative" ~count:200
         (QCheck2.Gen.pair Tgen.instance_gen Tgen.instance_gen)
         (fun (i1, i2) ->
           Instance.equal (Instance.union i1 i2) (Instance.union i2 i1)
           && Instance.equal (Instance.union i1 i1) i1));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"isomorphic instances are hom-equivalent" ~count:100 Tgen.instance_gen
         (fun i ->
           (* rename all nulls with a fixed bijection *)
           let rn = function
             | Term.Null x -> Term.Null ("z" ^ x)
             | t -> t
           in
           let j = Instance.map (Atom.map rn) i in
           Homomorphism.hom_equivalent i j));
  ]

(* The (pred, pos, term) index is a cache built on the first probe and
   maintained below an indexed parent (DESIGN.md §6); probing must agree
   with a filter of the predicate index however the instance was made. *)
let index_agrees i =
  List.for_all
    (fun (p, ar) ->
      let all = Instance.with_pred_set i p in
      List.for_all
        (fun k ->
          List.for_all
            (fun t ->
              Atom.Set.equal
                (Instance.with_pred_pos_term i p k t)
                (Atom.Set.filter (fun a -> Term.equal (Atom.arg a k) t) all))
            (List.map (fun c -> Term.Const c) Tgen.small_consts
            @ List.map (fun n -> Term.Null n) Tgen.small_nulls))
        (List.init ar Fun.id))
    Tgen.schema_preds

type index_op =
  | Add of Atom.t
  | Remove of Atom.t
  | Union of Instance.t * bool  (* the other operand, probed first? *)
  | Filter of string  (* drop a predicate *)
  | Map of Term.t * Term.t  (* rename a term *)
  | Probe

let index_op_gen =
  let open QCheck2.Gen in
  oneof
    [
      map (fun a -> Add a) Tgen.ground_atom_gen;
      map (fun a -> Remove a) Tgen.ground_atom_gen;
      map2 (fun i b -> Union (i, b)) Tgen.instance_gen bool;
      map (fun (p, _) -> Filter p) (oneofl Tgen.schema_preds);
      map2 (fun a b -> Map (a, b)) Tgen.ground_term_gen Tgen.ground_term_gen;
      return Probe;
    ]

let index_tests =
  let open QCheck2 in
  let apply i = function
    | Add a -> Instance.add a i
    | Remove a -> Instance.remove a i
    | Union (j, probed) ->
        if probed then ignore (index_agrees j);
        Instance.union i j
    | Filter p -> Instance.filter (fun a -> Atom.pred a <> p) i
    | Map (t, t') -> Instance.map (Atom.map (fun x -> if Term.equal x t then t' else x)) i
    | Probe -> i
  in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"deferred index agrees with a filter after any op sequence" ~count:300
         (QCheck2.Gen.triple Tgen.instance_gen QCheck2.Gen.bool
            (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 12) index_op_gen))
         (fun (i0, probe_first, ops) ->
           if probe_first then ignore (index_agrees i0);
           (* the same ops from a never-probed copy, probed only at the end *)
           let cold = List.fold_left apply (Instance.of_list (Instance.to_list i0)) ops in
           let warm, probes_ok =
             List.fold_left
               (fun (i, ok) op ->
                 let i = apply i op in
                 (i, ok && match op with Probe -> index_agrees i | _ -> true))
               (i0, true) ops
           in
           probes_ok && Instance.equal cold warm && index_agrees warm && index_agrees cold));
    Alcotest.test_case "probing empty leaves its descendants unindexed" `Quick (fun () ->
        let a = Atom.make "r" [ Term.Const "a"; Term.Const "b" ] in
        let b = Atom.make "r" [ Term.Const "b"; Term.Const "c" ] in
        let st = Obs.Stats.create () in
        Obs.with_sink (Obs.Stats.sink st) (fun () ->
            Alcotest.(check int) "empty probe" 0
              (Atom.Set.cardinal (Instance.with_pred_pos_term Instance.empty "r" 0 (Term.Const "a")));
            let i = Instance.add a Instance.empty in
            Alcotest.(check int) "no build before a probe" 0 (Obs.Stats.counter st "instance.index.build");
            Alcotest.(check int) "first probe" 1
              (Atom.Set.cardinal (Instance.with_pred_pos_term i "r" 0 (Term.Const "a")));
            Alcotest.(check int) "built on the first probe" 1 (Obs.Stats.counter st "instance.index.build");
            let j = Instance.add b i in
            Alcotest.(check int) "maintained below an indexed parent" 1
              (Atom.Set.cardinal (Instance.with_pred_pos_term j "r" 0 (Term.Const "b")));
            ignore (Instance.with_pred_pos_term i "r" 0 (Term.Const "b"));
            Alcotest.(check int) "no further builds" 1 (Obs.Stats.counter st "instance.index.build");
            (* another position is another slice, built on its own first probe *)
            Alcotest.(check int) "other slot" 1
              (Atom.Set.cardinal (Instance.with_pred_pos_term j "r" 1 (Term.Const "c")));
            Alcotest.(check int) "one more build" 2 (Obs.Stats.counter st "instance.index.build");
            Alcotest.(check int) "atoms indexed" 3 (Obs.Stats.counter st "instance.index.atoms")));
  ]

(* [Instance.union] merges per predicate and keeps the slices the larger
   side built; it must equal a fold of [Instance.add] on every read.  The
   schema holds r at two arities, and [b] shares some atoms with [a]. *)
let union_slots = [ ("r", 2); ("r", 1); ("s", 1); ("t", 3) ]

let union_atom_gen =
  let open QCheck2.Gen in
  let* p, ar = oneofl union_slots in
  let* args = list_repeat ar Tgen.ground_term_gen in
  return (Atom.make p args)

let union_terms = List.map c Tgen.small_consts @ List.map n Tgen.small_nulls

(* Every (predicate, position) answer of [i], building each slice [i]
   lacks. *)
let probe_all i =
  List.concat_map
    (fun (p, ar) ->
      List.concat_map
        (fun k -> List.map (fun t -> Instance.with_pred_pos_term i p k t) union_terms)
        (List.init ar Fun.id))
    union_slots

let union_tests =
  let open QCheck2 in
  let gen =
    Gen.(
      let side = oneof [ return []; list_size (int_range 0 12) union_atom_gen ] in
      let* a = side in
      let* shared = list_size (int_range 0 6) (if a = [] then union_atom_gen else oneofl a) in
      let* b = side in
      let* probe_a = bool in
      let* probe_b = bool in
      return (a, shared @ b, probe_a, probe_b))
  in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"instance union equals a fold of add, slices included" ~count:500
         ~print:(fun (a, b, pa, pb) ->
           Printf.sprintf "a=%s b=%s probe_a=%b probe_b=%b"
             (String.concat " " (List.map Atom.to_string a))
             (String.concat " " (List.map Atom.to_string b))
             pa pb)
         gen
         (fun (a, b, probe_a, probe_b) ->
           let a = Instance.of_list a and b = Instance.of_list b in
           if probe_a then ignore (probe_all a);
           if probe_b then ignore (probe_all b);
           let folded = Instance.fold Instance.add b a in
           let u = Instance.union a b in
           (* a probe after the union rebuilds no slice the larger side had *)
           let big_probed = if Instance.cardinal a >= Instance.cardinal b then probe_a else probe_b in
           let st = Obs.Stats.create () in
           let probes = Obs.with_sink (Obs.Stats.sink st) (fun () -> probe_all u) in
           let fresh = Instance.of_list (Instance.to_list u) in
           List.equal Atom.equal (Instance.to_list u) (Instance.to_list folded)
           && Instance.cardinal u = Instance.cardinal folded
           && List.equal Atom.Set.equal probes (probe_all fresh)
           && List.equal Atom.Set.equal probes (probe_all folded)
           && ((not big_probed) || Instance.is_empty u
              || Obs.Stats.counter st "instance.index.build" = 0)));
  ]

let suite = [ ("core", unit_tests @ storage_tests @ property_tests @ index_tests @ union_tests) ]
