(* QCheck generators shared by the property tests. *)

open Chase_core

let small_consts = [ "a"; "b"; "c"; "d" ]
let small_nulls = [ "n1"; "n2"; "n3" ]

let ground_term_gen =
  QCheck2.Gen.oneof
    [
      QCheck2.Gen.map (fun c -> Term.Const c) (QCheck2.Gen.oneofl small_consts);
      QCheck2.Gen.map (fun n -> Term.Null n) (QCheck2.Gen.oneofl small_nulls);
    ]

(* Fixed small schema: r/2, s/1, t/3. *)
let schema_preds = [ ("r", 2); ("s", 1); ("t", 3) ]

let ground_atom_gen =
  let open QCheck2.Gen in
  let* p, ar = oneofl schema_preds in
  let* args = list_repeat ar ground_term_gen in
  return (Atom.make p args)

let instance_gen =
  let open QCheck2.Gen in
  let* atoms = list_size (int_range 0 12) ground_atom_gen in
  return (Instance.of_list atoms)

(* Random variable-only atoms for TGD parts. *)
let var_pool = [ "X"; "Y"; "Z"; "W" ]

let var_term_gen = QCheck2.Gen.map (fun v -> Term.Var v) (QCheck2.Gen.oneofl var_pool)

let var_atom_gen =
  let open QCheck2.Gen in
  let* p, ar = oneofl schema_preds in
  let* args = list_repeat ar var_term_gen in
  return (Atom.make p args)

let tgd_gen =
  let open QCheck2.Gen in
  let* body = list_size (int_range 1 2) var_atom_gen in
  let* head0 = var_atom_gen in
  (* make sure head has some connection or existential; any var atom works *)
  return (Tgd.make ~name:"q" ~body ~head:[ head0 ] ())

(* Like [tgd_gen] with one or two head atoms, so a step can produce an
   atom that joins with another atom of its own result. *)
let multi_head_tgd_gen =
  let open QCheck2.Gen in
  let* body = list_size (int_range 1 2) var_atom_gen in
  let* head = list_size (int_range 1 2) var_atom_gen in
  return (Tgd.make ~name:"q" ~body ~head ())

let substitution_gen =
  let open QCheck2.Gen in
  let* pairs =
    list_size (int_range 0 4)
      (pair (map (fun v -> Term.Var v) (oneofl var_pool)) ground_term_gen)
  in
  return
    (List.fold_left
       (fun s (v, t) -> if Substitution.mem v s then s else Substitution.bind v t s)
       Substitution.empty pairs)
