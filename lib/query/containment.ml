(* Conjunctive query containment under TGDs (paper §1, [Aho-Sagiv-Ullman
   '79] and the chase literature): q₁ ⊑_T q₂ iff q₂ maps into the chase
   of q₁'s canonical (frozen) database, sending answer variables to the
   corresponding frozen answer constants.  Requires the chase of the
   canonical database to terminate — which is why the paper's termination
   problem matters here. *)

open Chase_core
open Chase_engine

let frozen_const v = Term.Const ("\xe2\x9d\x84" ^ v)  (* ❄v: private namespace *)

(* The canonical database of a query: freeze every variable. *)
let canonical_database q =
  let freeze = function
    | Term.Var v -> frozen_const v
    | (Term.Const _ | Term.Null _) as t -> t
  in
  Instance.of_list (List.map (Atom.map freeze) (Conjunctive_query.body q))

(* q₁ ⊑_T q₂ (same answer arity required). *)
let contained_in ?(max_steps = 20_000) ~tgds q1 q2 =
  let a1 = Conjunctive_query.answer_vars q1 and a2 = Conjunctive_query.answer_vars q2 in
  if List.length a1 <> List.length a2 then
    invalid_arg "Containment.contained_in: answer arities differ";
  let db = canonical_database q1 in
  let derivation = Restricted.run ~max_steps tgds db in
  match Derivation.status derivation with
  | Derivation.Out_of_budget -> Error "chase of the canonical database did not terminate"
  | Derivation.Terminated ->
      let model = Derivation.final derivation in
      (* q₂'s answer variables must land on q₁'s frozen answers *)
      let frozen = List.map (function Term.Var name -> frozen_const name | t -> t) a1 in
      Ok (List.exists (List.equal Term.equal frozen) (Conjunctive_query.answers q2 model))

let equivalent ?max_steps ~tgds q1 q2 =
  match (contained_in ?max_steps ~tgds q1 q2, contained_in ?max_steps ~tgds q2 q1) with
  | Ok a, Ok b -> Ok (a && b)
  | Error e, _ | _, Error e -> Error e

(* Plain containment (no constraints): the classic homomorphism check. *)
let contained_in_plain q1 q2 = contained_in ~tgds:[] q1 q2
