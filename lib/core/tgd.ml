(* Tuple-generating dependencies (paper §2):
     ∀x̄∀ȳ (ϕ(x̄,ȳ) → ∃z̄ ψ(x̄,z̄))
   written body → head.  The paper works with single-head, constant-free
   TGDs; we represent the head as an atom list so that multi-head TGDs can
   be expressed too (needed by the fairness counterexample, Example B.1),
   and enforce single-headedness where the theory requires it. *)

type t = { name : string; body : Atom.t list; head : Atom.t list }

exception Ill_formed of string

let ill_formed fmt = Format.kasprintf (fun s -> raise (Ill_formed s)) fmt

(* Constants are admitted (standard Datalog±); nulls are runtime-only
   values that never belong in a dependency. *)
let check_null_free which atoms =
  List.iter
    (fun a ->
      List.iter
        (fun t ->
          if Term.is_null t then
            ill_formed "TGD %s contains null %s in %s" (Atom.to_string a) (Term.to_string t)
              which)
        (Atom.terms a))
    atoms

let var_set atoms =
  List.fold_left (fun s a -> Term.Set.union (Atom.var_set a) s) Term.Set.empty atoms

let make ?(name = "") ~body ~head () =
  if body = [] then ill_formed "TGD %s has an empty body" name;
  if head = [] then ill_formed "TGD %s has an empty head" name;
  check_null_free "the body" body;
  check_null_free "the head" head;
  { name; body; head }

let constant_free t =
  let atom_cf a = List.for_all (fun x -> not (Term.is_const x)) (Atom.terms a) in
  List.for_all atom_cf t.body && List.for_all atom_cf t.head

let constant_free_set ts = List.for_all constant_free ts

let name t = t.name
let with_name name t = { t with name }
let body t = t.body
let head t = t.head

let is_single_head t = match t.head with [ _ ] -> true | _ -> false

let head_atom t =
  match t.head with
  | [ a ] -> a
  | _ -> invalid_arg (Printf.sprintf "Tgd.head_atom: %s is not single-head" t.name)

let body_vars t = var_set t.body
let head_vars t = var_set t.head

(* fr(σ): variables occurring in both body and head. *)
let frontier t = Term.Set.inter (body_vars t) (head_vars t)

(* Existentially quantified variables: head variables not in the body. *)
let existential_vars t = Term.Set.diff (head_vars t) (body_vars t)

let all_vars t = Term.Set.union (body_vars t) (head_vars t)

(* 0-based positions of the (single) head at which frontier variables
   occur: ⋃_{x ∈ fr(σ)} pos(head(σ), x).  The terms of result(σ,h) at
   these positions form fr(result(σ,h)) (Def 3.1). *)
let frontier_positions t =
  let h = head_atom t in
  let fr = frontier t in
  let acc = ref [] in
  for i = Atom.arity h - 1 downto 0 do
    if Term.Set.mem (Atom.arg h i) fr then acc := i :: !acc
  done;
  !acc

(* Rename all variables with a prefix, producing a variable-disjoint copy;
   used e.g. by the stickiness marking, which assumes TGDs of a set share
   no variables (§2). *)
let rename_vars prefix t =
  let rn = function
    | Term.Var v -> Term.Var (prefix ^ v)
    | (Term.Const _ | Term.Null _) as x -> x
  in
  { t with body = List.map (Atom.map rn) t.body; head = List.map (Atom.map rn) t.head }

let rename_apart ts =
  List.mapi (fun i t -> rename_vars (Printf.sprintf "r%d_" i) t) ts

(* I ⊨ σ (paper §2): every body homomorphism extends to a head one. *)
let satisfied_by instance t =
  Homomorphism.all t.body instance
  |> Seq.for_all (fun h ->
         let fr = frontier t in
         let init = Substitution.restrict fr h in
         Homomorphism.exists ~init t.head instance)

let satisfied_by_all instance ts = List.for_all (satisfied_by instance) ts

(* Triggers of one TGD share the TGD value, so the physical test
   settles most compares without walking the atoms. *)
let compare a b =
  if a == b then 0
  else
    let c = String.compare a.name b.name in
    if c <> 0 then c
    else
      let catoms xs ys = List.compare Atom.compare xs ys in
      let c = catoms a.body b.body in
      if c <> 0 then c else catoms a.head b.head

let equal a b = compare a b = 0

let to_string t =
  let buf = Buffer.create 64 in
  if t.name <> "" then (
    Buffer.add_string buf t.name;
    Buffer.add_string buf ": ");
  Buffer.add_string buf (String.concat ", " (List.map Atom.to_string t.body));
  Buffer.add_string buf " -> ";
  let ex = existential_vars t in
  if not (Term.Set.is_empty ex) then (
    Buffer.add_string buf "exists ";
    Buffer.add_string buf
      (String.concat ","
         (List.map Term.to_string (Term.Set.elements ex)));
    Buffer.add_string buf ". ");
  Buffer.add_string buf (String.concat ", " (List.map Atom.to_string t.head));
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (to_string t)

let pp_set ppf ts =
  Format.pp_print_list ~pp_sep:Format.pp_print_newline pp ppf ts
