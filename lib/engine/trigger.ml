(* Triggers and trigger application (paper Def 3.1).

   A trigger for T on I is a pair (σ, h) with h a homomorphism from
   body(σ) to I.  It is *active* when no extension of h|fr(σ) maps the
   head into I.  result(σ, h) maps each existential variable x of the head
   to the null c^{σ,h}_x whose name is determined by the trigger, so the
   produced atom is unambiguous (this is what the real oblivious chase
   relies on).  Engines that do not need canonical names can use a fresh
   generator instead, which is cheaper. *)

open Chase_core

type t = { tgd : Tgd.t; hom : Substitution.t }

let make tgd hom = { tgd; hom }
let tgd t = t.tgd
let hom t = t.hom

let compare a b =
  let c = Tgd.compare a.tgd b.tgd in
  if c <> 0 then c else Substitution.compare a.hom b.hom

let equal a b = compare a b = 0

(* Structural hash compatible with [equal]; the TGD contributes only its
   name (TGD sets in a run are tiny — collisions there are harmless).
   Only the bound terms are hashed: equal triggers bind the same
   variables, and [fold] visits them in variable order. *)
let hash t =
  Substitution.fold
    (fun _ u acc -> (acc * 65599) + Term.hash u)
    t.hom
    (Hashtbl.hash (Tgd.name t.tgd))
  land max_int

(* h|fr(σ). *)
let frontier_hom t = Substitution.restrict (Tgd.frontier t.tgd) t.hom

(* All triggers for the TGDs on the instance — compiled-plan enumeration
   (the plans are memoized per TGD, so repeated calls re-plan nothing).
   The list is materialised eagerly; plan scratch state is per-call, but
   eagerness keeps the Seq safe to retraverse and interleave. *)
let all tgds instance =
  let src = Plan.source_of_instance instance in
  let out = ref [] in
  List.iter
    (fun tgd ->
      Plan.iter_homs (Plan.of_tgd tgd) src (fun hom -> out := { tgd; hom } :: !out))
    tgds;
  List.to_seq (List.rev !out)

(* Triggers whose body uses the given atom (for incremental chasing):
   seed each body position with [atom] and run the compiled suffix. *)
let involving tgds instance atom =
  let out = ref [] in
  List.iter
    (fun tgd ->
      Plan.iter_delta_homs (Plan.of_tgd tgd) instance atom (fun hom -> out := { tgd; hom } :: !out))
    tgds;
  List.to_seq (List.rev !out)

(* (σ, h) is active on I iff there is no h' ⊇ h|fr(σ) with h'(head) ⊆ I
   (Def 3.1; for multi-head TGDs all head atoms must be present). *)
let is_active instance t =
  not (Plan.head_satisfied (Plan.of_tgd t.tgd) instance t.hom)

(* Reference implementations on the generic homomorphism search.  The
   engines' default paths run on compiled plans; these stay around as the
   oracle the property tests compare against (and as executable
   documentation of Def 3.1). *)
let all_naive tgds instance =
  List.to_seq tgds
  |> Seq.concat_map (fun tgd ->
         Homomorphism.all (Tgd.body tgd) instance |> Seq.map (fun hom -> { tgd; hom }))

let involving_naive tgds instance atom =
  List.to_seq tgds
  |> Seq.concat_map (fun tgd ->
         let body = Tgd.body tgd in
         List.to_seq (List.mapi (fun i gamma -> (i, gamma)) body)
         |> Seq.concat_map (fun (i, gamma) ->
                match Homomorphism.match_atom ~pattern:gamma ~target:atom Substitution.empty with
                | None -> Seq.empty
                | Some init ->
                    let rest = List.filteri (fun j _ -> j <> i) body in
                    Homomorphism.all ~init rest instance
                    |> Seq.map (fun hom -> { tgd; hom })))

let is_active_naive instance t =
  let init = frontier_hom t in
  not (Homomorphism.exists ~init (Tgd.head t.tgd) instance)

(* Deterministic null names c^{σ,h}_x (Def 3.1).  The name must identify
   the trigger uniquely; embedding h literally makes names grow with the
   depth of the chase (each null's name would contain its parents'), so
   we embed a digest of (σ, h, x) instead — same determinism, constant
   size. *)
let canonical_null t x =
  let bindings =
    Substitution.bindings t.hom
    |> List.map (fun (v, u) -> Term.to_string v ^ "=" ^ Term.to_string u)
    |> String.concat ";"
  in
  let key = Printf.sprintf "%s|%s|%s|%s" (Tgd.name t.tgd) (Tgd.to_string t.tgd) bindings x in
  Term.Null ("c" ^ String.sub (Digest.to_hex (Digest.string key)) 0 16)

(* The head instantiation v of Def 3.1: frontier variables follow h,
   existential variables become nulls (canonical or fresh). *)
let head_instantiation ?gen t =
  let fr = Tgd.frontier t.tgd in
  let ex = Tgd.existential_vars t.tgd in
  let v =
    Term.Set.fold
      (fun x acc ->
        let null =
          match gen with
          | Some g -> Term.Gen.fresh g
          | None -> (
              match x with
              | Term.Var name -> canonical_null t name
              | Term.Const _ | Term.Null _ -> assert false)
        in
        Substitution.bind x null acc)
      ex
      (Substitution.restrict fr t.hom)
  in
  v

(* result(σ, h) — the list of produced atoms (singleton for single-head
   TGDs).  With [gen] the existential witnesses are fresh nulls; without
   it they are the canonical c^{σ,h}_x nulls. *)
let result ?gen t =
  let v = head_instantiation ?gen t in
  List.map (Substitution.apply_atom v) (Tgd.head t.tgd)

(* The frontier terms of the produced atoms: { h(x) : x ∈ fr(σ) }.  These
   are exactly the terms occurring at frontier positions of the result
   (Def 3.1), and are what the stop relation must fix.  Built directly
   from the frontier variables, skipping the restricted-map intermediate
   of [frontier_hom]. *)
let frontier_terms t =
  Term.Set.fold
    (fun x acc -> Term.Set.add (Substitution.apply_term t.hom x) acc)
    (Tgd.frontier t.tgd) Term.Set.empty

(* An application I⟨σ,h⟩J (Def 3.1). *)
let apply ?gen instance t =
  let produced = result ?gen t in
  (List.fold_left (fun i a -> Instance.add a i) instance produced, produced)

let to_string t =
  Printf.sprintf "(%s, %s)"
    (if Tgd.name t.tgd <> "" then Tgd.name t.tgd else Tgd.to_string t.tgd)
    (Substitution.to_string t.hom)

let pp ppf t = Format.pp_print_string ppf (to_string t)
