(* Instances (paper §2): possibly infinite sets of atoms over constants and
   nulls.  This implementation is a finite, persistent, per-predicate-indexed
   set: chase derivations snapshot instances at every step, so persistence
   is what we want.  The (predicate, position, term) index is built only
   where something probes it.  A database is an instance containing facts
   only. *)

module SMap = Map.Make (String)

(* The secondary index is split into slices, one per (predicate,
   position), each mapping a term to the atoms holding it there. *)
module Slot = struct
  type t = string * int

  let compare (p1, k1) (p2, k2) =
    let c = String.compare p1 p2 in
    if c <> 0 then c else Int.compare k1 k2
end

module SlotMap = Map.Make (Slot)

type slice = Atom.Set.t Term.Map.t

(* [by_term] is a cache of slices, each built by the first
   [with_pred_pos_term] probe of its slot (DESIGN.md §6).  [add] and
   [remove] maintain the slices a parent already has, so a chain of
   instances that nothing probes never pays for an index.  The fill is a
   plain racy write, not a [Lazy.t]: two domains forcing one lazy value
   at once raise [Lazy.Undefined].  Every map ever stored holds correct
   slices, so a racing domain at worst loses another's slice, which the
   next probe of that slot rebuilds. *)
type t = { by_pred : Atom.Set.t SMap.t; mutable by_term : slice SlotMap.t; size : int }

let empty = { by_pred = SMap.empty; by_term = SlotMap.empty; size = 0 }

let is_empty i = i.size = 0
let cardinal i = i.size

let mem a i =
  match SMap.find_opt (Atom.pred a) i.by_pred with
  | None -> false
  | Some s -> Atom.Set.mem a s

(* Apply [f] to the set of [a]'s term in every slice of [a]'s predicate
   that [m] holds. *)
let update_slices f a m =
  if SlotMap.is_empty m then m
  else
    let p = Atom.pred a in
    let m = ref m in
    for k = 0 to Atom.arity a - 1 do
      match SlotMap.find_opt (p, k) !m with
      | None -> ()
      | Some slice -> m := SlotMap.add (p, k) (Term.Map.update (Atom.arg a k) f slice) !m
    done;
    !m

let add a i =
  let p = Atom.pred a in
  let s = match SMap.find_opt p i.by_pred with None -> Atom.Set.empty | Some s -> s in
  if Atom.Set.mem a s then i
  else
    let by_term =
      update_slices
        (fun s -> Some (Atom.Set.add a (Option.value ~default:Atom.Set.empty s)))
        a i.by_term
    in
    { by_pred = SMap.add p (Atom.Set.add a s) i.by_pred; by_term; size = i.size + 1 }

let remove a i =
  let p = Atom.pred a in
  match SMap.find_opt p i.by_pred with
  | None -> i
  | Some s ->
      if not (Atom.Set.mem a s) then i
      else
        let s' = Atom.Set.remove a s in
        let by_pred = if Atom.Set.is_empty s' then SMap.remove p i.by_pred else SMap.add p s' i.by_pred in
        let by_term =
          update_slices
            (function
              | None -> None
              | Some set ->
                  let set' = Atom.Set.remove a set in
                  if Atom.Set.is_empty set' then None else Some set')
            a i.by_term
        in
        { by_pred; by_term; size = i.size - 1 }

let singleton a = add a empty

(* Bulk construction: bucket the atoms by predicate, then sort and dedup
   each bucket into its set in one go ([Atom.Set.of_list]) instead of one
   persistent [add] per atom. *)
let of_list atoms =
  let by_pred =
    List.fold_left
      (fun m a -> SMap.update (Atom.pred a) (fun l -> Some (a :: Option.value ~default:[] l)) m)
      SMap.empty atoms
    |> SMap.map Atom.Set.of_list
  in
  { by_pred; by_term = SlotMap.empty; size = SMap.fold (fun _ s n -> n + Atom.Set.cardinal s) by_pred 0 }

let of_seq atoms = of_list (List.of_seq atoms)

let fold f i acc = SMap.fold (fun _ s acc -> Atom.Set.fold f s acc) i.by_pred acc
let iter f i = SMap.iter (fun _ s -> Atom.Set.iter f s) i.by_pred
let for_all f i = SMap.for_all (fun _ s -> Atom.Set.for_all f s) i.by_pred
let exists f i = SMap.exists (fun _ s -> Atom.Set.exists f s) i.by_pred
let filter f i =
  fold (fun a acc -> if f a then add a acc else acc) i empty

let to_list i = List.rev (fold (fun a acc -> a :: acc) i [])

let to_set i =
  SMap.fold (fun _ s acc -> Atom.Set.union s acc) i.by_pred Atom.Set.empty

let union a b =
  if a.size >= b.size then fold add b a else fold add a b

let diff a b = fold remove b a

let inter a b = filter (fun atom -> mem atom b) a

let subset a b = for_all (fun atom -> mem atom b) a

let equal a b = a.size = b.size && subset a b

(* Atoms with the given predicate, cheap via the index. *)
let with_pred i p =
  match SMap.find_opt p i.by_pred with None -> [] | Some s -> Atom.Set.elements s

let with_pred_set i p =
  match SMap.find_opt p i.by_pred with None -> Atom.Set.empty | Some s -> s

let pred_count i p = Atom.Set.cardinal (with_pred_set i p)

(* One slice in one pass: sort the predicate's atoms by the term at [k]
   and build one set per run of equal terms. *)
let build_slice atoms k =
  let keyed =
    Atom.Set.fold
      (fun a acc -> if Atom.arity a > k then (Atom.arg a k, a) :: acc else acc)
      atoms []
    |> List.sort (fun (t, _) (t', _) -> Term.compare t t')
  in
  let close t run slice = Term.Map.add t (Atom.Set.of_list run) slice in
  let rec runs t run slice = function
    | [] -> close t run slice
    | (t', a) :: rest ->
        if Term.equal t t' then runs t (a :: run) slice rest
        else runs t' [ a ] (close t run slice) rest
  in
  match keyed with [] -> Term.Map.empty | (t, a) :: rest -> runs t [ a ] Term.Map.empty rest

(* Atoms with the given term at the given (0-based) position — the
   secondary index behind the homomorphism search's candidate pruning. *)
let with_pred_pos_term i p k t =
  if i.size = 0 then Atom.Set.empty (* never cache on the shared [empty] *)
  else
    let slice =
      match SlotMap.find_opt (p, k) i.by_term with
      | Some slice -> slice
      | None ->
          let atoms = with_pred_set i p in
          let slice = build_slice atoms k in
          Obs.incr "instance.index.build";
          Obs.count "instance.index.atoms" (Atom.Set.cardinal atoms);
          i.by_term <- SlotMap.add (p, k) slice i.by_term;
          slice
    in
    match Term.Map.find_opt t slice with None -> Atom.Set.empty | Some s -> s

let preds i = SMap.fold (fun p _ acc -> p :: acc) i.by_pred [] |> List.rev

(* Active domain dom(I): all terms occurring in I. *)
let active_domain i =
  fold (fun a acc -> Term.Set.union (Atom.term_set a) acc) i Term.Set.empty

let constants i = Term.Set.filter Term.is_const (active_domain i)
let nulls i = Term.Set.filter Term.is_null (active_domain i)

(* A database is a finite set of facts (constants only). *)
let is_database i = for_all Atom.is_fact i

let map f i = fold (fun a acc -> add (f a) acc) i empty

let to_string i =
  let atoms = to_list i in
  "{" ^ String.concat ", " (List.map Atom.to_string atoms) ^ "}"

let pp ppf i =
  Format.fprintf ppf "@[<hov 1>{%a}@]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") Atom.pp)
    (to_list i)
