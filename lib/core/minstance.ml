(* Mutable instances: the chase engines' hot-path backend.

   The persistent [Instance.t] is the right representation for
   derivation snapshots (chase steps share almost all of their atoms),
   but its balanced-tree indexes make the innermost engine loops —
   membership tests and (pred, pos, term) candidate lookups — pay
   O(log n) with poor locality on every probe.  This module keeps the
   same two indexes in hash tables, and bridges back to the persistent
   world with an incrementally maintained snapshot: atoms added since
   the last snapshot are queued, and folding them in on demand means
   each atom enters the persistent structure at most once ever. *)

module AtomTbl = Hashtbl.Make (struct
  type t = Atom.t

  let equal = Atom.equal
  let hash = Atom.hash
end)

(* (pred, pos, term) index keys, hashed with the components' own hash
   functions rather than the generic deep hash. *)
module TpTbl = Hashtbl.Make (struct
  type t = string * int * Term.t

  let equal (p1, k1, t1) (p2, k2, t2) =
    Int.equal k1 k2 && String.equal p1 p2 && Term.equal t1 t2

  let hash (p, k, t) = (((Hashtbl.hash p * 31) + k) * 31) + Term.hash t
end)

type bucket = { mutable atoms : Atom.t list; mutable count : int }

type t = {
  members : unit AtomTbl.t;
  by_pred : (string, bucket) Hashtbl.t;
  by_term : bucket TpTbl.t;
  mutable size : int;
  mutable snap : Instance.t;  (* persistent image of all but [pending] *)
  mutable pending : Atom.t list;  (* added since [snap], newest first *)
}

let create ?(size_hint = 64) () =
  {
    members = AtomTbl.create size_hint;
    by_pred = Hashtbl.create 16;
    by_term = TpTbl.create size_hint;
    size = 0;
    snap = Instance.empty;
    pending = [];
  }

let mem m a = AtomTbl.mem m.members a
let cardinal m = m.size

let bucket_push tbl key a =
  match Hashtbl.find_opt tbl key with
  | Some b ->
      b.atoms <- a :: b.atoms;
      b.count <- b.count + 1
  | None -> Hashtbl.add tbl key { atoms = [ a ]; count = 1 }

let tp_push tbl key a =
  match TpTbl.find_opt tbl key with
  | Some b ->
      b.atoms <- a :: b.atoms;
      b.count <- b.count + 1
  | None -> TpTbl.add tbl key { atoms = [ a ]; count = 1 }

(* Index a new atom (not yet a member). *)
let insert m a =
  AtomTbl.add m.members a ();
  let p = Atom.pred a in
  bucket_push m.by_pred p a;
  for k = 0 to Atom.arity a - 1 do
    tp_push m.by_term (p, k, Atom.arg a k) a
  done;
  m.size <- m.size + 1

let add m a =
  if AtomTbl.mem m.members a then begin
    Obs.incr "minstance.dup";
    false
  end
  else begin
    Obs.incr "minstance.add";
    insert m a;
    m.pending <- a :: m.pending;
    true
  end

(* The atoms of an instance are distinct, so the bulk load skips the
   membership test, and the snapshot is free: it is the source
   instance. *)
let of_instance i =
  let n = Instance.cardinal i in
  let m = create ~size_hint:(max 64 (2 * n)) () in
  Instance.iter (insert m) i;
  Obs.count "minstance.add" n;
  m.snap <- i;
  m

let with_pred m p =
  match Hashtbl.find_opt m.by_pred p with Some b -> b.atoms | None -> []

let pred_count m p =
  match Hashtbl.find_opt m.by_pred p with Some b -> b.count | None -> 0

let with_pos_term m p k t =
  match TpTbl.find_opt m.by_term (p, k, t) with Some b -> b.atoms | None -> []

let pos_term_count m p k t =
  match TpTbl.find_opt m.by_term (p, k, t) with Some b -> b.count | None -> 0

let iter f m = Hashtbl.iter (fun _ b -> List.iter f b.atoms) m.by_pred

let snapshot m =
  match m.pending with
  | [] -> m.snap
  | pending ->
      (* [pending] is newest first; insertion order does not matter for a
         set, so fold directly. *)
      Obs.count "minstance.snapshot.folds" (List.length pending);
      let snap = List.fold_left (fun i a -> Instance.add a i) m.snap pending in
      m.snap <- snap;
      m.pending <- [];
      snap

(* The atoms of [gone] are dropped from the last folded image, and the
   pending atoms are folded in only when they survive: atoms that are
   about to be deleted never enter the persistent structure. *)
let snapshot_without m gone =
  let kept = List.fold_left (fun i a -> Instance.remove a i) m.snap gone in
  match m.pending with
  | [] -> kept
  | pending ->
      let doomed = AtomTbl.create 64 in
      List.iter (fun a -> AtomTbl.replace doomed a ()) gone;
      let survivors = List.filter (fun a -> not (AtomTbl.mem doomed a)) pending in
      if survivors <> [] then Obs.count "minstance.snapshot.folds" (List.length survivors);
      List.fold_left (fun i a -> Instance.add a i) kept survivors
