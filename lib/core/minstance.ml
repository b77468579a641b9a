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
  mutable snap : Instance.t option;
      (* persistent image of all but [pending]; [None] after a [remove],
         until [snapshot] rebuilds it *)
  mutable pending : Atom.t list;  (* added since [snap], newest first *)
}

let create ?(size_hint = 64) () =
  {
    members = AtomTbl.create size_hint;
    by_pred = Hashtbl.create 16;
    by_term = TpTbl.create size_hint;
    size = 0;
    snap = Some Instance.empty;
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
    if Option.is_some m.snap then m.pending <- a :: m.pending;
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
  m.snap <- Some i;
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
  match (m.snap, m.pending) with
  | Some snap, [] -> snap
  | Some snap, pending ->
      (* [pending] is newest first; insertion order does not matter for a
         set, so fold directly. *)
      Obs.count "minstance.snapshot.folds" (List.length pending);
      let snap = List.fold_left (fun i a -> Instance.add a i) snap pending in
      m.snap <- Some snap;
      m.pending <- [];
      snap
  | None, _ ->
      Obs.count "minstance.snapshot.folds" m.size;
      let snap = ref Instance.empty in
      iter (fun a -> snap := Instance.add a !snap) m;
      m.snap <- Some !snap;
      !snap

(* Unlink the members first, then filter each touched bucket once by
   membership, so removing k atoms from one bucket is one pass over it,
   not k.  Buckets keep their newest-first order; emptied ones go. *)
let remove m atoms =
  let preds = Hashtbl.create 8 and keys = TpTbl.create 16 in
  List.iter
    (fun a ->
      if AtomTbl.mem m.members a then begin
        AtomTbl.remove m.members a;
        m.size <- m.size - 1;
        Obs.incr "minstance.remove";
        let p = Atom.pred a in
        Hashtbl.replace preds p ();
        for k = 0 to Atom.arity a - 1 do
          TpTbl.replace keys (p, k, Atom.arg a k) ()
        done
      end)
    atoms;
  if Hashtbl.length preds > 0 then begin
    let live b =
      b.atoms <- List.filter (AtomTbl.mem m.members) b.atoms;
      b.count <- List.length b.atoms;
      b.count > 0
    in
    Hashtbl.iter
      (fun p () -> if not (live (Hashtbl.find m.by_pred p)) then Hashtbl.remove m.by_pred p)
      preds;
    TpTbl.iter
      (fun key () -> if not (live (TpTbl.find m.by_term key)) then TpTbl.remove m.by_term key)
      keys;
    m.snap <- None;
    m.pending <- []
  end
