(* Dense term <-> id interning (see term_interner.mli).  Forward is a
   flat open-addressing table of ids; reverse is a growable array
   indexed by id, so both directions are O(1) and the id space stays
   dense.  Like the columnar store's own tables (DESIGN.md §9) the
   forward table is an unboxed [int array]: no bucket per entry for the
   GC to chase, and a miss needs no second hash before the insert. *)

(* A slot packs a term's hash above its id, so a probe compares hashes
   without leaving the slot table and touches [terms] only on a full
   hash match; growth re-places slots without rehashing any term.
   [Term.hash] is below 2^30 and ids below 2^31, so on 64-bit OCaml a
   packed slot is non-negative and [-1] can mark an empty one. *)
type t = {
  mutable slots : int array;  (* power of two; [hash lsl 31 lor id], or [-1] *)
  mutable terms : Term.t array;  (* reverse lookup; meaningful below [n] *)
  mutable n : int;
}

let id_bits = 31
let id_mask = (1 lsl id_bits) - 1

(* Placeholder for unassigned reverse slots; never returned. *)
let dummy = Term.Const ""

let rec pow2_ge n k = if k >= n then k else pow2_ge n (2 * k)

(* Slots stay at most half full, which keeps linear-probe runs short;
   [size_hint] terms fit without a rehash. *)
let slots_for n = pow2_ge (2 * n) 8

let create ?(size_hint = 64) () =
  let n = max 1 size_hint in
  { slots = Array.make (slots_for n) (-1); terms = Array.make n dummy; n = 0 }

(* The slot holding [term], or the empty slot where it would go. *)
let probe t h term =
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let j = ref (h land mask) in
  while
    let s = slots.(!j) in
    s >= 0 && not (s lsr id_bits = h && Term.equal t.terms.(s land id_mask) term)
  do
    j := (!j + 1) land mask
  done;
  !j

(* Double the slot table, re-placing every slot by its packed hash. *)
let rehash t =
  let old = t.slots in
  let cap = 2 * Array.length old in
  let mask = cap - 1 in
  let slots = Array.make cap (-1) in
  Array.iter
    (fun s ->
      if s >= 0 then begin
        let j = ref ((s lsr id_bits) land mask) in
        while slots.(!j) >= 0 do
          j := (!j + 1) land mask
        done;
        slots.(!j) <- s
      end)
    old;
  t.slots <- slots

(* One hash per call; a new term costs one probe and two array writes
   (plus the amortized doublings).  Allocation-free on the hit path. *)
let intern t term =
  let h = Term.hash term in
  let j = probe t h term in
  let s = t.slots.(j) in
  if s >= 0 then s land id_mask
  else begin
    let id = t.n in
    let cap = Array.length t.terms in
    if id = cap then begin
      let terms = Array.make (2 * cap) dummy in
      Array.blit t.terms 0 terms 0 cap;
      t.terms <- terms
    end;
    t.terms.(id) <- term;
    t.slots.(j) <- (h lsl id_bits) lor id;
    t.n <- id + 1;
    if 2 * t.n > Array.length t.slots then rehash t;
    id
  end

let find t term =
  let s = t.slots.(probe t (Term.hash term) term) in
  if s < 0 then -1 else s land id_mask

let find_opt t term = match find t term with -1 -> None | id -> Some id

let term_of t id =
  if id < 0 || id >= t.n then invalid_arg (Printf.sprintf "Term_interner.term_of: id %d" id);
  t.terms.(id)

let cardinal t = t.n

(* Keep the marked terms under dense ids in their old order, and
   re-place their slots from the packed hashes, as [rehash] does, into a
   table sized for what is left. *)
let compact t live =
  let remap = Array.make t.n (-1) in
  let n = ref 0 in
  for id = 0 to t.n - 1 do
    if Bytes.get live id <> '\000' then begin
      remap.(id) <- !n;
      t.terms.(!n) <- t.terms.(id);
      incr n
    end
  done;
  Array.fill t.terms !n (t.n - !n) dummy;
  let slots = Array.make (slots_for (max 1 !n)) (-1) in
  let mask = Array.length slots - 1 in
  Array.iter
    (fun s ->
      if s >= 0 then begin
        let id = remap.(s land id_mask) in
        if id >= 0 then begin
          let h = s lsr id_bits in
          let j = ref (h land mask) in
          while slots.(!j) >= 0 do
            j := (!j + 1) land mask
          done;
          slots.(!j) <- (h lsl id_bits) lor id
        end
      end)
    t.slots;
  t.slots <- slots;
  t.n <- !n;
  remap
