(* Columnar interned instances (see cinstance.mli for the layout
   rationale).  One [rel] per (predicate, arity): growable int-array
   columns plus per-position posting lists and a row-dedup table, all
   keyed on dense term ids from one shared interner.

   The hot-path tables are flat open-addressing arrays rather than
   stdlib [Hashtbl]s: at 10M rows the per-entry cons cells, posting
   boxes and [find_opt] options dominate both wall time and the GC —
   the whole point of this backend is that the indexes are unboxed int
   arrays the collector never traces into. *)

(* A growable set of row indexes, append-only, insertion order.
   Starts as a singleton: most (position, id) postings in
   high-cardinality columns never grow past one row. *)
type posting = { mutable rows : int array; mutable n : int }

let posting_add p row =
  let cap = Array.length p.rows in
  if p.n = cap then begin
    let rows' = Array.make (max 4 (2 * cap)) 0 in
    Array.blit p.rows 0 rows' 0 p.n;
    p.rows <- rows'
  end;
  p.rows.(p.n) <- row;
  p.n <- p.n + 1

(* Scatter for open addressing: keys are dense ids or [land max_int]
   hashes, both sequential-ish — multiply by a big odd constant so the
   low bits (the slot) depend on all input bits. *)
let mix k = (k * 0x9e3779b1) land max_int

(* Flat open-addressing multimap from non-negative int keys to int
   values; [-1] marks an empty slot.  Append-only, no deletion, and a
   key may occupy several slots (the rowset maps a tuple hash to every
   row with that hash).  Readers probe from [mix key] to the first
   empty slot. *)
module Imap = struct
  type t = { mutable keys : int array; mutable vals : int array; mutable n : int }

  (* [cap] must be a power of two. *)
  let create cap = { keys = Array.make cap (-1); vals = Array.make cap 0; n = 0 }

  let add t k v =
    let cap = Array.length t.keys in
    if 4 * (t.n + 1) > 3 * cap then begin
      let cap' = 2 * cap in
      let mask = cap' - 1 in
      let keys' = Array.make cap' (-1) and vals' = Array.make cap' 0 in
      for i = 0 to cap - 1 do
        let k0 = t.keys.(i) in
        if k0 >= 0 then begin
          let j = ref (mix k0 land mask) in
          while keys'.(!j) >= 0 do
            j := (!j + 1) land mask
          done;
          keys'.(!j) <- k0;
          vals'.(!j) <- t.vals.(i)
        end
      done;
      t.keys <- keys';
      t.vals <- vals'
    end;
    let mask = Array.length t.keys - 1 in
    let j = ref (mix k land mask) in
    while t.keys.(!j) >= 0 do
      j := (!j + 1) land mask
    done;
    t.keys.(!j) <- k;
    t.vals.(!j) <- v;
    t.n <- t.n + 1
end

(* Flat open-addressing map from term ids (unique keys) to postings.
   The values array is boxed but there is exactly one posting per
   distinct (position, id) — no per-row allocation. *)
module Ptbl = struct
  type t = { mutable keys : int array; mutable vals : posting array; mutable n : int }

  (* Shared "absent" result: a live posting always has [n >= 1]. *)
  let absent = { rows = [||]; n = 0 }

  let create cap = { keys = Array.make cap (-1); vals = Array.make cap absent; n = 0 }

  let find t id =
    let keys = t.keys in
    let mask = Array.length keys - 1 in
    let j = ref (mix id land mask) in
    let r = ref absent in
    while !r == absent && keys.(!j) >= 0 do
      if keys.(!j) = id then r := t.vals.(!j) else j := (!j + 1) land mask
    done;
    !r

  let add_row t id row =
    let cap = Array.length t.keys in
    if 4 * (t.n + 1) > 3 * cap then begin
      let cap' = 2 * cap in
      let mask = cap' - 1 in
      let keys' = Array.make cap' (-1) and vals' = Array.make cap' absent in
      for i = 0 to cap - 1 do
        let k0 = t.keys.(i) in
        if k0 >= 0 then begin
          let j = ref (mix k0 land mask) in
          while keys'.(!j) >= 0 do
            j := (!j + 1) land mask
          done;
          keys'.(!j) <- k0;
          vals'.(!j) <- t.vals.(i)
        end
      done;
      t.keys <- keys';
      t.vals <- vals'
    end;
    let keys = t.keys in
    let mask = Array.length keys - 1 in
    let j = ref (mix id land mask) in
    while keys.(!j) >= 0 && keys.(!j) <> id do
      j := (!j + 1) land mask
    done;
    if keys.(!j) = id then posting_add t.vals.(!j) row
    else begin
      keys.(!j) <- id;
      t.vals.(!j) <- { rows = [| row |]; n = 1 };
      t.n <- t.n + 1
    end
end

(* Per-position indexing is split in two tiers.  A bulk load ends by
   counting-sorting each column into [base_perm]: rows [0, base_n) in
   id order, probed by binary search — three sequential-ish array
   passes to build, no hashing, no per-id boxes.  Rows added after the
   bulk load (chase steps) land in the [index] hash tier instead, so a
   posting for [id] is the [base_perm] range holding [id] followed by
   the [Ptbl] posting — both in insertion order. *)
type rel = {
  pred : string;
  arity : int;
  mutable nrows : int;
  mutable cap : int;
  mutable cols : int array array;  (* [arity] arrays of length [cap] *)
  mutable base_n : int;  (* rows covered by [base_perm] *)
  mutable base_perm : int array array;  (* per position: rows [0, base_n) sorted by cell id *)
  mutable index : Ptbl.t array;  (* per position: term id -> rows >= base_n *)
  mutable rowset : Imap.t;  (* id-tuple hash -> candidate rows, for rows [0, hashed) *)
  mutable hashed : int;  (* rows the rowset covers; see [sync_rowset] *)
  scratch : int array;  (* per-add id buffer; mutation is single-domain *)
}

type t = {
  interner : Term_interner.t;
  by_name : (string, rel list) Hashtbl.t;  (* arity variants, oldest first *)
  mutable memo : rel option;  (* last relation touched by [add] *)
  mutable size : int;
  mutable snap : Instance.t option;
      (* persistent image of all but [pending]; [None] after a [remove],
         until [snapshot] rebuilds it from the rows *)
  mutable pending : Atom.t list;  (* added since [snap], newest first *)
  mutable removals : int;  (* [remove] calls that deleted a row *)
}

let create ?(size_hint = 64) () =
  {
    interner = Term_interner.create ~size_hint:(max 16 size_hint) ();
    by_name = Hashtbl.create 16;
    memo = None;
    size = 0;
    snap = Some Instance.empty;
    pending = [];
    removals = 0;
  }

let rec pow2_ge n k = if k >= n then k else pow2_ge n (2 * k)

(* [rows_hint] pre-sizes the columns: a bulk load that knows its row
   count up front never grows a column.  The rowset starts at its
   smallest; [sync_rowset] sizes it when it first has rows to cover. *)
let make_rel ?(rows_hint = 16) pred arity =
  let cap = pow2_ge rows_hint 16 in
  {
    pred;
    arity;
    nrows = 0;
    cap;
    cols = Array.init arity (fun _ -> Array.make cap 0);
    base_n = 0;
    base_perm = [||];
    index = Array.init arity (fun _ -> Ptbl.create 16);
    rowset = Imap.create 2;
    hashed = 0;
    scratch = Array.make (max 1 arity) 0;
  }

(* Counting sort of each column into a base permutation.  Only valid
   right after a bulk load, while the hash tier is still empty. *)
let build_base r =
  r.base_n <- r.nrows;
  r.base_perm <-
    Array.init r.arity (fun i ->
        let col = r.cols.(i) in
        let n = r.nrows in
        let maxid = ref 0 in
        for row = 0 to n - 1 do
          if col.(row) > !maxid then maxid := col.(row)
        done;
        let cnt = Array.make (!maxid + 2) 0 in
        for row = 0 to n - 1 do
          cnt.(col.(row) + 1) <- cnt.(col.(row) + 1) + 1
        done;
        for id = 1 to !maxid + 1 do
          cnt.(id) <- cnt.(id) + cnt.(id - 1)
        done;
        let perm = Array.make n 0 in
        for row = 0 to n - 1 do
          let id = col.(row) in
          perm.(cnt.(id)) <- row;
          cnt.(id) <- cnt.(id) + 1
        done;
        perm)

(* The half-open [base_perm.(pos)] interval of rows whose [pos]-th
   cell is [id] is [base_lo, base_hi) — empty when the base tier does
   not cover [pos].  Two int-returning searches rather than one that
   returns a pair, so a probe allocates nothing. *)
let base_covers r pos = r.base_n > 0 && pos < Array.length r.base_perm

(* First index from [lo] whose cell is [>= id], or [> id] when [past]. *)
let base_search r pos id lo past =
  let perm = r.base_perm.(pos) and col = r.cols.(pos) in
  let lo = ref lo and hi = ref r.base_n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let v = col.(perm.(mid)) in
    if v < id || (past && v = id) then lo := mid + 1 else hi := mid
  done;
  !lo

let base_lo r pos id = if base_covers r pos then base_search r pos id 0 false else 0
let base_hi r pos id lo = if base_covers r pos then base_search r pos id lo true else 0

(* [mem] on a bulk-loaded relation whose rowset is not built yet: scan
   the narrowest base-tier range for a row with cells [ids], and return
   it, or [-1].  Read-only, like every probe of a frozen store. *)
let base_find r ids =
  if r.arity = 0 then if r.nrows > 0 then 0 else -1
  else begin
    let best = ref 0 and lo = ref 0 and hi = ref max_int in
    for pos = 0 to r.arity - 1 do
      let l = base_lo r pos ids.(pos) in
      let h = base_hi r pos ids.(pos) l in
      if h - l < !hi - !lo then begin
        best := pos;
        lo := l;
        hi := h
      end
    done;
    let perm = r.base_perm.(!best) in
    let found = ref (-1) and k = ref !lo in
    while !found < 0 && !k < !hi do
      let row = perm.(!k) in
      let ok = ref true in
      for i = 0 to r.arity - 1 do
        if r.cols.(i).(row) <> ids.(i) then ok := false
      done;
      if !ok then found := row;
      incr k
    done;
    !found
  end

let variants c pred = Option.value (Hashtbl.find_opt c.by_name pred) ~default:[]

let rel_of_slow ?rows_hint c pred arity =
  let vs = variants c pred in
  match List.find_opt (fun r -> r.arity = arity) vs with
  | Some r -> r
  | None ->
      let r = make_rel ?rows_hint pred arity in
      Hashtbl.replace c.by_name pred (vs @ [ r ]);
      r

(* Chase steps add runs of same-predicate atoms, so one memo slot skips
   the string hash on almost every [add]. *)
let rel_of c pred arity =
  match c.memo with
  | Some r when r.arity = arity && String.equal r.pred pred -> r
  | _ ->
      let r = rel_of_slow c pred arity in
      c.memo <- Some r;
      r

(* Hash of the first [arity] cells of [ids] — the row-dedup key. *)
let hash_ids ids arity =
  let h = ref arity in
  for i = 0 to arity - 1 do
    h := ((!h * 65599) + ids.(i)) land max_int
  done;
  !h

(* The rowset is built on the first [add] to a relation, not during the
   bulk load: a relation nothing is ever added to (most of a large
   database) never allocates or fills it.  Hashes rows [hashed, nrows)
   in — all the bulk-loaded rows the first time, none afterwards, since
   [add] keeps [hashed = nrows].  So a relation is in one of two
   states: fully hashed, or bulk-loaded and unhashed ([hashed = 0],
   [nrows = base_n]), where [mem] answers through the base tier.
   Uses [scratch], so call it before filling that with a new row. *)
let sync_rowset r =
  if r.hashed < r.nrows then begin
    let rows = r.nrows - r.hashed in
    if r.hashed = 0 then r.rowset <- Imap.create (2 * r.cap);
    for row = r.hashed to r.nrows - 1 do
      for i = 0 to r.arity - 1 do
        r.scratch.(i) <- r.cols.(i).(row)
      done;
      Imap.add r.rowset (hash_ids r.scratch r.arity) row
    done;
    r.hashed <- r.nrows;
    Obs.incr "cinstance.rowset.build";
    Obs.count "cinstance.rowset.rows" rows
  end

(* The row of [r] in [0, hashed) whose cells equal [ids], or [-1].
   Probes the rowset multimap inline: every slot holding hash [h] names
   a candidate row whose columns are then compared cell by cell. *)
let row_find r h ids =
  let keys = r.rowset.Imap.keys and vals = r.rowset.Imap.vals in
  let mask = Array.length keys - 1 in
  let j = ref (mix h land mask) in
  let found = ref (-1) in
  while !found < 0 && keys.(!j) >= 0 do
    (if keys.(!j) = h then begin
       let row = vals.(!j) in
       let ok = ref true in
       for i = 0 to r.arity - 1 do
         if r.cols.(i).(row) <> ids.(i) then ok := false
       done;
       if !ok then found := row
     end);
    j := (!j + 1) land mask
  done;
  !found

let grow r =
  let cap' = 2 * r.cap in
  r.cols <-
    Array.map
      (fun col ->
        let col' = Array.make cap' 0 in
        Array.blit col 0 col' 0 r.nrows;
        col')
      r.cols;
  r.cap <- cap'

let add c atom =
  let pred = Atom.pred atom and arity = Atom.arity atom in
  let r = rel_of c pred arity in
  sync_rowset r;
  let ids = r.scratch in
  for i = 0 to arity - 1 do
    ids.(i) <- Term_interner.intern c.interner (Atom.arg atom i)
  done;
  let h = hash_ids ids arity in
  if row_find r h ids >= 0 then begin
    Obs.incr "cinstance.dup";
    false
  end
  else begin
    Obs.incr "cinstance.add";
    if r.nrows = r.cap then grow r;
    let row = r.nrows in
    for i = 0 to arity - 1 do
      r.cols.(i).(row) <- ids.(i);
      Ptbl.add_row r.index.(i) ids.(i) row
    done;
    Imap.add r.rowset h row;
    r.nrows <- row + 1;
    r.hashed <- row + 1;
    c.size <- c.size + 1;
    if Option.is_some c.snap then c.pending <- atom :: c.pending;
    true
  end

(* The bulk load writes interned cells straight into the pre-sized
   columns: the source is a persistent set, so there is nothing to
   dedup (the rowset waits for the first [add]); per-position indexing
   is the [build_base] counting sort that follows; and the source
   instance itself becomes the snapshot, so nothing is consed onto
   [pending]. *)
let of_instance i =
  let c = create ~size_hint:(max 64 (Instance.cardinal i)) () in
  (* sizing pass: count rows per (predicate, arity) so every relation's
     columns are born at final capacity — the bulk load below then
     never copies a column (the per-position posting tables of later
     adds, and the rowset, are sized when they are first used). *)
  let counts : (string * int, int ref) Hashtbl.t = Hashtbl.create 16 in
  (* [Instance.iter] visits atoms in [Atom.compare] order, so each
     (pred, arity) arrives as one contiguous run and the memo makes
     the counting pass hash-free for all but the first atom of each *)
  let memo = ref ("", -1, ref 0) in
  Instance.iter
    (fun a ->
      let pred = Atom.pred a and arity = Atom.arity a in
      let mp, ma, mc = !memo in
      if ma = arity && String.equal mp pred then incr mc
      else begin
        let cell =
          match Hashtbl.find_opt counts (pred, arity) with
          | Some r -> r
          | None ->
              let r = ref 0 in
              Hashtbl.add counts (pred, arity) r;
              r
        in
        incr cell;
        memo := (pred, arity, cell)
      end)
    i;
  Hashtbl.iter (fun (pred, arity) n -> ignore (rel_of_slow ~rows_hint:!n c pred arity)) counts;
  Instance.iter
    (fun a ->
      let r = rel_of c (Atom.pred a) (Atom.arity a) in
      let row = r.nrows in
      for k = 0 to r.arity - 1 do
        r.cols.(k).(row) <- Term_interner.intern c.interner (Atom.arg a k)
      done;
      r.nrows <- row + 1)
    i;
  Hashtbl.iter
    (fun _ rs ->
      List.iter
        (fun r ->
          build_base r;
          Obs.count "cinstance.add" r.nrows)
        rs)
    c.by_name;
  c.size <- Instance.cardinal i;
  (* the snapshot is free when it starts from the source instance *)
  c.snap <- Some i;
  c.pending <- [];
  c

let find_id c term = Term_interner.find c.interner term
let term_of_id c id = Term_interner.term_of c.interner id
let interner c = c.interner

let rel_lookup c pred arity = List.find_opt (fun r -> r.arity = arity) (variants c pred)

(* The row of [r] holding [atom], or [-1].  Read-only. *)
let row_of c r atom =
  let arity = r.arity in
  let ids = Array.make (max 1 arity) 0 in
  let known = ref true in
  for i = 0 to arity - 1 do
    let id = Term_interner.find c.interner (Atom.arg atom i) in
    if id < 0 then known := false else ids.(i) <- id
  done;
  if not !known then -1
  else if r.hashed = r.nrows then row_find r (hash_ids ids arity) ids
  else base_find r ids

let mem c atom =
  match rel_lookup c (Atom.pred atom) (Atom.arity atom) with
  | None -> false
  | Some r -> row_of c r atom >= 0

let cardinal c = c.size

let atom_of_rel_row c r row =
  Atom.make_a r.pred (Array.init r.arity (fun i -> Term_interner.term_of c.interner r.cols.(i).(row)))

let with_pred c pred =
  List.concat_map
    (fun r -> List.init r.nrows (fun j -> atom_of_rel_row c r (r.nrows - 1 - j)))
    (variants c pred)

let pred_count c pred = List.fold_left (fun acc r -> acc + r.nrows) 0 (variants c pred)

(* Rows whose [pos]-th cell is [id], insertion order: the base range
   first (bulk-loaded rows, ascending row number), then the hash-tier
   posting (later adds, also ascending). *)
let iter_posting_rows r pos id f =
  if pos >= 0 && pos < r.arity && id >= 0 then begin
    let lo = base_lo r pos id in
    let hi = base_hi r pos id lo in
    for k = lo to hi - 1 do
      f r.base_perm.(pos).(k)
    done;
    let p = Ptbl.find r.index.(pos) id in
    for j = 0 to p.n - 1 do
      f p.rows.(j)
    done
  end

let posting_rows_count r pos id =
  if pos < 0 || pos >= r.arity || id < 0 then 0
  else
    let lo = base_lo r pos id in
    base_hi r pos id lo - lo + (Ptbl.find r.index.(pos) id).n

let with_pos_term c pred pos term =
  let id = find_id c term in
  List.concat_map
    (fun r ->
      (* prepending while walking insertion order yields newest first *)
      let acc = ref [] in
      iter_posting_rows r pos id (fun row -> acc := atom_of_rel_row c r row :: !acc);
      !acc)
    (variants c pred)

let pos_term_count c pred pos term =
  let id = find_id c term in
  List.fold_left (fun acc r -> acc + posting_rows_count r pos id) 0 (variants c pred)

let iter f c =
  Hashtbl.iter
    (fun _ rs ->
      List.iter
        (fun r ->
          for row = 0 to r.nrows - 1 do
            f (atom_of_rel_row c r row)
          done)
        rs)
    c.by_name

(* The atoms added since the last snapshot go in as one bulk-built
   instance ([Instance.of_list]: a bucket and a sort) and one set union
   per predicate they touch, not one persistent [add] per atom. *)
let snapshot c =
  Obs.span "cinstance.snapshot" @@ fun () ->
  let snap =
    match (c.snap, c.pending) with
    | Some snap, [] -> snap
    | Some snap, pending ->
        Obs.count "cinstance.snapshot.folds" (List.length pending);
        Instance.union snap (Instance.of_list pending)
    | None, _ ->
        Obs.count "cinstance.snapshot.folds" c.size;
        let atoms = ref [] in
        iter (fun a -> atoms := a :: !atoms) c;
        Instance.of_list !atoms
  in
  c.snap <- Some snap;
  c.pending <- [];
  snap

(* Back to the state a bulk load leaves: every row in the base tier,
   no hash-tier postings, no rowset (the next [add] hashes the rows). *)
let rebuild_tiers r =
  build_base r;
  r.index <- Array.init r.arity (fun _ -> Ptbl.create 16);
  r.rowset <- Imap.create 2;
  r.hashed <- 0

(* Compact the interner to the terms the rows still use, renumbering
   every cell.  The renaming keeps id order, so a base tier over
   renamed cells stays sorted; the hash tier and the rowset are keyed
   by old ids, so a relation holding either is rebuilt.  Returns the
   renaming. *)
let compact_terms c =
  let n = Term_interner.cardinal c.interner in
  let live = Bytes.make n '\000' in
  let rels = Hashtbl.fold (fun _ rs acc -> rs @ acc) c.by_name [] in
  List.iter
    (fun r ->
      Array.iter
        (fun col ->
          for row = 0 to r.nrows - 1 do
            Bytes.unsafe_set live col.(row) '\001'
          done)
        r.cols)
    rels;
  let dead = ref 0 in
  Bytes.iter (fun b -> if b = '\000' then incr dead) live;
  if !dead = 0 then Fun.id
  else begin
    Obs.count "cinstance.compact.terms" !dead;
    let remap = Term_interner.compact c.interner live in
    List.iter
      (fun r ->
        let changed = ref false in
        Array.iter
          (fun col ->
            for row = 0 to r.nrows - 1 do
              let id = remap.(col.(row)) in
              if id <> col.(row) then begin
                col.(row) <- id;
                changed := true
              end
            done)
          r.cols;
        if !changed && (r.base_n < r.nrows || r.hashed > 0) then rebuild_tiers r)
      rels;
    Array.get remap
  end

let remove c atoms =
  (* the rows to delete, marked per relation *)
  let doomed = ref [] in
  List.iter
    (fun a ->
      match rel_lookup c (Atom.pred a) (Atom.arity a) with
      | None -> ()
      | Some r ->
          let row = row_of c r a in
          if row >= 0 then begin
            let marks =
              match List.assq_opt r !doomed with
              | Some m -> m
              | None ->
                  let m = Bytes.make r.nrows '\000' in
                  doomed := (r, m) :: !doomed;
                  m
            in
            Bytes.set marks row '\001'
          end)
    atoms;
  if List.is_empty !doomed then Fun.id
  else begin
    (* slide the surviving rows down, keeping their order *)
    let removed = ref 0 in
    List.iter
      (fun (r, marks) ->
        let w = ref 0 in
        for row = 0 to r.nrows - 1 do
          if Bytes.get marks row = '\000' then begin
            if !w < row then Array.iter (fun col -> col.(!w) <- col.(row)) r.cols;
            incr w
          end
        done;
        removed := !removed + (r.nrows - !w);
        r.nrows <- !w;
        if !w > 0 then rebuild_tiers r
        else
          match List.filter (fun r' -> r' != r) (variants c r.pred) with
          | [] -> Hashtbl.remove c.by_name r.pred
          | rs -> Hashtbl.replace c.by_name r.pred rs)
      !doomed;
    Obs.count "cinstance.compact.rows" !removed;
    c.size <- c.size - !removed;
    c.removals <- c.removals + 1;
    c.memo <- None;
    c.snap <- None;
    c.pending <- [];
    compact_terms c
  end

module Rel = struct
  type nonrec t = rel

  let arity r = r.arity
  let rows r = r.nrows
  let cols r = r.cols

  let iter_posting r pos id f = iter_posting_rows r pos id f
  let posting_count r pos id = posting_rows_count r pos id
end

let rel c pred arity = rel_lookup c pred arity
let removals c = c.removals
let atom_of_row c r row = atom_of_rel_row c r row
