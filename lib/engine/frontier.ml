(* The one store-backed restricted chase loop, and the pool, scan and
   run state it works on (see frontier.mli for the budget rule). *)

open Chase_core
module Exec = Chase_exec.Pool

type strategy = Fifo | Lifo | Random of int

let strategy_name = function Fifo -> "fifo" | Lifo -> "lifo" | Random _ -> "random"

(* A pool of pending candidates with the three policies, backed by one
   growable array: Fifo reads at a front cursor, Lifo pops the end,
   Random swap-removes — all O(1) per operation.  Dedup is a hashed set,
   so a push costs one hash instead of log-many compares.  Generic over
   the element: the store loop pools {!Candidate} keys, whose hash
   reads a few ints, the naive oracle pools [Trigger.t]s. *)
module Pool (E : Hashtbl.HashedType) = struct
  module Seen = Hashtbl.Make (E)

  type t = {
    mutable arr : E.t array;
    mutable len : int;  (* one past the last live element *)
    mutable front : int;  (* Fifo read cursor; 0 for Lifo/Random *)
    seen : unit Seen.t;
    strategy : strategy;
    rng : Random.State.t option;
  }

  let create strategy =
    let rng = match strategy with Random seed -> Some (Random.State.make [| seed |]) | _ -> None in
    { arr = [||]; len = 0; front = 0; seen = Seen.create 256; strategy; rng }

  let size pool = pool.len - pool.front

  let iter pool f =
    for i = pool.front to pool.len - 1 do
      f pool.arr.(i)
    done

  (* [replace] hashes [x] once and grows the set only when [x] is new,
     so the size tells a push from a duplicate without a second hash. *)
  let push pool x =
    let before = Seen.length pool.seen in
    Seen.replace pool.seen x ();
    if Seen.length pool.seen = before then Obs.incr "restricted.pool.dup"
    else begin
      Obs.incr "restricted.pool.push";
      let cap = Array.length pool.arr in
      if pool.len = cap then begin
        (* grow, seeding the new array with [x] so no dummy is needed *)
        let arr' = Array.make (max 8 (2 * cap)) x in
        Array.blit pool.arr 0 arr' 0 pool.len;
        pool.arr <- arr'
      end;
      pool.arr.(pool.len) <- x;
      pool.len <- pool.len + 1
    end

  let push_batch pool xs = List.iter (push pool) xs

  let pop pool =
    match pool.strategy with
    | Fifo ->
        if pool.front >= pool.len then None
        else begin
          let x = pool.arr.(pool.front) in
          pool.front <- pool.front + 1;
          Some x
        end
    | Lifo ->
        if pool.len = 0 then None
        else begin
          pool.len <- pool.len - 1;
          Some pool.arr.(pool.len)
        end
    | Random _ ->
        if pool.len = 0 then None
        else begin
          let rng = Option.get pool.rng in
          let k = Random.State.int rng pool.len in
          let x = pool.arr.(k) in
          pool.len <- pool.len - 1;
          pool.arr.(k) <- pool.arr.(pool.len);
          Some x
        end

  (* The next [k] pops in pop order, without consuming anything — the
     speculative window of the parallel activity scan.  Fifo/Lifo just
     read the array; Random copies the RNG and simulates its
     swap-removes in an overlay table, so replaying the real pops
     afterwards consumes the exact same elements and RNG draws. *)
  let peek_order pool k =
    let k = min k (size pool) in
    match pool.strategy with
    | Fifo -> Array.init k (fun i -> pool.arr.(pool.front + i))
    | Lifo -> Array.init k (fun i -> pool.arr.(pool.len - 1 - i))
    | Random _ ->
        let rng = Random.State.copy (Option.get pool.rng) in
        let overlay = Hashtbl.create 16 in
        let get i =
          match Hashtbl.find_opt overlay i with Some x -> x | None -> pool.arr.(i)
        in
        let len = ref pool.len in
        Array.init k (fun _ ->
            let j = Random.State.int rng !len in
            let x = get j in
            decr len;
            Hashtbl.replace overlay j (get !len);
            x)

  (* The budget rule: whether some pending element is active, tested
     in storage order up to the first active one (each test counted as
     [restricted.drain]); nothing is consumed. *)
  let exists_active pool is_active =
    let rec go i =
      i < pool.len
      && begin
           Obs.incr "restricted.drain";
           is_active pool.arr.(i) || go (i + 1)
         end
    in
    go pool.front
end

module Cand_pool = Pool (Candidate)

(* [make_next_active ~epool ~run ~memo pool]: repeated calls pop
   candidates until the first active one (None = pool drained).
   Sequentially that is one pop + memoized activity test per
   iteration.  With a parallel [epool], a speculative window of the
   upcoming pops ([Pool.peek_order]) is tested at once against the
   frozen instance and the first active one {e in pop order} wins; the
   window's real pops are then replayed so the pool and RNG state match
   the sequential engine exactly.  The speculative verdicts are final —
   activity is monotone downwards and the instance does not grow during
   a scan — so the pop sequence is bit-identical to sequential, and
   verdicts beyond the winner are folded into the head memo rather than
   wasted.  The widening window is per-closure state: one scanner per
   [chase] call. *)
let make_next_active ~epool ~run ~memo pool =
  let rec next_active_seq () =
    match Cand_pool.pop pool with
    | None -> None
    | Some c ->
        if Candidate.is_active run memo c then Some c
        else begin
          Obs.incr "restricted.inactive";
          next_active_seq ()
        end
  in
  if not (Exec.is_parallel epool) then next_active_seq
  else begin
    let base_window = 2 * Exec.jobs epool in
    let window = ref base_window in
    let rec go () =
      if Cand_pool.size pool = 0 then None
      else begin
        let cands = Cand_pool.peek_order pool !window in
        let k = Array.length cands in
        let active = Array.make k false in
        (* coordinator-side memo pass: only unknown candidates fan out *)
        let unknown =
          List.init k Fun.id
          |> List.filter (fun i ->
                 let c = cands.(i) in
                 not (Plan.Head_memo.known_inactive memo (Candidate.plan run c) c))
          |> Array.of_list
        in
        let satisfied =
          Exec.map_array epool (fun i -> Candidate.head_satisfied run cands.(i)) unknown
        in
        Array.iteri
          (fun j i ->
            if satisfied.(j) then
              let c = cands.(i) in
              Plan.Head_memo.record memo (Candidate.plan run c) c
            else active.(i) <- true)
          unknown;
        let rec first i = if i < k && not active.(i) then first (i + 1) else i in
        let first = first 0 in
        if first = k then begin
          (* whole window inactive: consume it, widen, rescan *)
          for _ = 1 to k do
            ignore (Cand_pool.pop pool);
            Obs.incr "restricted.inactive"
          done;
          window := min 4096 (2 * !window);
          go ()
        end
        else begin
          for _ = 1 to first do
            ignore (Cand_pool.pop pool);
            Obs.incr "restricted.inactive"
          done;
          window := base_window;
          Cand_pool.pop pool
        end
      end
    in
    go
  end

let load ?(plan = Plan.of_tgd) tgds database =
  let facts = (Store.of_instance `Columnar database).facts in
  (facts, Candidate.create (Plan.csource facts) (List.map (fun tgd -> (tgd, plan tgd)) tgds))

type t = {
  facts : Cinstance.t;
  run : Candidate.run;  (* the ranked plans over [facts] *)
  strategy : strategy;
  mutable memo : Plan.Head_memo.t;
  mutable pool : Cand_pool.t;
}

let create ?plan ~strategy tgds database =
  let facts, run = load ?plan tgds database in
  let pool = Cand_pool.create strategy in
  (* the cold start: every trigger on the database *)
  Cand_pool.push_batch pool (Candidate.seed run);
  { facts; run; strategy; memo = Plan.Head_memo.create (); pool }

let facts t = t.facts
let run t = t.run
let pending t = Cand_pool.size t.pool
let discover t atom = Cand_pool.push_batch t.pool (Candidate.delta t.run atom)

(* The kept candidates are re-keyed across the id renumbering the
   removal does (a surviving body keeps its terms interned) into a
   fresh pool: the old pool's dedup set remembers every candidate it
   ever saw, and would drop the ones a later assert rediscovers. *)
let remove t ~keep deleted =
  let kept = ref [] in
  Cand_pool.iter t.pool (fun c -> if keep c then kept := c :: !kept);
  let rename = Cinstance.remove t.facts deleted in
  t.memo <- Plan.Head_memo.create ();
  t.pool <- Cand_pool.create t.strategy;
  let kept = List.map (Candidate.rename rename) !kept in
  Cand_pool.push_batch t.pool (List.sort (Candidate.compare t.run) kept);
  let kept = Cand_pool.size t.pool in
  List.iter (fun atom -> Cand_pool.push_batch t.pool (Candidate.witness t.run atom)) deleted;
  Cand_pool.size t.pool - kept

(* Pop the next active candidate, add its whole result to the store,
   then discover the triggers of every produced atom in produced order
   (a re-produced atom too: its batch is where the naive engine finds
   its joins with the step's new atoms), and hand the step to
   [record]. *)
let chase ?(epool = Exec.inline) ?gen ?(limit = fun _ -> None) ~max_steps ~budget ~record t =
  let next_active = make_next_active ~epool ~run:t.run ~memo:t.memo t.pool in
  let rec go n =
    if n >= max_steps then
      let active = Cand_pool.exists_active t.pool (Candidate.is_active t.run t.memo) in
      (n, if active then Some budget else None)
    else
      match limit n with
      | Some _ as stop -> (n, stop)
      | None -> (
          match next_active () with
          | None -> (n, None)
          | Some c ->
              let produced, frontier = Candidate.instantiate ?gen t.run c in
              let added = List.filter (Cinstance.add t.facts) produced in
              List.iter (discover t) produced;
              record n c ~produced ~added frontier;
              go (n + 1))
  in
  go 0
