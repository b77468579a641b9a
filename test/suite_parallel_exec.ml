(* Determinism of the domain-pool execution layer (lib/exec).  The
   contract under test: running on N domains changes wall-clock only —
   a restricted chase produces the *identical* derivation (same triggers
   in the same order, same fresh nulls, same status), the Büchi decider
   explores the same automaton to the same verdict, and the parallel
   chase builds the same rounds.  The domain count comes from CHASE_JOBS
   (default 3), so CI runs this suite both sequential and on 4 domains. *)

open Chase_core
open Chase_engine
module Pool = Chase_exec.Pool

let jobs = Pool.default_jobs ~default:3 ()

(* Small random TGD sets over Tgen's fixed r/2, s/1, t/3 schema. *)
let tgds_gen =
  let open QCheck2.Gen in
  list_size (int_range 1 3) Tgen.tgd_gen

let random_db tgds seed =
  Chase_workload.Db_gen.random ~schema:(Schema.of_tgds tgds) ~atoms:5 ~domain:3 ~seed

let same_derivation d1 d2 =
  Derivation.status d1 = Derivation.status d2
  && List.length (Derivation.steps d1) = List.length (Derivation.steps d2)
  && List.for_all2
       (fun s1 s2 ->
         Trigger.equal s1.Derivation.trigger s2.Derivation.trigger
         && List.equal Atom.equal s1.Derivation.produced s2.Derivation.produced)
       (Derivation.steps d1) (Derivation.steps d2)
  && Instance.equal (Derivation.final d1) (Derivation.final d2)

let strategies = [ Restricted.Fifo; Restricted.Lifo; Restricted.Random 42 ]

(* --- pool mechanics --------------------------------------------------- *)

let test_map_order () =
  Pool.with_pool ~jobs @@ fun pool ->
  let input = Array.init 100 Fun.id in
  let expected = Array.map (fun x -> (3 * x) + 1) input in
  Alcotest.(check (array int)) "map_array keeps order" expected
    (Pool.map_array pool (fun x -> (3 * x) + 1) input);
  Alcotest.(check (array int)) "chunk=1" expected
    (Pool.map_array ~chunk:1 pool (fun x -> (3 * x) + 1) input);
  Alcotest.(check (array int)) "chunk=7" expected
    (Pool.map_array ~chunk:7 pool (fun x -> (3 * x) + 1) input);
  Alcotest.(check (list int)) "map_list keeps order"
    (Array.to_list expected)
    (Pool.map_list pool (fun x -> (3 * x) + 1) (Array.to_list input));
  Alcotest.(check (array int)) "empty input" [||] (Pool.map_array pool Fun.id [||])

let test_inline () =
  let input = Array.init 10 Fun.id in
  Alcotest.(check (array int)) "inline map_array" (Array.map succ input)
    (Pool.map_array Pool.inline succ input);
  Alcotest.(check int) "inline jobs" 1 (Pool.jobs Pool.inline);
  Alcotest.(check bool) "inline not parallel" false (Pool.is_parallel Pool.inline);
  (* jobs:1 never spawns; it behaves exactly like [inline]. *)
  Pool.with_pool ~jobs:1 @@ fun pool ->
  Alcotest.(check bool) "jobs:1 not parallel" false (Pool.is_parallel pool)

let test_pool_shape () =
  Pool.with_pool ~jobs @@ fun pool ->
  Alcotest.(check int) "jobs as requested" jobs (Pool.jobs pool);
  Alcotest.(check bool) "parallel iff jobs>1" (jobs > 1) (Pool.is_parallel pool)

let test_exceptions () =
  (* The first failure re-raises on the coordinator, pool still usable. *)
  Pool.with_pool ~jobs @@ fun pool ->
  let boom i = if i = 37 then failwith "boom" else i in
  (try
     ignore (Pool.map_array pool boom (Array.init 100 Fun.id));
     Alcotest.fail "expected Failure"
   with Failure m -> Alcotest.(check string) "exception propagates" "boom" m);
  Alcotest.(check (array int)) "pool survives a failed job"
    (Array.init 20 succ)
    (Pool.map_array pool succ (Array.init 20 Fun.id))

let test_with_pool_cleanup () =
  (* with_pool shuts the domains down even when the body raises. *)
  (try Pool.with_pool ~jobs (fun _ -> failwith "body") with Failure _ -> ());
  Pool.with_pool ~jobs @@ fun pool ->
  Alcotest.(check int) "fresh pool works" 42 (Pool.map_array pool Fun.id [| 42 |]).(0)

let test_default_jobs () =
  (* The suite itself may run under CHASE_JOBS (CI does); check the
     parse against whatever the environment says. *)
  let expected =
    match Sys.getenv_opt "CHASE_JOBS" with
    | Some s -> ( match int_of_string_opt (String.trim s) with Some n when n >= 1 -> n | _ -> 7)
    | None -> 7
  in
  Alcotest.(check int) "default_jobs" expected (Pool.default_jobs ~default:7 ())

(* --- determinism properties ------------------------------------------- *)

let properties =
  let open QCheck2 in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"parallel restricted chase = sequential (identical derivations)"
         ~count:60
         (Gen.pair tgds_gen (Gen.int_bound 100_000))
         (fun (tgds, seed) ->
           let db = random_db tgds seed in
           Pool.with_pool ~jobs @@ fun pool ->
           List.for_all
             (fun strategy ->
               List.for_all
                 (fun naming ->
                   same_derivation
                     (Restricted.run ~strategy ~naming ~max_steps:60 tgds db)
                     (Restricted.run ~strategy ~naming ~max_steps:60 ~pool tgds db))
                 [ `Fresh; `Canonical ])
             strategies));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"parallel Büchi: same states, transitions and verdict" ~count:25
         (Gen.int_bound 100_000)
         (fun seed ->
           let tgds =
             Chase_workload.Tgd_gen.sticky_set
               { Chase_workload.Tgd_gen.default with Chase_workload.Tgd_gen.seed; tgds = 4 }
           in
           let stats pool = Chase_termination.Sticky_decider.decide_with_stats ~pool tgds in
           let tag (s : Chase_termination.Sticky_decider.stats) =
             match s.Chase_termination.Sticky_decider.decision with
             | Chase_termination.Sticky_decider.All_terminating -> `Empty
             | Chase_termination.Sticky_decider.Non_terminating _ -> `Lasso
             | Chase_termination.Sticky_decider.Inconclusive _ -> `Inconclusive
           in
           let seq = stats Pool.inline in
           Pool.with_pool ~jobs @@ fun pool ->
           let par = stats pool in
           tag par = tag seq
           && par.Chase_termination.Sticky_decider.components
              = seq.Chase_termination.Sticky_decider.components
           && par.Chase_termination.Sticky_decider.explored_states
              = seq.Chase_termination.Sticky_decider.explored_states));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"Parallel.run rounds independent of the pool" ~count:60
         (Gen.pair tgds_gen (Gen.int_bound 100_000))
         (fun (tgds, seed) ->
           let db = random_db tgds seed in
           let seq = Parallel.run ~max_rounds:8 tgds db in
           Pool.with_pool ~jobs @@ fun pool ->
           let par = Parallel.run ~max_rounds:8 ~pool tgds db in
           seq.Parallel.saturated = par.Parallel.saturated
           && Instance.equal seq.Parallel.final par.Parallel.final
           && List.length seq.Parallel.rounds = List.length par.Parallel.rounds
           && List.for_all2
                (fun (r1 : Parallel.round) (r2 : Parallel.round) ->
                  List.equal Trigger.equal r1.Parallel.applied r2.Parallel.applied
                  && Instance.equal r1.Parallel.after r2.Parallel.after)
                seq.Parallel.rounds par.Parallel.rounds));
  ]

(* Instance's (pred, pos, term) index is filled by whichever probe comes
   first; four domains racing to fill it on one shared, never-probed
   instance must all read the same sets. *)
let test_racing_index_fill () =
  let c k = Term.Const (Printf.sprintf "c%d" k) in
  let atoms = List.init 3000 (fun k -> Atom.make "r" [ c (k mod 50); c (k * 7 mod 61) ]) in
  let keys = List.concat_map (fun pos -> List.init 61 (fun k -> (pos, c k))) [ 0; 1 ] in
  let shared = Instance.of_list atoms in
  let go = Atomic.make false in
  let probe () =
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    List.map (fun (pos, t) -> Atom.Set.elements (Instance.with_pred_pos_term shared "r" pos t)) keys
  in
  let workers = List.init 3 (fun _ -> Domain.spawn probe) in
  Atomic.set go true;
  let mine = probe () in
  let theirs = List.map Domain.join workers in
  let expected =
    let all = Instance.with_pred_set (Instance.of_list atoms) "r" in
    List.map
      (fun (pos, t) -> Atom.Set.elements (Atom.Set.filter (fun a -> Term.equal (Atom.arg a pos) t) all))
      keys
  in
  List.iter
    (fun got -> Alcotest.(check bool) "same sets as a filter" true (List.equal (List.equal Atom.equal) expected got))
    (mine :: theirs)

(* [Term_interner.find] is read-only: four domains probing one frozen
   interner, hits and misses interleaved, must all read the ids the
   interning order assigned. *)
let test_racing_interner_find () =
  let t k = if k mod 3 = 0 then Term.Null (string_of_int k) else Term.Const (string_of_int k) in
  let it = Term_interner.create ~size_hint:1 () in
  for k = 0 to 4999 do
    ignore (Term_interner.intern it (t k))
  done;
  (* ids 0..4999 are interned; 5000..5999 are misses *)
  let probes = List.init 6000 (fun k -> ((k * 7919) + 13) mod 6000) in
  let go = Atomic.make false in
  let probe () =
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    List.map (fun k -> Term_interner.find it (t k)) probes
  in
  let workers = List.init 3 (fun _ -> Domain.spawn probe) in
  Atomic.set go true;
  let mine = probe () in
  let theirs = List.map Domain.join workers in
  let expected = List.map (fun k -> if k < 5000 then k else -1) probes in
  List.iter
    (fun got -> Alcotest.(check (list int)) "ids in interning order" expected got)
    (mine :: theirs);
  Alcotest.(check int) "no reader interned" 5000 (Term_interner.cardinal it)

let unit_tests =
  [
    Alcotest.test_case "four domains race find on a frozen interner" `Quick
      test_racing_interner_find;
    Alcotest.test_case "map_array/map_list keep order" `Quick test_map_order;
    Alcotest.test_case "four domains fill one instance index" `Quick test_racing_index_fill;
    Alcotest.test_case "inline and jobs:1 pools" `Quick test_inline;
    Alcotest.test_case "pool shape" `Quick test_pool_shape;
    Alcotest.test_case "exceptions propagate, pool survives" `Quick test_exceptions;
    Alcotest.test_case "with_pool cleans up on raise" `Quick test_with_pool_cleanup;
    Alcotest.test_case "default_jobs reads CHASE_JOBS" `Quick test_default_jobs;
  ]

let suite = [ ("exec-pool", unit_tests); ("exec-determinism", properties) ]
