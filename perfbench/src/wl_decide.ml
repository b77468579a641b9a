(* The [decide] workload: TGD text -> [Parser.parse_tgds] ->
   [Decider.decide] (fixed dispatch, the [chasectl decide] and serve
   default), over sets drawn from the [Chase_check.Gen] profiles linear,
   guarded, sticky and wa without constants, plus the single-head
   scenario gallery for ground truth.

   Latency is bimodal: most sets are answered in well under a
   millisecond, while a guarded set whose divergence search finds a
   diverging database (Non_terminating) takes tens of milliseconds.  The
   corpus therefore fixes how many sets of each kind it holds, by the
   answer the set-up's reference run gives, so that p50 falls inside the
   fast band and p90 in the middle of the slow one.  The corpus is kept
   small, so that a pass over it takes about a third of a second and every
   set is decided some 60 times in a 20 s run: the host's fast spells then
   reach every set, and the least latency per set repeats across runs.
   The corpus is drawn the same way on every seed; the seed renames its
   predicates. *)

open Chase_core
open Chase_termination
open Harness

type kind = Fast | Slow_nonterminating | Unknown_answer

type item = {
  kind : kind;
  text : string;
  mutable expect : Decider.answer;
  cert_ok : bool;  (* sticky Non_terminating certificates pass the check *)
}

let answer_of_truth = function
  | Chase_workload.Scenarios.All_terminating -> Decider.Terminating
  | Chase_workload.Scenarios.Diverging -> Decider.Non_terminating

let text_of tgds = String.concat "\n" (List.map Chase_parser.Printer.print_tgd tgds)

(* [Decider.decide] sends a set to the sticky procedure when this holds. *)
let goes_sticky (r : Chase_classes.Classification.report) tgds =
  Tgd.constant_free_set tgds && r.single_head && r.sticky

let goes_guarded (r : Chase_classes.Classification.report) tgds =
  Tgd.constant_free_set tgds && r.single_head && r.guarded && not r.sticky

let cert_checks tgds (rep : Decider.report) =
  match rep.method_used, rep.answer with
  | Decider.Sticky_buchi, Decider.Non_terminating -> (
      match Sticky_decider.decide tgds with
      | Sticky_decider.Non_terminating cert ->
          Result.is_ok (Sticky_decider.check_certificate tgds cert)
      | _ -> false)
  | _ -> true

let kind_of (rep : Decider.report) =
  match rep.method_used, rep.answer with
  | Decider.Guarded_search, Decider.Non_terminating -> Slow_nonterminating
  | Decider.Guarded_search, Decider.Unknown -> Unknown_answer
  | _ -> Fast

let profiles =
  Chase_check.Profile.
    [
      { klass = Linear; constants = false };
      { klass = Guarded; constants = false };
      { klass = Sticky; constants = false };
      { klass = Weakly_acyclic; constants = false };
    ]

(* Generated sets wanted per kind (the gallery adds 16 fast and 2 slow
   Non_terminating sets).  Unknown answers come back fast, so the slow
   band is the 13 Non_terminating guarded searches, ranks 47-59 of the 60
   sets, and p90 (rank 53.1) falls in its middle. *)
let quotas = function Tiny -> (4, 1, 0) | Full -> (28, 11, 3)

let max_candidates = 40_000

let decide ~seed ~size =
  let st = Random.State.make [| 0xdec |] in
  let tag = tag_of_seed seed in
  let gallery =
    List.filter Chase_workload.Scenarios.single_head Chase_workload.Scenarios.all
    |> List.map (fun (sc : Chase_workload.Scenarios.t) ->
           let tgds = List.map (rename_tgd tag) (Chase_workload.Scenarios.tgds sc) in
           let rep = Decider.decide tgds in
           {
             kind = kind_of rep;
             text = text_of tgds;
             expect = answer_of_truth sc.truth;
             cert_ok = cert_checks tgds rep;
           })
  in
  let want_fast, want_n, want_u = quotas size in
  let fast = ref [] and slow_n = ref [] and unknown = ref [] in
  let have r = List.length !r in
  let full () = have fast >= want_fast && have slow_n >= want_n && have unknown >= want_u in
  let k = ref 0 in
  while (not (full ())) && !k < max_candidates do
    let profile = List.nth profiles (!k mod List.length profiles) in
    incr k;
    let case = Chase_check.Gen.generate ~profile ~seed:(Random.State.bits st) in
    let text = text_of (List.map (rename_tgd tag) case.tgds) in
    let tgds = Chase_parser.Parser.parse_tgds text in
    let cls = Chase_classes.Classification.classify tgds in
    (* once the fast quota is met only sets that can be slow are decided *)
    if have fast < want_fast || goes_guarded cls tgds then begin
      let rep = Decider.decide tgds in
      let it =
        {
          kind = kind_of rep;
          text;
          expect = rep.answer;
          cert_ok = cert_checks tgds rep;
        }
      in
      let slot, want =
        match it.kind with
        | Fast -> (fast, want_fast)
        | Slow_nonterminating -> (slow_n, want_n)
        | Unknown_answer -> (unknown, want_u)
      in
      if have slot < want then slot := it :: !slot
    end
  done;
  let items = Array.of_list (gallery @ List.rev !fast @ List.rev !slow_n @ List.rev !unknown) in
  let count kind = Array.fold_left (fun n it -> if it.kind = kind then n + 1 else n) 0 items in
  let sched = schedule (Array.make (Array.length items) 1) in
  let sizes =
    Printf.sprintf
      "%d TGD sets (%d from the gallery, the rest from %d generated candidates): %d fast, %d \
       slow Non_terminating, %d Unknown"
      (Array.length items) (List.length gallery) !k (count Fast) (count Slow_nonterminating)
      (count Unknown_answer)
  in
  let request ~traced i =
    let it = items.(sched.(i mod Array.length sched)) in
    let buchi0 = if traced then Trace.span_s "buchi.emptiness" else 0. in
    let guarded0 = if traced then Trace.span_s "guarded.search" else 0. in
    let states0 = if traced then Trace.counter "buchi.states" else 0. in
    let body () =
      let w0 = alloc_words () in
      let t0 = now () in
      let tgds = Chase_parser.Parser.parse_tgds it.text in
      let t1 = now () in
      let rep = Decider.decide tgds in
      let t2 = now () in
      (tgds, rep, t0, t1, t2, alloc_words () -. w0)
    in
    let tgds, rep, t0, t1, t2, words = if traced then Trace.in_sink body else body () in
    if traced then begin
      Trace.layer "parse" ((t1 -. t0) *. 1000.);
      Trace.add "parse.bytes" (float_of_int (String.length it.text));
      let cls = Trace.replay "classify" (fun () -> Chase_classes.Classification.classify tgds) in
      if goes_sticky cls tgds then begin
        let ctx =
          Trace.replay "sticky.build" (fun () ->
              let ctx = Sticky_automaton.make_context tgds in
              ignore (Sticky_automaton.components ctx);
              ctx)
        in
        (* every explored state is expanded once per letter of Λ_T *)
        let states = Trace.counter "buchi.states" -. states0 in
        Trace.add "sticky.next.calls"
          (states *. float_of_int (List.length (Sticky_automaton.alphabet ctx)))
      end;
      Trace.layer "buchi.emptiness" ((Trace.span_s "buchi.emptiness" -. buchi0) *. 1000.);
      Trace.layer "guarded.search" ((Trace.span_s "guarded.search" -. guarded0) *. 1000.)
    end;
    {
      cls =
        (match it.kind with
        | Fast -> "fast"
        | Slow_nonterminating -> "slow-nonterminating"
        | Unknown_answer -> "unknown");
      ms = (t2 -. t0) *. 1000.;
      words;
      ok = it.cert_ok && rep.answer = it.expect;
      unknown = rep.answer = Decider.Unknown;
    }
  in
  let corrupt () = items.(0).expect <- Decider.Unknown in
  { sizes; cycle = Array.length sched; request; start_trace = ignore; statistic = Least; fresh_heap = false;
    corrupt }
