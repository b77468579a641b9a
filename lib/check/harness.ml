(* The fuzzing loop: deterministic in (seed, cases, profiles); case i
   draws profile i mod |profiles| with a per-case seed mixed from the
   master seed, so two runs with the same flags explore the same cases
   regardless of jobs (the pool only parallelizes inside the engines,
   which are jobs-invariant — that invariance is itself one of the
   oracle's checks). *)

open Chase_core

type config = {
  cases : int;
  seed : int;
  profiles : Profile.t list;
  jobs : int;
  shrink : bool;
  corpus_dir : string option;
  portfolio : bool;  (* add the portfolio/pruning decider cross-exams *)
}

let default_config =
  {
    cases = 200;
    seed = 42;
    profiles = Profile.all;
    jobs = 1;
    shrink = true;
    corpus_dir = None;
    portfolio = false;
  }

type failure = {
  case_seed : int;
  profile : Profile.t;
  discrepancies : Oracle.discrepancy list;
  tgds : Tgd.t list;
  database : Instance.t;
  repro : string;
  written : string option;
}

type report = { config : config; ran : int; failures : failure list }

(* A fixed odd multiplier spreads case indices across seeds; the exact
   mixing is irrelevant, only determinism and spread matter. *)
let case_seed master i = (master * 1_000_003) + (i * 7919)

let run_case ~pool ~config ~index profile =
  let seed = case_seed config.seed index in
  Obs.incr "check.cases";
  match Gen.generate ~profile ~seed with
  | exception e ->
      Some
        {
          case_seed = seed;
          profile;
          discrepancies =
            [
              {
                Oracle.invariant = "generator-crash";
                detail = Printexc.to_string e;
              };
            ];
          tgds = [];
          database = Instance.empty;
          repro = "";
          written = None;
        }
  | case -> (
      match Oracle.check ~pool ~portfolio:config.portfolio case.Gen.tgds case.Gen.database with
      | [] -> None
      | discrepancies ->
          Obs.count "check.discrepancies" (List.length discrepancies);
          let invariants =
            List.sort_uniq String.compare
              (List.map (fun d -> d.Oracle.invariant) discrepancies)
          in
          let tgds, database =
            if not config.shrink then (case.Gen.tgds, case.Gen.database)
            else
              Shrink.minimize
                ~fails:(fun ts db ->
                  match Oracle.check ~pool ~portfolio:config.portfolio ts db with
                  | ds -> List.exists (fun d -> List.mem d.Oracle.invariant invariants) ds
                  | exception _ -> false)
                case.Gen.tgds case.Gen.database
          in
          let comments =
            [
              Printf.sprintf "profile: %s  seed: %d" (Profile.name profile) seed;
              Printf.sprintf "invariants: %s" (String.concat ", " invariants);
            ]
          in
          let repro = Corpus.source_of_case ~comments tgds database in
          let written =
            Option.map
              (fun dir ->
                Corpus.write_case ~dir
                  ~name:(Printf.sprintf "fuzz_%s_%d" (Profile.name profile) seed)
                  ~comments tgds database)
              config.corpus_dir
          in
          Some { case_seed = seed; profile; discrepancies; tgds; database; repro; written })

let run_with_pool pool config =
  let profiles = if config.profiles = [] then Profile.all else config.profiles in
  let n = List.length profiles in
  let failures = ref [] in
  for i = 0 to config.cases - 1 do
    let profile = List.nth profiles (i mod n) in
    match run_case ~pool ~config ~index:i profile with
    | None -> ()
    | Some f -> failures := f :: !failures
  done;
  { config; ran = config.cases; failures = List.rev !failures }

let run ?pool config =
  match pool with
  | Some pool -> run_with_pool pool config
  | None -> Chase_exec.Pool.with_pool ~jobs:config.jobs (fun pool -> run_with_pool pool config)

let summary r =
  if r.failures = [] then
    Printf.sprintf "fuzz: %d cases over %d profiles, 0 discrepancies" r.ran
      (List.length r.config.profiles)
  else
    Printf.sprintf "fuzz: %d cases over %d profiles, %d FAILING (%s)" r.ran
      (List.length r.config.profiles)
      (List.length r.failures)
      (String.concat ", "
         (List.sort_uniq String.compare
            (List.concat_map
               (fun f -> List.map (fun d -> d.Oracle.invariant) f.discrepancies)
               r.failures)))

let json r =
  let esc = Obs.Jsonl.escape in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "{\"cases\": %d, \"seed\": %d, \"jobs\": %d, \"profiles\": [%s], " r.ran
       r.config.seed r.config.jobs
       (String.concat ", "
          (List.map (fun p -> "\"" ^ esc (Profile.name p) ^ "\"") r.config.profiles)));
  Buffer.add_string buf
    (Printf.sprintf "\"portfolio\": %b, " r.config.portfolio);
  Buffer.add_string buf
    (Printf.sprintf "\"discrepancies\": %d, \"failures\": ["
       (List.fold_left (fun acc f -> acc + List.length f.discrepancies) 0 r.failures));
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf
        (Printf.sprintf
           "{\"profile\": \"%s\", \"seed\": %d, \"invariants\": [%s], \"repro\": \"%s\"%s}"
           (esc (Profile.name f.profile))
           f.case_seed
           (String.concat ", "
              (List.sort_uniq String.compare
                 (List.map (fun d -> "\"" ^ esc d.Oracle.invariant ^ "\"") f.discrepancies)))
           (esc f.repro)
           (match f.written with
           | None -> ""
           | Some p -> Printf.sprintf ", \"written\": \"%s\"" (esc p))))
    r.failures;
  Buffer.add_string buf "]}";
  Buffer.contents buf
