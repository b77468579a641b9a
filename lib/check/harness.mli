(** The fuzzing loop behind [chasectl fuzz] and [test/suite_check.ml]:
    generate cases round-robin over the profiles, run the {!Oracle},
    {!Shrink} any discrepancy to a 1-minimal repro, and report.

    Observability: one [check.cases] bump per case, [check.discrepancies]
    per discrepancy found (before shrinking), [check.shrink_steps] per
    shrink trial, all on the caller's sink. *)

open Chase_core

type config = {
  cases : int;
  seed : int;
  profiles : Profile.t list;
  jobs : int;  (** pool size when [run] creates its own pool *)
  shrink : bool;
  corpus_dir : string option;  (** write shrunk repros here *)
  portfolio : bool;
      (** add the portfolio-vs-fixed decider cross-exam and the
          subsumption-pruning cross-check (default: [false]) *)
}

val default_config : config

type failure = {
  case_seed : int;
  profile : Profile.t;
  discrepancies : Oracle.discrepancy list;  (** on the original case *)
  tgds : Tgd.t list;  (** shrunk (or original when shrinking is off) *)
  database : Instance.t;
  repro : string;  (** corpus-format source of the shrunk case *)
  written : string option;  (** corpus path, when [corpus_dir] is set *)
}

type report = {
  config : config;
  ran : int;
  failures : failure list;
}

(** Run the loop.  [pool] overrides pool creation (the CLI passes the
    pool living inside its observability scope); otherwise a pool of
    [config.jobs] domains is created for the duration. *)
val run : ?pool:Chase_exec.Pool.t -> config -> report

(** One human line per case outcome is printed by the CLI, not here;
    [summary] is the final one-paragraph verdict. *)
val summary : report -> string

(** The machine-readable report ([chasectl fuzz --json]). *)
val json : report -> string
