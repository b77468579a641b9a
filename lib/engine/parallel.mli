(** The parallel (weakly restricted, paper Def C.4) chase: every round
    applies all triggers active at its start, simultaneously.  The result
    can be larger than a sequential restricted result — a same-round
    trigger may deactivate another, which is applied anyway — but it is a
    model, and rounds bound the sequential derivation depth. *)

open Chase_core

type round = { index : int; applied : Trigger.t list; after : Instance.t }

type result = {
  database : Instance.t;
  rounds : round list;
  final : Instance.t;
  saturated : bool;  (** false when the rounds ran out or a round grew too large *)
}

val default_max_rounds : int

(** Runs with canonical null naming (Def 3.1), so atom identities persist
    across rounds and into {!Sequentialize}.

    Candidate triggers are discovered incrementally with compiled-plan
    delta matching and dropped permanently once applied or found
    inactive (both are final by downward monotonicity of activity), so
    no round re-enumerates all triggers; each [applied] list is reported
    in canonical [Trigger.compare] order.  [pool] (default: inline)
    spreads the per-round activity tests across domains — the rounds
    are identical either way, since the tests are independent reads of
    the frozen round-start instance.

    [saturated = false] means the rounds ran out or a round grew too
    large: memory is bounded as well as time, so once the candidates
    discovered for the next round (or on the database) exceed 100,000,
    the run stops after the current round, unsaturated. *)
val run :
  ?max_rounds:int -> ?pool:Chase_exec.Pool.t -> Tgd.t list -> Instance.t -> result
val round_count : result -> int
val applications : result -> int
