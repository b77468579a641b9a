(** Candidate triggers in id space — what the store engines
    ([Restricted], [Incremental], [Oblivious], [Parallel]) discover,
    pool, test and apply.

    A candidate is a {!Plan.Key.t}: cell [0] is its TGD's {e rank}, the
    TGD's position among the run's distinct TGDs in {!Tgd.compare}
    order, and the other cells are the interned ids of its body
    variables, in variable order.  It stays a key from the plan's match
    to the step that applies it: dedup and order are on ints, the
    activity test reads the frontier ids, and the result is built from
    the compiled head.  A {!Trigger.t} (and its {!Substitution.t}) is
    built only for the steps a log records ({!trigger}).

    {!compare} is {!Trigger.compare} on the triggers the candidates
    stand for: rank first (TGD order), then the body values compared as
    terms.  So a batch sorted by it enters a pool exactly where the
    naive engine's sorted [Trigger.t] batch does, and the derivations
    are bit-identical.  A TGD listed twice gets one rank, so its
    triggers dedup as one, as equal [Trigger.t]s do.

    Ids, and so candidates, live until the store's next
    {!Chase_core.Cinstance.remove}; {!rename} carries one across. *)

open Chase_core

type t = Plan.Key.t

val equal : t -> t -> bool
val hash : t -> int

module Tbl : Hashtbl.S with type key = t

(** A run's ranked TGDs over one store, with the single-domain scratch
    its enumerations and activity tests share. *)
type run

(** [create cs plans]: the run over the store [cs].  Of equal TGDs the
    first listed is kept, with its plan. *)
val create : Plan.csource -> (Tgd.t * Plan.t) list -> run

(** The run's store as a plan source, sharing the run's resolution
    cache. *)
val source : run -> Plan.source

(** The plan of a candidate's rank. *)
val plan : run -> t -> Plan.t

(** {!Trigger.compare} on the triggers the candidates stand for. *)
val compare : run -> t -> t -> int

(** Every body homomorphism of every TGD into the store, unsorted; the
    callback must not use the run. *)
val iter_seed : run -> (t -> unit) -> unit

(** The candidates whose body uses the stored atom, unsorted; as
    {!Plan.iter_delta_keys}, one may come once per seed position. *)
val iter_delta : run -> Atom.t -> (t -> unit) -> unit

(** {!iter_seed} and {!iter_delta} as batches sorted by {!compare}. *)
val seed : run -> t list

val delta : run -> Atom.t -> t list

(** The candidates whose head the atom may have witnessed
    ({!Plan.iter_witness_keys}), sorted; the atom need not be stored. *)
val witness : run -> Atom.t -> t list

(** The trigger a candidate stands for — the one place a store engine
    builds a {!Substitution.t} (counted as [plan.key.hom]). *)
val trigger : run -> t -> Trigger.t

(** The candidate's body image. *)
val body : run -> t -> Atom.t list

(** {!Plan.instantiate}: the produced atoms and the frontier terms. *)
val instantiate : ?gen:Term.Gen.t -> run -> t -> Atom.t list * Term.Set.t

(** {!Plan.frontier_key}: rank and frontier ids. *)
val frontier_key : run -> t -> t

(** The Def 3.1 activity test through the head memo, on the run's
    scratch. *)
val is_active : run -> Plan.Head_memo.t -> t -> bool

(** Memo-free head satisfaction on a scratch of its own, safe to call
    from several domains over a frozen store. *)
val head_satisfied : run -> t -> bool

(** [rename f c] maps every id of [c] through [f] (the renaming a
    {!Chase_core.Cinstance.remove} returns). *)
val rename : (int -> int) -> t -> t
