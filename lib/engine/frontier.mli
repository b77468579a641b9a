(** The store-backed restricted chase loop (paper §3.2), shared by
    {!Restricted.run} and the resumable {!Incremental} sessions: a {!t}
    holds the columnar store, the ranked plans over it
    ({!Candidate.run}), the head memo and the pool of pending
    {!Candidate} keys, and {!chase} applies active candidates until
    none remains or a budget stops it.

    {b The budget rule.}  A {!chase} call ends saturated iff no pending
    candidate is active.  When [max_steps] is reached, one pass over
    the pool through the head memo decides it, consuming nothing: every
    trigger still active on the store is in the pool (it was discovered
    with its last body atom; applied or inactive ones stay inactive by
    monotonicity).  So a derivation whose length is exactly its budget
    is saturated, on every surface. *)

open Chase_core

(** Which pending candidate a chase applies next. *)
type strategy =
  | Fifo  (** oldest candidate first — yields fair derivations *)
  | Lifo  (** newest candidate first — depth-first, possibly unfair *)
  | Random of int  (** uniformly random active candidate, seeded *)

(** Stable lowercase name (["fifo"], ["lifo"], ["random"]) — the value
    used in observability events and by the CLI. *)
val strategy_name : strategy -> string

(** The pending-candidate pool, generic over its element: pushed in
    batches the caller sorts canonically, popped per [strategy],
    deduplicated by hash.  The store loop pools {!Candidate} keys, the
    naive oracle of {!Restricted} [Trigger.t]s. *)
module Pool (E : Hashtbl.HashedType) : sig
  type t

  val create : strategy -> t

  (** Number of pending candidates. *)
  val size : t -> int

  (** Push a batch in its order, skipping elements the pool has ever
      held.  Callers sort it ({!Trigger.compare}, {!Candidate.compare})
      so the pool fills identically however the batch was discovered. *)
  val push_batch : t -> E.t list -> unit

  val pop : t -> E.t option

  (** The budget rule: whether some pending element passes the
      activity test, each test counted as [restricted.drain].  Consumes
      nothing. *)
  val exists_active : t -> (E.t -> bool) -> bool
end

(** The database loaded into a fresh columnar store (span
    ["store.load"]) and the run of ranked [plan]s over it (default
    {!Plan.of_tgd}'s process-wide cache).  {!Oblivious} and {!Parallel},
    which keep their own loops, start from it too. *)
val load :
  ?plan:(Tgd.t -> Plan.t) -> Tgd.t list -> Instance.t -> Cinstance.t * Candidate.run

type t

(** {!load}, an empty head memo, and a pool seeded with every trigger
    on the database. *)
val create : ?plan:(Tgd.t -> Plan.t) -> strategy:strategy -> Tgd.t list -> Instance.t -> t

val facts : t -> Cinstance.t
val run : t -> Candidate.run

(** Number of pending candidates, active or not. *)
val pending : t -> int

(** Push the candidates whose body uses the stored atom
    ({!Candidate.delta}). *)
val discover : t -> Atom.t -> unit

(** [remove t ~keep deleted] removes the sorted atoms from the store in
    place ({!Chase_core.Cinstance.remove}) and resumes from an empty
    head memo and a fresh pool: the pending candidates that [keep]
    (tested before the removal), re-keyed across its id renumbering,
    then the candidates each deleted atom may have witnessed the head of
    ({!Candidate.witness}).  Returns how many of the latter are new. *)
val remove : t -> keep:(Candidate.t -> bool) -> Atom.t list -> int

(** [chase ?epool ?gen ?limit ~max_steps ~budget ~record t] chases from
    the current state.  A step pops the next active candidate, adds its
    whole result to the store, discovers the candidates of every
    produced atom in produced order, then calls
    [record index candidate ~produced ~added frontier] ([index] counts
    this call's steps from 0; [added] are the produced atoms new to the
    store).  [limit] (default: never) is polled with the step count
    before each step.

    Returns the steps taken and [None] when saturated, else why it
    stopped: [budget] at [max_steps] with an active candidate pending,
    or what [limit] returned.  The state stays resumable.  Nulls are
    drawn from [gen], canonical (Def 3.1) without it.  A parallel
    [epool] tests a window of upcoming pops across domains and takes
    the first active one in pop order, so the derivation is
    bit-identical to the sequential one (DESIGN.md §7). *)
val chase :
  ?epool:Chase_exec.Pool.t ->
  ?gen:Term.Gen.t ->
  ?limit:(int -> 'a option) ->
  max_steps:int ->
  budget:'a ->
  record:(int -> Candidate.t -> produced:Atom.t list -> added:Atom.t list -> Term.Set.t -> unit) ->
  t ->
  int * 'a option
