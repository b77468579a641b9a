(** Seeded case generation for the differential oracle: a TGD set drawn
    from the profile's class generator ([Chase_workload.Tgd_gen], plus a
    structurally unconstrained generator for {!Profile.Unrestricted})
    and a random database over its schema.  Deterministic in
    [(profile, seed)]. *)

open Chase_core

type case = {
  profile : Profile.t;
  seed : int;
  tgds : Tgd.t list;
  database : Instance.t;
}

val generate : profile:Profile.t -> seed:int -> case

(** A multi-head variant of a TGD set: every TGD with a nonempty
    frontier gets a second head atom recording its frontier image under
    a fresh predicate [mh<i>].  Such a step may fire although its
    original head atoms are already present, so it re-derives atoms —
    the case incremental retraction hands their ownership over for.
    The deciders and the oblivious-chase checks need single-head sets;
    only the incremental-equivalence section runs this variant. *)
val multi_head_variant : Tgd.t list -> Tgd.t list
