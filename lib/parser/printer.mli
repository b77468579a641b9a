(** Pretty-printer emitting the surface syntax; {!Parser.parse_program}
    round-trips its output.  Variable names are adapted to the concrete
    syntax's uppercase-initial convention, injectively per TGD.  A
    constant that is not a bare word or number is quoted, each double
    quote in it doubled.  Printing an atom whose predicate is not an
    identifier (a lowercase-initial word, not a keyword) raises
    [Invalid_argument] naming the predicate: no program text holds such
    an atom. *)

open Chase_core

(** Can a constant be printed bare (no quotes)? *)
val is_bare_const : string -> bool

val print_fact : Atom.t -> string
val print_tgd : Tgd.t -> string
val print_program : Program.t -> string
