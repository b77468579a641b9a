(* A parsed program: a TGD set together with a database of facts. *)

open Chase_core

type t = { tgds : Tgd.t list; database : Instance.t }

let empty = { tgds = []; database = Instance.empty }
let make ~tgds ~database = { tgds; database }

let tgds p = p.tgds
let database p = p.database

let add_tgd t p = { p with tgds = p.tgds @ [ t ] }
let add_fact a p = { p with database = Instance.add a p.database }

let schema p =
  Schema.union (Schema.of_tgds p.tgds) (Schema.of_instance p.database)
