open Chase_core

type backend = [ `Compiled | `Columnar ]
type t = { facts : Cinstance.t; source : Plan.source }

let of_instance (_ : backend) db =
  Obs.span "store.load" (fun () ->
      let facts = Cinstance.of_instance db in
      { facts; source = Plan.source_of_cinstance facts })

let backend_of_name s =
  match Backend.of_name s with
  | Ok `Naive ->
      Error
        (Printf.sprintf "backend %S has no mutable store (expected one of: compiled, columnar)" s)
  | Ok (#backend as b) -> Ok b
  | Error e -> Error e
