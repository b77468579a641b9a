open Chase_core

type backend = [ `Compiled | `Columnar ]

type t = {
  backend : backend;
  add : Atom.t -> bool;
  mem : Atom.t -> bool;
  cardinal : unit -> int;
  snapshot : unit -> Instance.t;
  remove : Atom.t list -> unit;
  source : Plan.source;
}

let of_minstance m =
  {
    backend = `Compiled;
    add = (fun a -> Minstance.add m a);
    mem = (fun a -> Minstance.mem m a);
    cardinal = (fun () -> Minstance.cardinal m);
    snapshot = (fun () -> Minstance.snapshot m);
    remove = Minstance.remove m;
    source = Plan.source_of_minstance m;
  }

let of_cinstance c =
  {
    backend = `Columnar;
    add = (fun a -> Cinstance.add c a);
    mem = (fun a -> Cinstance.mem c a);
    cardinal = (fun () -> Cinstance.cardinal c);
    snapshot = (fun () -> Cinstance.snapshot c);
    remove = Cinstance.remove c;
    source = Plan.source_of_cinstance c;
  }

let of_instance backend db =
  Obs.span "store.load" (fun () ->
      match backend with
      | `Compiled -> of_minstance (Minstance.of_instance db)
      | `Columnar -> of_cinstance (Cinstance.of_instance db))

let backend_of_name s =
  match Backend.of_name s with
  | Ok `Naive ->
      Error
        (Printf.sprintf "backend %S has no mutable store (expected one of: compiled, columnar)" s)
  | Ok (#backend as b) -> Ok b
  | Error e -> Error e
