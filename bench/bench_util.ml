(* Shared helpers for the benchmark harness: Bechamel-based timing and
   plain-text table rendering. *)

(* Timed closures always run with observability suspended: the driver
   may have a stats sink installed to snapshot counters per experiment,
   and measured throughput must stay sink-free (BENCH acceptance: the
   instrumented engine with no sink is within noise of the PR 1 one). *)
let measure_ns ?(quota = 0.25) name fn =
  Obs.suspended @@ fun () ->
  let open Bechamel in
  let test = Test.make ~name (Staged.stage fn) in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let tbl = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let est = ref nan in
  Hashtbl.iter
    (fun _ v -> match Analyze.OLS.estimates v with Some (x :: _) -> est := x | _ -> ())
    tbl;
  !est

let pretty_ns ns =
  if Float.is_nan ns then "n/a"
  else if ns < 1e3 then Printf.sprintf "%.0f ns" ns
  else if ns < 1e6 then Printf.sprintf "%.1f µs" (ns /. 1e3)
  else if ns < 1e9 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else Printf.sprintf "%.2f s" (ns /. 1e9)

(* One-shot wall-clock for heavyweight runs where Bechamel sampling would
   be too slow.  Reported in the same pretty format. *)
let once_ns fn =
  Obs.suspended @@ fun () ->
  let t0 = Unix.gettimeofday () in
  ignore (fn ());
  let t1 = Unix.gettimeofday () in
  (t1 -. t0) *. 1e9

(* GC deltas around a closure: allocation pressure (minor + promoted
   words) and full collections.  Words, not bytes — multiply by the word
   size to compare against RSS. *)
type gc_delta = {
  minor_words : float;
  promoted_words : float;
  major_collections : int;
}

let with_gc_delta f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  ( r,
    {
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

(* Minimal fixed-width table printer. *)
let table ~title ~header rows =
  let ncols = List.length header in
  let widths = Array.make ncols 0 in
  List.iteri (fun i h -> widths.(i) <- String.length h) header;
  List.iter
    (fun row ->
      List.iteri
        (fun i cell ->
          if i < ncols && String.length cell > widths.(i) then widths.(i) <- String.length cell)
        row)
    rows;
  let print_row cells =
    let padded =
      List.mapi
        (fun i c -> c ^ String.make (max 0 (widths.(i) - String.length c)) ' ')
        cells
    in
    print_endline ("  " ^ String.concat "  " padded)
  in
  Printf.printf "\n## %s\n\n" title;
  print_row header;
  print_row (List.mapi (fun i _ -> String.make widths.(i) '-') header);
  List.iter print_row rows;
  print_newline ()

let program src =
  let p = Chase_parser.Parser.parse_program src in
  (Chase_parser.Program.tgds p, Chase_parser.Program.database p)

(* Machine-readable results (--json): experiments push records here; the
   driver dumps them to BENCH_results.json.  Hand-rolled writer — the
   rows are shallow (one [Obj] level for counter snapshots) and the tree
   has no JSON dependency. *)
type json_value =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Obj of (string * json_value) list

let json_rows : (string * (string * json_value) list) list ref = ref []

let record experiment fields = json_rows := (experiment, fields) :: !json_rows

(* A gc_delta as JSON fields, for splicing into a [record] row. *)
let gc_fields d =
  [
    ("minor_words", Num d.minor_words);
    ("promoted_words", Num d.promoted_words);
    ("major_collections", Int d.major_collections);
  ]

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_json path =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i (experiment, fields) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf (Printf.sprintf "  {\"experiment\": \"%s\"" (json_escape experiment));
      let rec value_str = function
        | Num f -> if Float.is_nan f then "null" else Printf.sprintf "%.6g" f
        | Int n -> string_of_int n
        | Str s -> "\"" ^ json_escape s ^ "\""
        | Bool b -> string_of_bool b
        | Obj kvs ->
            "{"
            ^ String.concat ", "
                (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" (json_escape k) (value_str v)) kvs)
            ^ "}"
      in
      List.iter
        (fun (k, v) ->
          Buffer.add_string buf (Printf.sprintf ", \"%s\": %s" (json_escape k) (value_str v)))
        fields;
      Buffer.add_string buf "}")
    (List.rev !json_rows);
  Buffer.add_string buf "\n]\n";
  Out_channel.with_open_text path (fun oc -> output_string oc (Buffer.contents buf))
