(* What a run prints: a table of every metric by name with its unit, the
   one-line JSON result that ends standard output, and (traced runs) a
   schema-checked per-layer report file. *)

type value = Value of float | Empty | Not_applicable

(* Resolve measured values against the catalog. An applicable metric
   without a value came from an empty sample: it is reported as [Empty]
   and named in the returned failures rather than printed as 0. *)
let resolve (w : Workloads.t) (decls : Catalog.t list) measured =
  let rows =
    List.map
      (fun (m : Catalog.t) ->
        if not (m.applies w) then (m, Not_applicable)
        else
          match List.assoc_opt m.name measured with
          | Some (Some v) when Float.is_finite v -> (m, Value v)
          | _ -> (m, Empty))
      decls
  in
  let failures =
    List.filter_map
      (fun ((m : Catalog.t), v) ->
        match v with
        | Empty -> Some ("no sample behind " ^ m.name)
        | Value _ | Not_applicable -> None)
      rows
  in
  (rows, failures)

let table rows =
  List.iter
    (fun ((m : Catalog.t), v) ->
      let shown =
        match v with
        | Value x -> Printf.sprintf "%.6g" x
        | Empty -> "null"
        | Not_applicable -> "n/a"
      in
      Printf.printf "  %-30s %16s %s\n" m.name shown m.unit)
    rows

(* The result line. Layers a workload does not have (another
   protocol's phases, recovery without a crash) read 0; the traced
   report marks them [applies = false]. *)
let result_line ~correct ~attempted ~failed rows =
  let open Metrics.Json in
  let metric ((m : Catalog.t), v) =
    let value =
      match v with Value x -> Float x | Empty -> Null | Not_applicable -> Float 0.
    in
    (m.name, Obj [ ("value", value); ("unit", Str m.unit) ])
  in
  to_string ~indent:false
    (Obj
       [
         ("correct", Bool correct);
         ("attempted", Int attempted);
         ("failed", Int failed);
         ("metrics", Obj (List.map metric rows));
       ])

let metric_schema =
  Metrics.Json.(
    Obj_of
      [
        ("name", Str_s);
        ("unit", Str_s);
        ("better", Str_s);
        ("moves", Str_s);
        ("on", Str_s);
        ("applies", Bool_s);
        ("value", Nullable Num_s);
      ])

let schema =
  Metrics.Json.(
    Obj_of
      [
        ("workload", Str_s);
        ("protocol", Str_s);
        ("n", Int_s);
        ("seed", Int_s);
        ("correct", Bool_s);
        ("gate", List_of Str_s);
        ("gc_phases_s", List_of (Obj_of [ ("phase", Str_s); ("seconds", Num_s) ]));
        ("metrics", List_of metric_schema);
      ])

let to_json (w : Workloads.t) ~seed ~gate ~gc_phases rows =
  let open Metrics.Json in
  Obj
    [
      ("workload", Str w.name);
      ("protocol", Str w.protocol);
      ("n", Int w.n);
      ("seed", Int (Int64.to_int seed));
      ("correct", Bool (List.is_empty gate));
      ("gate", List (List.map (fun s -> Str s) gate));
      ( "gc_phases_s",
        List
          (List.map
             (fun (p, s) -> Obj [ ("phase", Str p); ("seconds", num s) ])
             gc_phases) );
      ( "metrics",
        List
          (List.map
             (fun ((m : Catalog.t), v) ->
               Obj
                 [
                   ("name", Str m.name);
                   ("unit", Str m.unit);
                   ("better", Str (Catalog.better_name m.better));
                   ("moves", Str m.moves);
                   ("on", Str m.on);
                   ("applies", Bool (m.applies w));
                   ( "value",
                     match v with Value x -> num x | Empty | Not_applicable -> Null );
                 ])
             rows) );
    ]

(* Write, read back and validate: a report that does not round-trip
   through the schema is an error, not an artifact. *)
let write path json =
  let text = Metrics.Json.to_string json in
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc;
  let ic = open_in_bin path in
  let back = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Metrics.Json.of_string back with
  | Error e -> Error (path ^ ": " ^ e)
  | Ok v -> (
      match Metrics.Json.check schema v with
      | Ok () -> Ok ()
      | Error e -> Error (path ^ ": " ^ e))
