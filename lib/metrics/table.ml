type _ kind =
  | Int : int kind
  | Num : int -> float kind
  | Str : string kind
  | Bool : bool kind
  | Opt : 'a kind -> 'a option kind
  | Json : ('a -> string) * Json.schema * ('a -> Json.t) -> 'a kind
  | Rows : 'a column list -> 'a list kind
  | Obj : 'a column list -> 'a kind

and 'r column = Col : string * 'a kind * ('r -> 'a) -> 'r column

let int = Int
let num digits = Num digits
let str = Str
let bool = Bool
let opt k = Opt k
let json ~cell schema to_json = Json (cell, schema, to_json)
let rows cols = Rows cols
let obj cols = Obj cols
let col key kind get = Col (key, kind, get)

let rec kind_schema : type a. a kind -> Json.schema = function
  | Int -> Int_s
  | Num _ -> Nullable Num_s
  | Str -> Str_s
  | Bool -> Bool_s
  | Opt k -> (
      match kind_schema k with Nullable _ as s -> s | s -> Nullable s)
  | Json (_, s, _) -> s
  | Rows cols -> List_of (schema cols)
  | Obj cols -> schema cols

and schema : type r. r column list -> Json.schema =
 fun cols ->
  Obj_of (List.map (fun (Col (key, kind, _)) -> (key, kind_schema kind)) cols)

let rec value : type a. a kind -> a -> Json.t =
 fun kind v ->
  match kind with
  | Int -> Json.Int v
  | Num _ -> Json.num v
  | Str -> Json.Str v
  | Bool -> Json.Bool v
  | Opt k -> ( match v with None -> Json.Null | Some x -> value k x)
  | Json (_, _, to_json) -> to_json v
  | Rows cols -> Json.List (List.map (to_json cols) v)
  | Obj cols -> to_json cols v

and to_json : type r. r column list -> r -> Json.t =
 fun cols r ->
  Json.Obj (List.map (fun (Col (key, kind, get)) -> (key, value kind (get r))) cols)

let rec cell : type a. a kind -> a -> string =
 fun kind v ->
  match kind with
  | Int -> string_of_int v
  | Num digits -> if Float.is_finite v then Printf.sprintf "%.*f" digits v else "-"
  | Str -> v
  | Bool -> string_of_bool v
  | Opt k -> ( match v with None -> "-" | Some x -> cell k x)
  | Json (cell, _, _) -> cell v
  | Rows _ | Obj _ -> Json.to_string ~indent:false (value kind v)

let nested : type a. a kind -> bool = function
  | Rows _ | Obj _ -> true
  | Int | Num _ | Str | Bool | Opt _ | Json _ -> false

let grid ~header rows =
  let width = Array.of_list (List.map String.length header) in
  List.iter
    (List.iteri (fun i c -> width.(i) <- max width.(i) (String.length c)))
    rows;
  let cols = Array.length width in
  let buf = Buffer.create 256 in
  let line row =
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf c;
        if i < cols - 1 then
          Buffer.add_string buf (String.make (width.(i) - String.length c) ' '))
      row;
    Buffer.add_char buf '\n'
  in
  line header;
  Buffer.add_string buf
    (String.make (Array.fold_left ( + ) 0 width + (2 * (cols - 1))) '-');
  Buffer.add_char buf '\n';
  List.iter line rows;
  Buffer.contents buf

let rec render : type r. r column list -> r list -> string =
 fun cols rs ->
  let flat = List.filter (fun (Col (_, kind, _)) -> not (nested kind)) cols in
  let cells r = List.map (fun (Col (_, kind, get)) -> cell kind (get r)) flat in
  let buf = Buffer.create 256 in
  if flat <> [] then
    Buffer.add_string buf
      (grid ~header:(List.map (fun (Col (key, _, _)) -> key) flat)
         (List.map cells rs));
  (* Nested tables follow, labelled by the parent row's first cell when
     there is more than one parent row. *)
  let sub title text = Printf.bprintf buf "\n-- %s --\n%s" title text in
  let nested_tables : type a. string -> a kind -> r -> a -> unit =
   fun key kind r v ->
    let title =
      match (rs, cells r) with
      | [ _ ], _ | _, [] -> key
      | _, first :: _ -> key ^ ": " ^ first
    in
    match kind with
    | Rows sub_cols -> sub title (render sub_cols v)
    | Obj sub_cols -> sub title (render sub_cols [ v ])
    | Int | Num _ | Str | Bool | Opt _ | Json _ -> ()
  in
  List.iter
    (fun (Col (key, kind, get)) ->
      if nested kind then List.iter (fun r -> nested_tables key kind r (get r)) rs)
    cols;
  Buffer.contents buf

let print ~title cols rows =
  Printf.printf "\n== %s ==\n%s%!" title (render cols rows)
