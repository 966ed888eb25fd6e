(** Experiment reports declared once: a list of typed columns over a
    row type yields the plain-text table, the JSON rows and the JSON
    schema, so the three cannot drift apart.

    Empty values — a non-finite number or [None] — render as [-] in
    the table and as [null] in JSON. *)

(** How one column's values render. *)
type 'a kind

(** A named column over rows of type ['r]; its key is both the table
    header and the JSON member name. *)
type 'r column

val int : int kind

(** [num d] prints [d] decimals in the table; JSON keeps the full
    value. NaN and infinities are empty. *)
val num : int -> float kind

val str : string kind

val bool : bool kind

(** [None] is empty. *)
val opt : 'a kind -> 'a option kind

(** A nested JSON value with its own schema; [cell] is its table
    text. *)
val json : cell:('a -> string) -> Json.schema -> ('a -> Json.t) -> 'a kind

(** A nested list of rows (a JSON array of objects). The table leaves
    it out of the row and prints it below as its own table, one per
    parent row. *)
val rows : 'a column list -> 'a list kind

(** A nested single row (a JSON object), printed below like {!rows}. *)
val obj : 'a column list -> 'a kind

(** [col key kind get] *)
val col : string -> 'a kind -> ('r -> 'a) -> 'r column

(** The object schema of one row: exactly the column keys. *)
val schema : 'r column list -> Json.schema

(** One row as a JSON object, members in column order. *)
val to_json : 'r column list -> 'r -> Json.t

(** The aligned table: one column per non-nested key, in declaration
    order, a separator under the header, then the nested tables. *)
val render : 'r column list -> 'r list -> string

(** [print ~title cols rows] renders to stdout under a title line. *)
val print : title:string -> 'r column list -> 'r list -> unit
