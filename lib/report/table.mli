(** Plain-text table rendering for the reproduced paper tables. *)

type t = {
  id : string;  (** e.g. "table1" *)
  title : string;
  columns : string list;
  rows : string list list;
  notes : string list;
}

val make : id:string -> title:string -> columns:string list -> ?notes:string list ->
  string list list -> t

val render : t -> string
(** Monospaced layout: title, column headers, aligned rows, notes. *)

val print : t -> unit

(** {1 Cell formatting helpers} *)

val cell_f : ?decimals:int -> float -> string
val cell_i : int -> string

val compare_cell : paper:float -> measured:float -> string
(** ["paper / measured (+d%)"] — the paper-vs-measured presentation
    used throughout EXPERIMENTS.md. *)

val pct_delta : paper:float -> measured:float -> float
