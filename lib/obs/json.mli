(** A minimal JSON tree, emitter and parser.

    The container ships no JSON library, and the observability layer
    needs only enough JSON to write Chrome trace-event files and to
    parse them back in tests — so this module hand-rolls both sides.
    The emitter prints numbers deterministically (integers without a
    fractional part, everything else via ["%.12g"]), which the
    byte-identical-output acceptance criteria rely on. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering. *)

val parse : string -> (t, string) result
(** Recursive-descent parser for the full JSON grammar (escapes,
    exponents, nested containers).  Errors carry a character offset. *)

(** {2 Accessors} (total — they return [None]/[[]] on shape mismatch) *)

val member : string -> t -> t option
(** Field lookup in an [Obj]. *)

val items : t -> t list
(** Elements of an [Arr]; [[]] for any other constructor. *)

val num : t -> float option
val str : t -> string option
val bool : t -> bool option
