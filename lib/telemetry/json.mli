(** Tiny JSON string builders for the exporters (no external deps). *)

val str : string -> string
val int : int -> string
val float : float -> string
val obj : (string * string) list -> string
val arr : string list -> string

(** {2 Parsing} — standard JSON, enough for the trace analyzer to read
    the exporters' own output back. *)

type value =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of value list
  | Object of (string * value) list

exception Parse_error of string

val parse : string -> value option

val member : string -> value -> value option
(** Field lookup on an [Object]; [None] otherwise. *)

val to_float : value option -> float option
val to_string : value option -> string option
