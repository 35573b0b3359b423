(** Lint findings: what a rule reports and a waiver can suppress. *)

type severity = Error | Info

type t = {
  rule : string;
  file : string;
  line : int;
  severity : severity;
  key : string;
  msg : string;
}

val severity_to_string : severity -> string

val to_string : t -> string
(** [file:line rule severity message [key k]] — the format the CLI
    prints and CI greps. *)

val compare : t -> t -> int
(** Total order: file, line, rule, key, msg — so findings that differ
    only in their call chain survive [List.sort_uniq]. *)

val to_json : ?waived:bool -> t -> string
(** One finding as a JSON object (stable field order; schema in
    DESIGN.md §4g). *)
