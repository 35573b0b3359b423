(* A single lint finding.  [key] is the stable, line-number-free handle
   a waiver matches on (rule-specific: the offending toplevel binding
   name, "<enclosing>:<sink>", a ">"-joined call chain, ...), so the
   baseline survives unrelated edits to the same file. *)

type severity = Error | Info

type t = {
  rule : string;
  file : string; (* root-relative, '/'-separated *)
  line : int;
  severity : severity;
  key : string;
  msg : string;
}

let severity_to_string = function Error -> "error" | Info -> "info"

let to_string f =
  Printf.sprintf "%s:%d %s %s %s [key %s]" f.file f.line f.rule
    (severity_to_string f.severity)
    f.msg f.key

(* Total order: the key participates so two findings on the same line
   that differ only in their call chain (interprocedural rules) are
   neither collapsed by sort_uniq nor ordered unstably. *)
let compare a b =
  match String.compare a.file b.file with
  | 0 -> (
    match Int.compare a.line b.line with
    | 0 -> (
      match String.compare a.rule b.rule with
      | 0 -> (
        match String.compare a.key b.key with
        | 0 -> String.compare a.msg b.msg
        | c -> c)
      | c -> c)
    | c -> c)
  | c -> c

(* ------------------------------------------------------------------ *)
(* JSON rendering for --json (schema documented in DESIGN.md §4g)     *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json ?(waived = false) f =
  Printf.sprintf
    "{\"rule\":\"%s\",\"file\":\"%s\",\"line\":%d,\"severity\":\"%s\",\"key\":\"%s\",\"msg\":\"%s\",\"waived\":%b}"
    (json_escape f.rule) (json_escape f.file) f.line
    (severity_to_string f.severity)
    (json_escape f.key) (json_escape f.msg) waived
