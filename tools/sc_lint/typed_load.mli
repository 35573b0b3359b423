(** Typedtree loading for the typed pass: scan dune's [.cmt] output,
    and typecheck fixture sources in-process for the tests. *)

type entry = {
  rel : string;  (** root-relative source path, e.g. "lib/hash/drbg.ml" *)
  modname : string;  (** normalised dotted name, e.g. "Sc_hash.Drbg" *)
  structure : Typedtree.structure;
}

type intf = {
  irel : string;  (** root-relative interface path, e.g. "lib/hash/drbg.mli" *)
  imodname : string;  (** normalised dotted name, e.g. "Sc_hash.Drbg" *)
  signature : Typedtree.signature;
}

val normalize_modname : string -> string
(** "Sc_hash__Drbg" -> "Sc_hash.Drbg", "Dune__exe__Foo" -> "Foo". *)

val scan : build_dir:string -> rels:string list -> entry list * intf list
(** Walk [build_dir] for [.cmt] and [.cmti] files and return one entry
    per implementation and one per interface whose [cmt_sourcefile] is
    in [rels] (first wins), each list sorted by path.  Unreadable or
    foreign cmts are skipped; the caller reports what is missing. *)

val typecheck :
  include_dirs:string list ->
  modname:string ->
  rel:string ->
  string ->
  (entry, string) result
(** Typecheck one source string in-process against the given .cmi
    directories (all warnings off); [Error] carries the compiler
    report.  Used by the fixture tests. *)

val typecheck_intf :
  include_dirs:string list ->
  modname:string ->
  rel:string ->
  string ->
  (intf, string) result
(** {!typecheck} for an interface source. *)
