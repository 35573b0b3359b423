(** Lint driver: parse sources, run the AST and typed rules plus the
    informational no-mli check, discover files on disk, and apply the
    waiver baseline. *)

type source = {
  rel : string;  (** root-relative path recorded in findings *)
  content : string;
  has_mli : bool;
}

val lint_source : source -> Finding.t list
(** The Parsetree rules and no-mli for one source. *)

val lint_all :
  build_dir:string -> waivers:Waiver.t list -> source list -> Finding.t list
(** Parse rules plus the typed pass ({!Typed_rules}) over the cmts
    under [build_dir], sorted.  A source without a cmt yields an Error
    finding [no-cmt]. *)

val collect_files : root:string -> string list -> source list
(** [collect_files ~root dirs] reads every [.ml] under [root/dir] for
    each [dir], skipping [_build] and dot-directories. *)

type report = {
  sources : int;  (** files linted *)
  typed : int;  (** of which had a cmt *)
  findings : Finding.t list;  (** every finding, sorted *)
  unwaived : Finding.t list;
  waived : Finding.t list;
  stale : Waiver.t list;  (** baseline entries that matched nothing *)
}

val gate : root:string -> waivers:string option -> string list -> (report, string) result
(** [gate ~root ~waivers dirs] parses the waiver file [waivers] (none
    when [None]), lints every [.ml] under [dirs] with the cmts of
    [root/_build/default] (or of [root] itself, when it is a build
    tree) and applies the baseline.  [Error] when the waiver file is
    unreadable or malformed. *)
