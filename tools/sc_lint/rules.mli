(** The Parsetree lint rules (domain-safety, signing-encode,
    exception-swallow, naive-scalar-mul, dynamic-metric-name) over a
    parsed implementation. *)

val lint : path:string -> Parsetree.structure -> Finding.t list
(** [lint ~path str] returns the findings for one file.  [path] is the
    root-relative path recorded in findings (and matched by
    waivers). *)
