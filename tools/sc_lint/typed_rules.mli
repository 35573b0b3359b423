(** The typed rules (typed-secret-flow, domain-capture,
    discarded-error, determinism, transitive-determinism) over a built
    {!Flow_graph}, and dead-export over interfaces and their callers. *)

type pass

val prepare : Flow_graph.t -> waivers:Waiver.t list -> pass
(** Whole-graph precomputation: secret-flow leak summaries
    (fixpointed) and the transitive-nondeterminism closure.  Waivers
    participate: a waived determinism source or a waived transitive
    chain does not propagate to its callers. *)

val lint : pass -> Typed_load.entry -> Finding.t list
(** All typed findings for one file, sorted and deduplicated. *)

val caller_roots : string list
(** The roots whose cmts count as callers for {!dead_exports}:
    lib bin bench perfbench examples. *)

val dead_exports :
  Typed_load.intf list -> callers:Typed_load.entry list -> Finding.t list
(** dead-export: each [val] of a [lib/] interface (nested signatures
    included, keyed by its dotted path inside the module) that no
    implementation under {!caller_roots} other than its own module
    references.  References are resolved [Texp_ident] paths with local
    module aliases expanded; a module used whole (include, functor
    argument) uses every export under it. *)
