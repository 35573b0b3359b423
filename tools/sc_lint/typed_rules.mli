(** The typed rules (typed-secret-flow, domain-capture,
    discarded-error, determinism, transitive-determinism) over a built
    {!Flow_graph}. *)

type pass

val prepare : Flow_graph.t -> waivers:Waiver.t list -> pass
(** Whole-graph precomputation: secret-flow leak summaries
    (fixpointed) and the transitive-nondeterminism closure.  Waivers
    participate: a waived determinism source or a waived transitive
    chain does not propagate to its callers. *)

val lint : pass -> Typed_load.entry -> Finding.t list
(** All typed findings for one file, sorted and deduplicated. *)
