(** Fixed-size domain pool for the embarrassingly parallel hot paths
    (stdlib-only: [Domain] + [Mutex]/[Condition]).

    The pool holds [domain_count () - 1] worker domains, spawned
    lazily on the first parallel call; the submitting domain helps run
    queued tasks while it waits, so nested fan-out cannot deadlock.
    With a domain count of 1 every entry point degenerates to the
    sequential [List.map]/[Array.map]/inline loop — no pool, no locks
    — and at any higher count the *results* are identical to the
    sequential run (outputs are position-addressed; only the schedule
    changes).  Functions passed in must therefore be safe to run on
    any domain: pure, or racing only on the (mutex-guarded) telemetry
    registry. *)

val domain_count : unit -> int
(** Configured domain count (workers + the calling domain).  Defaults
    to [max 1 (Domain.recommended_domain_count () - 1)]; the
    [SECCLOUD_DOMAINS] environment variable (an integer >= 1)
    overrides the default.  [1] means fully sequential. *)

val set_domain_count : int -> unit
(** Override the domain count programmatically (clamped to >= 1).
    Call from the main domain, between parallel sections.  Lowering
    the count below the number of already-spawned workers leaves the
    extra workers idle; results are unaffected either way. *)

val parallel_map : ?min_chunk:int -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving map; equals [List.map f xs] at every domain
    count.  [min_chunk] (default 1) is the minimum number of elements
    per task — raise it when [f] is cheap. *)

val iter_ranges : ?min_chunk:int -> int -> (int -> int -> unit) -> unit
(** [iter_ranges n body] partitions [0, n) into contiguous chunks of
    at least [min_chunk] indices and calls [body lo hi] (hi exclusive)
    for each, in parallel.  The partition covers [0, n) exactly once;
    with one domain it is the single call [body 0 n]. *)

val run_tasks : (unit -> unit) list -> unit
(** Run independent thunks across the pool; returns when all are done.
    The first exception raised by a thunk is re-raised in the caller
    after the batch drains. *)
