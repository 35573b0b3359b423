(** HDR-style log-bucketed histogram bounds, the default for every
    {!Registry.histogram}.

    Bucket upper bounds grow geometrically with ratio
    [(1 + relative_error)^2]; the geometric midpoint of a bucket is
    then within {!relative_error} of any value in it, so
    {!Registry.quantile} estimates are within ~5% relative error of
    the exact sample quantile for observations inside the covered
    range (defaults: 0.01 µs .. 1e8 µs, ~240 buckets). *)

val default_bounds : unit -> float array
(** [buckets ()], computed once at module initialisation — the
    {!Registry.histogram} default.  Safe to call from any domain. *)
