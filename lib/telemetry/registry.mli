(** Process-wide metrics registry: named counters, gauges and
    fixed-bucket histograms.

    Metrics are interned by name — the first call for a name creates
    the metric, later calls return the same object — so call sites
    hold the metric in a module-level binding and increment without
    any lookup.  {!reset} zeroes values but keeps the objects, so held
    references stay valid across resets.

    All operations are domain-safe: one registry-wide mutex serialises
    creation, mutation and snapshots, and the mutation fast paths
    ({!incr}, {!add}, {!observe}, {!set}) allocate nothing, so metrics
    stay exact under concurrent increments from a domain pool. *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Find-or-create.  @raise Invalid_argument if the name is already
    registered with a different kind. *)

val gauge : string -> gauge
val histogram : ?buckets:float array -> string -> histogram
(** [buckets] are strictly increasing upper bounds; an implicit
    overflow bucket is appended.  Defaults to the HDR log buckets
    {!Hdr.default_bounds} every span uses (0.01 µs .. 1e8 µs). *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int
val reset_counter : counter -> unit

val set : gauge -> float -> unit
val gauge_value : gauge -> float

val observe : histogram -> float -> unit
val reset_histogram : histogram -> unit
(** Zero one histogram's buckets/sum/count (the registration stays). *)

(** {2 Snapshots} — deep copies, isolated from later updates. *)

type hist_snapshot = {
  bounds : float array;
  counts : int array; (** length [bounds + 1]; last bucket is overflow *)
  sum : float;
  count : int;
}

type value_snapshot =
  | Counter of int
  | Gauge of float
  | Histogram of hist_snapshot

val quantile : hist_snapshot -> float -> float
(** [quantile s p] estimates the [p]-quantile (nearest-rank) of the
    observations in [s] as the geometric midpoint of the bucket
    holding that rank.  With geometric bounds of ratio [r] (see
    {!Hdr}) the estimate is within [sqrt r - 1] relative error of the
    exact sample quantile for in-range observations; overflow/
    underflow clamp to the outermost bound.  [nan] when empty. *)

val snapshot : unit -> (string * value_snapshot) list
(** All registered metrics, sorted by name. *)

val find : string -> value_snapshot option
val counter_value : string -> int
(** Current value of a counter by name; 0 when unregistered. *)

val reset : unit -> unit
(** Zero every metric (registrations survive). *)

val dump_json : unit -> string
(** One JSON object mapping metric name to value. *)

val print_tree : out_channel -> unit
(** Render the dotted metric namespace as an indented tree. *)
