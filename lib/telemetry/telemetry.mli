(** Unified telemetry: process-wide metrics registry plus nested
    spans, with JSON / JSONL exporters.

    Typical use at an instrumentation site:
    {[
      let c_reads = Telemetry.counter "storage.reads"

      let read t ~file ~index =
        Telemetry.incr c_reads;
        ...
    ]}
    and around a protocol round:
    {[
      Telemetry.with_span ~name:"audit.verify"
        ~attrs:[ "samples", string_of_int t ]
        (fun () -> ...)
    ]}

    See {!Registry} and {!Span} for the underlying semantics. *)

type counter = Registry.counter
type gauge = Registry.gauge
type histogram = Registry.histogram

val counter : string -> counter
val gauge : string -> gauge
val histogram : ?buckets:float array -> string -> histogram

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int
val set : gauge -> float -> unit
val gauge_value : gauge -> float
val observe : histogram -> float -> unit

type hist_snapshot = Registry.hist_snapshot = {
  bounds : float array;
  counts : int array;
  sum : float;
  count : int;
}

type value_snapshot = Registry.value_snapshot =
  | Counter of int
  | Gauge of float
  | Histogram of hist_snapshot

val snapshot : unit -> (string * value_snapshot) list
val find : string -> value_snapshot option
val counter_value : string -> int
val reset : unit -> unit
val print_tree : out_channel -> unit

val quantile : hist_snapshot -> float -> float
(** See {!Registry.quantile} — nearest-rank bucket quantile, within
    {!Hdr.relative_error} for HDR-bucketed histograms. *)

val log_buckets : unit -> float array
(** {!Hdr.default_bounds} — the HDR log buckets every histogram
    defaults to. *)

val with_span : ?attrs:(string * string) list -> name:string -> (unit -> 'a) -> 'a
val set_sink : (string -> unit) option -> unit
val with_trace_file : string -> (unit -> 'a) -> 'a
val current_depth : unit -> int

val open_spans : unit -> int
(** Spans currently open across all domains (leak detector). *)

val add_attr : string -> string -> unit
(** Attach an attribute to the innermost open span of this domain. *)

(** {2 Trace context} — see {!Trace_context} and {!Span}. *)

type trace_context = Trace_context.t = { trace : string; span : int }

val current_context : unit -> trace_context option
(** Identity of the innermost open span (or the ambient remote
    context), for propagation to workers and RPC peers. *)

val with_context : trace_context option -> (unit -> 'a) -> 'a
(** Install a remote parent context: root spans opened inside the
    thunk join that trace instead of minting their own. *)

val now_ns : unit -> int64
val elapsed_ns : int64 -> int64
