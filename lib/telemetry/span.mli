(** Nested spans over the monotone clock.

    Every finished span observes its duration (µs) into the registry
    histogram [span.<name>] (HDR log buckets, see {!Hdr}); with a
    trace sink installed it also emits one JSON object per line:
    [{"name":…, "id":…, "parent":…, "depth":…, "trace":…,
    "start_us":…, "dur_us":…, "attrs":{…}}].

    Distributed tracing: spans carry a 128-bit trace id.  Nested spans
    inherit it; a root span adopts the ambient {!Trace_context} (trace
    id and remote parent span id) when one is installed, and mints a
    fresh trace id otherwise.

    Domain-safe: ids are atomic, the active-span stack is domain-local
    (spans nest within a domain; a span opened on a worker domain
    joins a cross-domain trace only via the ambient context), and sink
    emission is serialised. *)

val with_span : ?attrs:(string * string) list -> name:string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span.  Spans nest: a span opened while
    another is active records it as parent (exception-safe).  If the
    thunk raises, the trace line is tagged [error=1], the counter
    [span.<name>.errors] is bumped, and the exception is re-raised. *)

val set_sink : (string -> unit) option -> unit
(** Install/remove the JSONL line consumer. *)

val with_trace_file : string -> (unit -> 'a) -> 'a
(** [with_trace_file path f] truncates [path] and streams span JSONL
    lines into it while [f] runs. *)

val current_depth : unit -> int
(** Number of currently-open spans on this domain (0 outside any
    span). *)

val open_spans : unit -> int
(** Number of currently-open spans across all domains — a span-leak
    detector: 0 once every [with_span] has unwound. *)

val current_context : unit -> Trace_context.t option
(** Context naming the innermost open span on this domain (for
    propagation to workers / RPC peers); falls back to the ambient
    remote context when the local stack is empty. *)

val add_attr : string -> string -> unit
(** Attach/overwrite an attribute on the innermost open span of this
    domain; no-op outside any span. *)
