(* Façade: the one module the rest of the code base opens.  Everything
   here is a thin re-export of {!Registry}, {!Span} and {!Clock}. *)

type counter = Registry.counter
type gauge = Registry.gauge
type histogram = Registry.histogram

let counter = Registry.counter
let gauge = Registry.gauge
let histogram = Registry.histogram

let incr = Registry.incr
let add = Registry.add
let value = Registry.value
let set = Registry.set
let gauge_value = Registry.gauge_value
let observe = Registry.observe

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

let snapshot = Registry.snapshot
let find = Registry.find
let counter_value = Registry.counter_value
let reset = Registry.reset
let print_tree = Registry.print_tree

let quantile = Registry.quantile
let log_buckets () = Hdr.default_bounds ()

let with_span = Span.with_span
let set_sink = Span.set_sink
let with_trace_file = Span.with_trace_file
let current_depth = Span.current_depth
let open_spans = Span.open_spans
let add_attr = Span.add_attr

type trace_context = Trace_context.t = { trace : string; span : int }

let current_context = Span.current_context
let with_context = Trace_context.with_remote

let now_ns = Clock.now_ns
let elapsed_ns = Clock.elapsed_ns
