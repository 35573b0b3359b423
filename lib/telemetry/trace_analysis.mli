(** Offline analysis of span JSONL traces: tree reconstruction,
    per-protocol exact-quantile latency stats, per-layer self-time
    attribution, critical paths, and a declarative SLO checker.

    SLO file format — one assertion per line, [#] comments:
    {v
      p99(transport.rpc) <= 2000000        # µs quantiles per span name
      count(transport.rpc) >= 1            # span counts
      errors(any) = 0   # error-tagged spans; the literal name "*" sums all
      attr(sim.campaign.false_alarms) = 0  # sum of a numeric attr
      open_spans = 0                       # spans whose parent never closed
      rpc_campaign_coverage = 1            # rpc spans inside a campaign trace
      audits_per_sec > 0
    v}
    with operators [<=], [>=], [=], [<], [>]. *)

type span = {
  id : int;
  trace : string;  (** hex trace id *)
  parent : int option;
  name : string;
  depth : int;
  start_us : float;
  dur_us : float;
  error : bool;  (** the span's thunk raised *)
  attrs : (string * string) list;
}

val span_of_line : string -> span option
(** Parse one JSONL line; [None] when it is not a span object. *)

val load : string -> span list * int
(** Read a JSONL file: parsed spans (in file order) and the number of
    skipped (unparsable, non-blank) lines. *)

(** {2 Trace trees} *)

type node = { span : span; mutable children : node list }

type trace = {
  trace_id : string;
  roots : node list;  (** spans with no parent, in file order *)
  orphans : span list;  (** parent id absent from this trace *)
  size : int;
}

type path_step = { step : span; self_us : float }

(** {2 Reports} *)

type name_stats = {
  sname : string;
  count : int;
  errors : int;
  mean_us : float;
  p50_us : float;
  p90_us : float;
  p99_us : float;
  p999_us : float;
  max_dur_us : float;
  total_us : float;
}

type report = {
  spans : int;
  skipped_lines : int;
  traces : int;
  roots : int;
  orphans : int;  (** "open spans": parent id never emitted *)
  errors : int;
  wall_us : float;
  audits : int;  (** spans named [sim.audit] *)
  audits_per_sec : float;
  rpc_spans : int;  (** spans named [transport.rpc] *)
  rpc_campaign_coverage : float;
      (** fraction of rpc spans whose trace contains a [sim.campaign]
          span; 1.0 when there are no rpc spans *)
  stats : name_stats list;  (** by descending total time *)
  layer_us : (string * float) list;  (** self time by subsystem *)
  critical : (string * path_step list) option;
      (** trace id + critical path of the widest root of the largest
          rooted trace *)
}

val layer_of : string -> string
(** The subsystem a span name's prefix (up to the first '.') belongs
    to: [pairing], [hash], [transport], [audit], [compute], [storage]
    or [queueing]; [other] for an unknown prefix. *)

val analyze : ?skipped_lines:int -> span list -> report

(** {2 SLOs} *)

val check_slos :
  report -> span list -> string -> (Slo.check list, string) result
(** [check_slos report spans content] evaluates every assertion in the
    SLO file [content]; [Error] collects unparseable lines / unknown
    metrics.  A NaN actual (e.g. quantile of an absent span name)
    fails its assertion. *)

val report_json : ?slos:Slo.check list -> report -> string
(** The [BENCH_trace.json] payload. *)

val print_report : out_channel -> ?slos:Slo.check list -> report -> unit
