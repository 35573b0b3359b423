(** Declarative numeric assertions ("SLOs") over any metric source.

    The grammar is the one `bench/trace.slo` introduced — one
    [METRIC OP VALUE] assertion per line, [#] comments, operators
    [<=] [>=] [=] [<] [>] — but the metric namespace is supplied by
    the caller as a lookup function, so the same engine gates both the
    offline trace report ({!Trace_analysis.check_slos}) and the
    service campaign report ([bench/service.slo]). *)

type check = {
  expr : string;  (** the assertion as written, comment stripped *)
  metric : string;
  actual : float;
  bound : float;
  cmp : string;
  pass : bool;  (** a NaN actual always fails *)
}

val check :
  lookup:(string -> (float, string) result) ->
  string ->
  (check list, string) result
(** [check ~lookup content] evaluates every assertion in [content].
    [lookup] resolves a metric name to its current value ([Error]
    for an unknown metric).  The result is [Error] — listing every
    offending line — when any line fails to parse or names an
    unknown metric; assertions that merely {e fail} still yield
    [Ok] with [pass = false]. *)

val all_pass : check list -> bool

val json : check list -> string
(** A JSON fragment: [ [{"expr": ..., "actual": ..., "pass": ...}] ]. *)
