(** Bounded-cardinality labeled metric families.

    A vec groups registry metrics that differ only in one label value
    (e.g. [wire.tx.msgs] by message kind).  Cells live in the ordinary
    registry under the canonical name [family{label="value"}] — they
    show up in snapshots, [dump_json] and the OpenMetrics exporter
    like any other metric.

    Cardinality policy: at most [max_cells] distinct label values per
    vec (default 32); further values share the [family{label="other"}]
    overflow cell and bump [telemetry.labels.overflow].  Label values
    are sanitized to [[A-Za-z0-9_.:/-]] and truncated to 48 bytes.

    Hot paths should resolve their cell once with {!counter} /
    {!histogram} and hold it; {!incr}/{!add}/{!observe} pay one small
    assoc lookup per event. *)

type 'a vec

type counter_vec = Registry.counter vec
type histogram_vec = Registry.histogram vec

val counter_vec : ?max_cells:int -> label:string -> string -> counter_vec
(** [counter_vec ~label family] — a family of counters.  Unlike plain
    registry metrics, vecs are not interned by name: create once at
    module level. *)

val counter : counter_vec -> string -> Registry.counter
(** Find-or-create the cell for a label value (overflow cell once the
    cardinality bound is hit). *)

val incr : counter_vec -> string -> unit
val add : counter_vec -> string -> int -> unit

val cardinality : 'a vec -> int
(** Distinct non-overflow label values seen so far. *)
