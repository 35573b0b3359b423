(* Bounded-cardinality labeled metrics.  A vec is a family of registry
   metrics distinguished by one label, e.g. wire.tx.msgs by message
   kind.  Cells are interned under the canonical registry name
   [family{label="value"}], so snapshots and the OpenMetrics
   exporter can recover the label structurally.

   Cardinality is bounded per vec (default 32 cells): once the bound
   is reached, unseen label values share one [family{label="other"}]
   cell and bump [telemetry.labels.overflow] — a hostile or buggy
   label source degrades one family instead of growing the registry
   without bound.  Hot call sites should resolve their cell once
   ([counter vec v] / [histogram vec v]) and hold it, paying the
   per-event cost of a plain registry metric. *)

type 'a vec = {
  family : string;
  label : string;
  max_cells : int;
  make : string -> 'a;
  lock : Mutex.t;
  mutable cells : (string * 'a) list;
  mutable overflow : 'a option;
}

type counter_vec = Registry.counter vec
type histogram_vec = Registry.histogram vec

let overflow_value = "other"
let c_overflow = Registry.counter "telemetry.labels.overflow"

(* Label values are caller-controlled; keep them inert inside both the
   registry name syntax and the OpenMetrics exposition format. *)
let sanitize v =
  let v = if String.length v > 48 then String.sub v 0 48 else v in
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | ':' | '/' -> c
      | _ -> '_')
    v

let cell_name t v = Printf.sprintf "%s{%s=\"%s\"}" t.family t.label (sanitize v)

let make_vec ~max_cells ~label family make =
  if max_cells < 1 then invalid_arg "Labels: max_cells < 1";
  { family; label; max_cells; make; lock = Mutex.create (); cells = [];
    overflow = None }

let counter_vec ?(max_cells = 32) ~label family =
  make_vec ~max_cells ~label family Registry.counter

(* Lock order: vec lock, then (inside Registry) the registry lock —
   never the reverse, so no deadlock. *)
let cell t v =
  Mutex.lock t.lock;
  match
    match List.assoc_opt v t.cells with
    | Some m -> m
    | None ->
      if List.length t.cells < t.max_cells then begin
        let m = t.make (cell_name t v) in
        t.cells <- (v, m) :: t.cells;
        m
      end
      else begin
        Registry.incr c_overflow;
        match t.overflow with
        | Some m -> m
        | None ->
          let m = t.make (cell_name t overflow_value) in
          t.overflow <- Some m;
          m
      end
  with
  | m ->
    Mutex.unlock t.lock;
    m
  | exception e ->
    Mutex.unlock t.lock;
    raise e

let counter (t : counter_vec) v = cell t v
let incr t v = Registry.incr (cell t v)

let cardinality t =
  Mutex.lock t.lock;
  let n = List.length t.cells in
  Mutex.unlock t.lock;
  n
