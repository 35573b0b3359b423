(* Process-wide metrics registry.  Metrics are interned by name: the
   first [counter]/[gauge]/[histogram] call for a name creates the
   metric, later calls return the same object, so call sites can hold
   the metric in a module-level binding and pay one hashtable lookup
   per process, not per event.  [reset] zeroes values but keeps the
   objects, so held references stay valid.

   Domain safety: one registry-wide mutex guards table lookup/insert,
   every counter/gauge/histogram mutation, and snapshotting, so
   increments from pool workers (lib/parallel) are exact — the
   `attempts = rpc + retry`-style ledger invariants gated by `stats
   --check` hold at any SECCLOUD_DOMAINS setting.  The single-domain
   fast path stays cheap: an uncontended lock/unlock pair and no
   allocation on [incr]/[add]/[observe]. *)

type counter = { mutable c : int }
type gauge = { mutable g : float }

type histogram = {
  bounds : float array; (* strictly increasing upper bounds *)
  counts : int array; (* length bounds + 1; last bucket is overflow *)
  mutable sum : float;
  mutable n : int;
}

type metric = C of counter | G of gauge | H of histogram

let table : (string, metric) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  match f () with
  | v ->
    Mutex.unlock lock;
    v
  | exception e ->
    Mutex.unlock lock;
    raise e

let kind_error name =
  invalid_arg
    (Printf.sprintf "Telemetry: metric %S already registered with another kind"
       name)

let counter name =
  locked @@ fun () ->
  match Hashtbl.find_opt table name with
  | Some (C c) -> c
  | Some _ -> kind_error name
  | None ->
    let c = { c = 0 } in
    Hashtbl.add table name (C c);
    c

let gauge name =
  locked @@ fun () ->
  match Hashtbl.find_opt table name with
  | Some (G g) -> g
  | Some _ -> kind_error name
  | None ->
    let g = { g = 0.0 } in
    Hashtbl.add table name (G g);
    g

let histogram ?(buckets = Hdr.default_bounds ()) name =
  locked @@ fun () ->
  match Hashtbl.find_opt table name with
  | Some (H h) -> h
  | Some _ -> kind_error name
  | None ->
    let bounds = Array.copy buckets in
    Array.iteri
      (fun i b ->
        if i > 0 && b <= bounds.(i - 1) then
          invalid_arg "Telemetry.histogram: buckets must be strictly increasing")
      bounds;
    let h =
      { bounds; counts = Array.make (Array.length bounds + 1) 0;
        sum = 0.0; n = 0 }
    in
    Hashtbl.add table name (H h);
    h

let incr c =
  Mutex.lock lock;
  c.c <- c.c + 1;
  Mutex.unlock lock

let add c v =
  Mutex.lock lock;
  c.c <- c.c + v;
  Mutex.unlock lock

let value c =
  Mutex.lock lock;
  let v = c.c in
  Mutex.unlock lock;
  v

let set g v =
  Mutex.lock lock;
  g.g <- v;
  Mutex.unlock lock

let gauge_value g =
  Mutex.lock lock;
  let v = g.g in
  Mutex.unlock lock;
  v

(* First bucket whose upper bound admits v; the trailing bucket
   catches everything above the last bound.  Binary search: the
   HDR-style log buckets (Hdr.default_bounds) have ~240 bounds, so a
   linear scan on the observe fast path would cost more than the
   locked update itself. *)
let bucket_index bounds v =
  let n = Array.length bounds in
  if n = 0 || v <= bounds.(0) then 0
  else if v > bounds.(n - 1) then n
  else begin
    (* invariant: bounds.(lo) < v <= bounds.(hi) *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if v <= bounds.(mid) then hi := mid else lo := mid
    done;
    !hi
  end

let observe h v =
  let i = bucket_index h.bounds v in
  Mutex.lock lock;
  h.counts.(i) <- h.counts.(i) + 1;
  h.sum <- h.sum +. v;
  h.n <- h.n + 1;
  Mutex.unlock lock

(* --- snapshots ---------------------------------------------------- *)

type hist_snapshot = {
  bounds : float array;
  counts : int array;
  sum : float;
  count : int;
}

type value_snapshot =
  | Counter of int
  | Gauge of float
  | Histogram of hist_snapshot

(* Nearest-rank quantile over a bucketed snapshot.  The rank-th
   smallest observation lies in the first bucket whose cumulative
   count reaches the rank; its value is estimated as the geometric
   midpoint of that bucket.  With geometric bucket bounds of ratio r
   (Hdr buckets) the estimate is within sqrt(r) - 1 relative error of
   the exact sample quantile, provided the observation is neither
   below the first bound's implied lower edge nor in the overflow
   bucket (those clamp to the nearest bound). *)
let quantile (s : hist_snapshot) p =
  if s.count = 0 then Float.nan
  else begin
    let p = Float.max 0.0 (Float.min 1.0 p) in
    let rank =
      let r = int_of_float (Float.ceil (p *. float_of_int s.count)) in
      if r < 1 then 1 else if r > s.count then s.count else r
    in
    let nb = Array.length s.bounds in
    let i = ref 0 and cum = ref s.counts.(0) in
    while !cum < rank do
      i := !i + 1;
      cum := !cum + s.counts.(!i)
    done;
    let i = !i in
    if i >= nb then (if nb = 0 then s.sum /. float_of_int s.count else s.bounds.(nb - 1))
    else
      let hi = s.bounds.(i) in
      let lo =
        if i > 0 then s.bounds.(i - 1)
        else if nb > 1 && s.bounds.(0) > 0.0 then
          (* implied lower edge: extend the bucket ratio downwards *)
          s.bounds.(0) *. s.bounds.(0) /. s.bounds.(1)
        else hi
      in
      if lo > 0.0 && hi > lo then Float.sqrt (lo *. hi) else hi
  end

let snapshot_histogram (h : histogram) =
  { bounds = Array.copy h.bounds; counts = Array.copy h.counts;
    sum = h.sum; count = h.n }

let snapshot () =
  locked (fun () ->
      Hashtbl.fold
        (fun name m acc ->
          let v =
            match m with
            | C c -> Counter c.c
            | G g -> Gauge g.g
            | H h -> Histogram (snapshot_histogram h)
          in
          (name, v) :: acc)
        table [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find name =
  locked @@ fun () ->
  match Hashtbl.find_opt table name with
  | None -> None
  | Some (C c) -> Some (Counter c.c)
  | Some (G g) -> Some (Gauge g.g)
  | Some (H h) -> Some (Histogram (snapshot_histogram h))

let counter_value name =
  locked @@ fun () ->
  match Hashtbl.find_opt table name with Some (C c) -> c.c | _ -> 0

let reset () =
  locked @@ fun () ->
  Hashtbl.iter
    (fun _ m ->
      match m with
      | C c -> c.c <- 0
      | G g -> g.g <- 0.0
      | H h ->
        Array.fill h.counts 0 (Array.length h.counts) 0;
        h.sum <- 0.0;
        h.n <- 0)
    table

(* --- export ------------------------------------------------------- *)

(* Tree renderer for the CLI: dotted names become an indented
   hierarchy, values are right-aligned on the leaf lines. *)
let pp_value = function
  | Counter c -> string_of_int c
  | Gauge g -> Printf.sprintf "%.3f" g
  | Histogram h ->
    if h.count = 0 then "hist n=0"
    else
      let mean = h.sum /. float_of_int h.count in
      Printf.sprintf "hist n=%d mean=%.1f p50=%.1f p90=%.1f p99=%.1f p999=%.1f"
        h.count mean (quantile h 0.50) (quantile h 0.90) (quantile h 0.99)
        (quantile h 0.999)

let print_tree oc =
  let rec common_prefix a b i =
    if i < List.length a && i < List.length b && List.nth a i = List.nth b i
    then common_prefix a b (i + 1)
    else i
  in
  let prev = ref [] in
  List.iter
    (fun (name, v) ->
      let parts = String.split_on_char '.' name in
      let segs = List.length parts in
      let keep = common_prefix !prev parts 0 in
      (* Print any newly-opened intermediate groups. *)
      List.iteri
        (fun i seg ->
          if i >= keep && i < segs - 1 then
            Printf.fprintf oc "%s%s\n" (String.make (2 * i) ' ') seg)
        parts;
      let leaf = List.nth parts (segs - 1) in
      let indent = String.make (2 * (segs - 1)) ' ' in
      Printf.fprintf oc "%-42s %s\n" (indent ^ leaf) (pp_value v);
      prev := parts)
    (snapshot ())
