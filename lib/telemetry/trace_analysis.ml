(* Offline analysis of the span JSONL sink: trace-tree reconstruction,
   per-protocol latency stats (exact quantiles — the raw durations are
   on disk, no bucketing error here), per-layer self-time attribution,
   critical paths, and a small declarative SLO checker.

   The analyzer is deliberately tolerant: lines that don't parse as
   span objects are counted and skipped, spans whose parent never
   closed (leaked/open spans) are reported as orphans rather than
   crashing the tree build. *)

type span = {
  id : int;
  trace : string; (* hex trace id *)
  parent : int option;
  name : string;
  depth : int;
  start_us : float;
  dur_us : float;
  error : bool;
  attrs : (string * string) list;
}

let span_of_line line =
  match Json.parse line with
  | None -> None
  | Some j -> (
    let f k = Json.to_float (Json.member k j) in
    let s k = Json.to_string (Json.member k j) in
    match f "id", s "name", s "trace", f "start_us", f "dur_us" with
    | Some id, Some name, Some trace, Some start_us, Some dur_us ->
      let parent =
        match Json.member "parent" j with
        | Some (Json.Number p) -> Some (int_of_float p)
        | _ -> None
      in
      let depth =
        match f "depth" with Some d -> int_of_float d | None -> 0
      in
      let attrs =
        match Json.member "attrs" j with
        | Some (Json.Object fields) ->
          List.filter_map
            (fun (k, v) ->
              match v with Json.String s -> Some (k, s) | _ -> None)
            fields
        | _ -> []
      in
      let error = List.assoc_opt "error" attrs = Some "1" in
      Some
        { id = int_of_float id; trace; parent; name; depth; start_us;
          dur_us; error; attrs }
    | _ -> None)

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let spans = ref [] and skipped = ref 0 in
      (try
         while true do
           let line = input_line ic in
           if String.trim line <> "" then
             match span_of_line line with
             | Some sp -> spans := sp :: !spans
             | None -> incr skipped
         done
       with End_of_file -> ());
      List.rev !spans, !skipped)

(* --- trace trees -------------------------------------------------- *)

type node = { span : span; mutable children : node list }

type trace = {
  trace_id : string;
  roots : node list; (* parent = None *)
  orphans : span list; (* parent id missing from this trace *)
  size : int;
}

let assemble spans =
  let by_trace : (string, span list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun sp ->
      match Hashtbl.find_opt by_trace sp.trace with
      | Some l -> l := sp :: !l
      | None -> Hashtbl.add by_trace sp.trace (ref [ sp ]))
    spans;
  Hashtbl.fold
    (fun trace_id l acc ->
      let spans = List.rev !l in
      let nodes : (int, node) Hashtbl.t = Hashtbl.create 64 in
      List.iter
        (fun sp -> Hashtbl.replace nodes sp.id { span = sp; children = [] })
        spans;
      let roots = ref [] and orphans = ref [] in
      List.iter
        (fun sp ->
          let node = Hashtbl.find nodes sp.id in
          match sp.parent with
          | None -> roots := node :: !roots
          | Some p -> (
            match Hashtbl.find_opt nodes p with
            | Some pn -> pn.children <- node :: pn.children
            | None -> orphans := sp :: !orphans))
        spans;
      let rec order n =
        n.children <-
          List.sort
            (fun a b -> compare a.span.start_us b.span.start_us)
            n.children;
        List.iter order n.children
      in
      List.iter order !roots;
      { trace_id; roots = List.rev !roots; orphans = List.rev !orphans;
        size = List.length spans }
      :: acc)
    by_trace []
  |> List.sort (fun a b -> compare b.size a.size)

(* --- per-name stats (exact quantiles from raw durations) ---------- *)

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

let exact_quantile sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else begin
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    let rank = if rank < 1 then 1 else if rank > n then n else rank in
    sorted.(rank - 1)
  end

let by_name spans =
  let tbl : (string, float list ref * int ref) Hashtbl.t =
    Hashtbl.create 32
  in
  List.iter
    (fun sp ->
      let durs, errs =
        match Hashtbl.find_opt tbl sp.name with
        | Some cell -> cell
        | None ->
          let cell = ref [], ref 0 in
          Hashtbl.add tbl sp.name cell;
          cell
      in
      durs := sp.dur_us :: !durs;
      if sp.error then incr errs)
    spans;
  Hashtbl.fold
    (fun sname (durs, errs) acc ->
      let a = Array.of_list !durs in
      Array.sort compare a;
      let n = Array.length a in
      let total = Array.fold_left ( +. ) 0.0 a in
      {
        sname;
        count = n;
        errors = !errs;
        mean_us = (if n = 0 then 0.0 else total /. float_of_int n);
        p50_us = exact_quantile a 0.50;
        p90_us = exact_quantile a 0.90;
        p99_us = exact_quantile a 0.99;
        p999_us = exact_quantile a 0.999;
        max_dur_us = (if n = 0 then 0.0 else a.(n - 1));
        total_us = total;
      }
      :: acc)
    tbl []
  |> List.sort (fun a b -> compare b.total_us a.total_us)

(* --- layer attribution -------------------------------------------- *)

(* Self time (duration minus closed child durations, clamped at 0 —
   children may overlap when fanned out across domains) bucketed by
   subsystem.  "queueing" is the scheduler/event-queue self time of
   the simulation driver around the protocol work it dispatches. *)
let layer_of name =
  let prefix =
    match String.index_opt name '.' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  match prefix with
  | "pairing" | "tate" | "ibs" | "dvs" | "agg" | "ec" -> "pairing"
  | "merkle" | "hash" | "sha256" -> "hash"
  | "transport" | "endpoint" | "wire" -> "transport"
  | "audit" | "agency" -> "audit"
  | "compute" | "cloud" -> "compute"
  | "user" | "storage" | "signer" | "dynamic" -> "storage"
  | "sim" | "stats" | "parallel" | "service" -> "queueing"
  | _ -> "other"

let layers spans =
  let child_sum : (int, float) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      match sp.parent with
      | None -> ()
      | Some p ->
        Hashtbl.replace child_sum p
          (sp.dur_us
          +. Option.value ~default:0.0 (Hashtbl.find_opt child_sum p)))
    spans;
  let acc : (string, float) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun sp ->
      let self =
        Float.max 0.0
          (sp.dur_us
          -. Option.value ~default:0.0 (Hashtbl.find_opt child_sum sp.id))
      in
      let l = layer_of sp.name in
      Hashtbl.replace acc l
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt acc l)))
    spans;
  Hashtbl.fold (fun l v acc -> (l, v) :: acc) acc []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

(* --- critical path ------------------------------------------------ *)

type path_step = { step : span; self_us : float }

let critical_path node =
  let rec go n acc =
    let child_sum =
      List.fold_left (fun s c -> s +. c.span.dur_us) 0.0 n.children
    in
    let step =
      { step = n.span; self_us = Float.max 0.0 (n.span.dur_us -. child_sum) }
    in
    match n.children with
    | [] -> List.rev (step :: acc)
    | cs ->
      let widest =
        List.fold_left
          (fun best c ->
            if c.span.dur_us > best.span.dur_us then c else best)
          (List.hd cs) (List.tl cs)
      in
      go widest (step :: acc)
  in
  go node []

(* --- whole-file report -------------------------------------------- *)

type report = {
  spans : int;
  skipped_lines : int;
  traces : int;
  roots : int;
  orphans : int;
  errors : int;
  wall_us : float;
  audits : int;
  audits_per_sec : float;
  rpc_spans : int;
  rpc_campaign_coverage : float;
  stats : name_stats list;
  layer_us : (string * float) list;
  critical : (string * path_step list) option;
}

let audit_span_name = "sim.audit"
let rpc_span_name = "transport.rpc"
let campaign_span_name = "sim.campaign"

let analyze ?(skipped_lines = 0) spans =
  let traces = assemble spans in
  let wall_us =
    match spans with
    | [] -> 0.0
    | _ ->
      let lo =
        List.fold_left (fun m sp -> Float.min m sp.start_us) Float.infinity
          spans
      and hi =
        List.fold_left
          (fun m sp -> Float.max m (sp.start_us +. sp.dur_us))
          Float.neg_infinity spans
      in
      Float.max 0.0 (hi -. lo)
  in
  let count name =
    List.length (List.filter (fun sp -> sp.name = name) spans)
  in
  let audits = count audit_span_name in
  let campaign_traces =
    List.filter_map
      (fun sp -> if sp.name = campaign_span_name then Some sp.trace else None)
      spans
  in
  let rpcs = List.filter (fun sp -> sp.name = rpc_span_name) spans in
  let rpc_in_campaign =
    List.length
      (List.filter (fun sp -> List.mem sp.trace campaign_traces) rpcs)
  in
  let critical =
    (* widest root of the biggest trace that has any roots *)
    let rec first_rooted = function
      | [] -> None
      | (t : trace) :: rest -> (
        match t.roots with
        | [] -> first_rooted rest
        | r :: rs ->
          let widest =
            List.fold_left
              (fun best c ->
                if c.span.dur_us > best.span.dur_us then c else best)
              r rs
          in
          Some (t.trace_id, critical_path widest))
    in
    first_rooted traces
  in
  {
    spans = List.length spans;
    skipped_lines;
    traces = List.length traces;
    roots =
      List.fold_left (fun a (t : trace) -> a + List.length t.roots) 0 traces;
    orphans =
      List.fold_left
        (fun a (t : trace) -> a + List.length t.orphans)
        0 traces;
    errors = List.length (List.filter (fun sp -> sp.error) spans);
    wall_us;
    audits;
    audits_per_sec =
      (if wall_us > 0.0 then float_of_int audits /. (wall_us /. 1e6)
       else 0.0);
    rpc_spans = List.length rpcs;
    rpc_campaign_coverage =
      (if rpcs = [] then 1.0
       else float_of_int rpc_in_campaign /. float_of_int (List.length rpcs));
    stats = by_name spans;
    layer_us = layers spans;
    critical;
  }

(* --- SLO checks ---------------------------------------------------
   One assertion per line:   METRIC OP VALUE
     p50(NAME) p90(NAME) p99(NAME) p999(NAME)   µs quantile of spans NAME
     mean(NAME)  max(NAME)                      µs
     count(NAME)  errors(NAME)  errors("*")    span counts
     attr(NAME.KEY)        sum of numeric attr KEY over spans NAME
     open_spans            spans whose parent never closed (orphans)
     rpc_campaign_coverage fraction of transport.rpc spans in a trace
                           that contains a sim.campaign root
     audits_per_sec
   OP ∈ { <= >= = < > };  '#' starts a comment. *)

let split_call s =
  (* "p99(transport.rpc)" -> Some ("p99", "transport.rpc") *)
  match String.index_opt s '(' with
  | Some i when String.length s > 0 && s.[String.length s - 1] = ')' ->
    Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 2))
  | _ -> None

let eval_metric report spans m =
  let stat name = List.find_opt (fun st -> st.sname = name) report.stats in
  let quantile name pick =
    match stat name with Some st -> pick st | None -> Float.nan
  in
  match m with
  | "open_spans" -> Ok (float_of_int report.orphans)
  | "rpc_campaign_coverage" -> Ok report.rpc_campaign_coverage
  | "audits_per_sec" -> Ok report.audits_per_sec
  | _ -> (
    match split_call m with
    | None -> Error (Printf.sprintf "unknown SLO metric %S" m)
    | Some (fn, arg) -> (
      match fn with
      | "p50" -> Ok (quantile arg (fun st -> st.p50_us))
      | "p90" -> Ok (quantile arg (fun st -> st.p90_us))
      | "p99" -> Ok (quantile arg (fun st -> st.p99_us))
      | "p999" -> Ok (quantile arg (fun st -> st.p999_us))
      | "mean" -> Ok (quantile arg (fun st -> st.mean_us))
      | "max" -> Ok (quantile arg (fun st -> st.max_dur_us))
      | "count" ->
        Ok
          (match stat arg with
          | Some st -> float_of_int st.count
          | None -> 0.0)
      | "errors" ->
        Ok
          (if arg = "*" then float_of_int report.errors
           else
             match stat arg with
             | Some st -> float_of_int st.errors
             | None -> 0.0)
      | "attr" -> (
        (* attr(NAME.KEY): NAME may itself contain dots — split at the
           last one. *)
        match String.rindex_opt arg '.' with
        | None -> Error (Printf.sprintf "attr needs NAME.KEY, got %S" arg)
        | Some i ->
          let name = String.sub arg 0 i
          and key = String.sub arg (i + 1) (String.length arg - i - 1) in
          Ok
            (List.fold_left
               (fun acc sp ->
                 if sp.name <> name then acc
                 else
                   match List.assoc_opt key sp.attrs with
                   | Some v -> (
                     match float_of_string_opt v with
                     | Some f -> acc +. f
                     | None -> acc)
                   | None -> acc)
               0.0 spans))
      | _ -> Error (Printf.sprintf "unknown SLO function %S" fn)))

(* The METRIC OP VALUE grammar lives in {!Slo}; this wires its lookup
   to the trace report's metric namespace. *)
let check_slos report spans content =
  Slo.check ~lookup:(eval_metric report spans) content

(* --- export ------------------------------------------------------- *)

let stats_json st =
  Json.obj
    [
      "count", Json.int st.count;
      "errors", Json.int st.errors;
      "mean_us", Json.float st.mean_us;
      "p50_us", Json.float st.p50_us;
      "p90_us", Json.float st.p90_us;
      "p99_us", Json.float st.p99_us;
      "p999_us", Json.float st.p999_us;
      "max_us", Json.float st.max_dur_us;
      "total_us", Json.float st.total_us;
    ]

let report_json ?(slos = []) r =
  Json.obj
    ([
       "spans", Json.int r.spans;
       "skipped_lines", Json.int r.skipped_lines;
       "traces", Json.int r.traces;
       "roots", Json.int r.roots;
       "open_spans", Json.int r.orphans;
       "errors", Json.int r.errors;
       "wall_us", Json.float r.wall_us;
       "audits", Json.int r.audits;
       "audits_per_sec", Json.float r.audits_per_sec;
       "rpc_spans", Json.int r.rpc_spans;
       "rpc_campaign_coverage", Json.float r.rpc_campaign_coverage;
       ( "per_protocol",
         Json.obj (List.map (fun st -> st.sname, stats_json st) r.stats) );
       ( "layers_us",
         Json.obj
           (List.map (fun (l, v) -> l, Json.float v) r.layer_us) );
       ( "critical_path",
         match r.critical with
         | None -> Json.arr []
         | Some (_, steps) ->
           Json.arr
             (List.map
                (fun { step; self_us } ->
                  Json.obj
                    [
                      "name", Json.str step.name;
                      "dur_us", Json.float step.dur_us;
                      "self_us", Json.float self_us;
                    ])
                steps) );
     ]
    @
    if slos = [] then []
    else
      [
        "slo", Slo.json slos;
        "slo_pass", (if Slo.all_pass slos then "true" else "false");
      ])

let print_report oc ?(slos = []) r =
  Printf.fprintf oc
    "trace file: %d spans, %d traces, %d roots, %d open/orphaned, %d errors%s\n"
    r.spans r.traces r.roots r.orphans r.errors
    (if r.skipped_lines > 0 then
       Printf.sprintf " (%d unparsed lines)" r.skipped_lines
     else "");
  Printf.fprintf oc "wall: %.1f ms   audits: %d (%.1f audits/sec)\n"
    (r.wall_us /. 1e3) r.audits r.audits_per_sec;
  Printf.fprintf oc "rpc spans: %d  campaign-trace coverage: %.3f\n"
    r.rpc_spans r.rpc_campaign_coverage;
  Printf.fprintf oc "\nper-protocol latency (us):\n";
  Printf.fprintf oc "  %-28s %7s %7s %9s %9s %9s %9s\n" "span" "count"
    "errors" "p50" "p90" "p99" "mean";
  List.iter
    (fun st ->
      Printf.fprintf oc "  %-28s %7d %7d %9.1f %9.1f %9.1f %9.1f\n" st.sname
        st.count st.errors st.p50_us st.p90_us st.p99_us st.mean_us)
    r.stats;
  Printf.fprintf oc "\nself-time by layer (us):\n";
  List.iter
    (fun (l, v) -> Printf.fprintf oc "  %-12s %12.1f\n" l v)
    r.layer_us;
  (match r.critical with
  | None -> ()
  | Some (trace_id, steps) ->
    Printf.fprintf oc "\ncritical path (trace %s):\n"
      (String.sub trace_id 0 (min 16 (String.length trace_id)));
    List.iter
      (fun { step; self_us } ->
        Printf.fprintf oc "  %s%-26s %9.1f us (self %.1f)\n"
          (String.make (2 * step.depth) ' ')
          step.name step.dur_us self_us)
      steps);
  if slos <> [] then begin
    Printf.fprintf oc "\nSLOs:\n";
    List.iter
      (fun (s : Slo.check) ->
        Printf.fprintf oc "  [%s] %-44s actual %.3f\n"
          (if s.pass then "ok" else "FAIL")
          s.expr s.actual)
      slos
  end
