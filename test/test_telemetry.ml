(* Telemetry layer: registry semantics, span nesting, exporters, and
   the pairing-cost invariants the observability PR is meant to lock
   in (one aggregate equation per batched audit, not 2t pairings). *)

module Telemetry = Sc_telemetry.Telemetry
module Tate = Sc_pairing.Tate

open Util

(* ------------------------------------------------------------------ *)
(* Tiny JSON field scraping for JSONL trace lines (no json parser in
   the test deps; the emitter writes flat one-line objects).           *)
(* ------------------------------------------------------------------ *)

let field line key =
  let marker = Printf.sprintf "\"%s\":" key in
  let mlen = String.length marker in
  let rec find i =
    if i + mlen > String.length line then None
    else if String.sub line i mlen = marker then Some (i + mlen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
    let stop = ref start in
    let depth = ref 0 in
    let in_str = ref false in
    (try
       while true do
         let c = line.[!stop] in
         (if !in_str then (
            if c = '\\' then incr stop
            else if c = '"' then in_str := false)
          else
            match c with
            | '"' -> in_str := true
            | '{' | '[' -> incr depth
            | '}' | ']' when !depth > 0 -> decr depth
            | ',' | '}' | ']' -> raise Exit
            | _ -> ());
         incr stop
       done
     with Exit | Invalid_argument _ -> ());
    Some (String.sub line start (!stop - start))

let float_field line key =
  match field line key with
  | Some s -> float_of_string s
  | None -> Alcotest.failf "field %s missing in %s" key line

let counters =
  [
    case "incr and add accumulate" (fun () ->
        let c = Telemetry.counter "test.counter.a" in
        Telemetry.reset_counter c;
        Telemetry.incr c;
        Telemetry.incr c;
        Telemetry.add c 40;
        check Alcotest.int "value" 42 (Telemetry.value c));
    case "same name interns to the same counter" (fun () ->
        let a = Telemetry.counter "test.counter.intern" in
        let b = Telemetry.counter "test.counter.intern" in
        Telemetry.reset_counter a;
        Telemetry.incr a;
        check Alcotest.int "visible via second handle" 1 (Telemetry.value b));
    case "counter_value of absent name is 0" (fun () ->
        check Alcotest.int "absent" 0
          (Telemetry.counter_value "test.counter.never-created"));
    case "kind mismatch is rejected" (fun () ->
        ignore (Telemetry.counter "test.kind.clash");
        match Telemetry.gauge "test.kind.clash" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    case "reset () zeroes values but keeps handles live" (fun () ->
        let c = Telemetry.counter "test.counter.reset" in
        Telemetry.add c 7;
        Telemetry.reset ();
        check Alcotest.int "zeroed" 0 (Telemetry.value c);
        Telemetry.incr c;
        check Alcotest.int "handle survives" 1
          (Telemetry.counter_value "test.counter.reset"));
  ]

let histograms =
  [
    case "bucket boundaries: first bound with v <= bound" (fun () ->
        let h =
          Telemetry.histogram ~buckets:[| 1.0; 10.0; 100.0 |] "test.hist.b"
        in
        List.iter (Telemetry.observe h) [ 0.5; 1.0; 1.5; 10.0; 99.9; 1000.0 ];
        match Telemetry.find "test.hist.b" with
        | Some (Telemetry.Histogram s) ->
          check Alcotest.(array (float 0.0)) "bounds" [| 1.0; 10.0; 100.0 |]
            s.Telemetry.bounds;
          check Alcotest.(array int) "counts incl. overflow" [| 2; 2; 1; 1 |]
            s.Telemetry.counts;
          check Alcotest.int "count" 6 s.Telemetry.count;
          check Alcotest.(float 1e-9) "sum" 1112.9 s.Telemetry.sum
        | _ -> Alcotest.fail "histogram not found");
    case "snapshot is isolated from later mutation" (fun () ->
        let c = Telemetry.counter "test.counter.snap" in
        Telemetry.reset_counter c;
        Telemetry.add c 3;
        let snap = Telemetry.snapshot () in
        Telemetry.add c 100;
        match List.assoc_opt "test.counter.snap" snap with
        | Some (Telemetry.Counter v) -> check Alcotest.int "frozen" 3 v
        | _ -> Alcotest.fail "counter missing from snapshot");
    case "dump_json mentions registered metrics" (fun () ->
        ignore (Telemetry.counter "test.counter.dumped");
        let js = Telemetry.dump_json () in
        check Alcotest.bool "object" true (String.length js > 0 && js.[0] = '{');
        let contains s sub =
          let n = String.length sub in
          let rec go i =
            i + n <= String.length s
            && (String.sub s i n = sub || go (i + 1))
          in
          go 0
        in
        check Alcotest.bool "has name" true
          (contains js "\"test.counter.dumped\""));
  ]

let spans =
  [
    case "nesting: parent id, depth, ordering, duration" (fun () ->
        let lines = ref [] in
        Telemetry.set_sink (Some (fun l -> lines := l :: !lines));
        Fun.protect
          ~finally:(fun () -> Telemetry.set_sink None)
          (fun () ->
            Telemetry.with_span ~name:"outer" (fun () ->
                check Alcotest.int "depth inside outer" 1
                  (Telemetry.current_depth ());
                Telemetry.with_span ~name:"inner"
                  ~attrs:[ "k", "v" ]
                  (fun () ->
                    check Alcotest.int "depth inside inner" 2
                      (Telemetry.current_depth ()))));
        check Alcotest.int "depth restored" 0 (Telemetry.current_depth ());
        match List.rev !lines with
        | [ inner; outer ] ->
          (* children close (and emit) before their parent *)
          check Alcotest.(option string) "inner name" (Some "\"inner\"")
            (field inner "name");
          check Alcotest.(option string) "outer parent null" (Some "null")
            (field outer "parent");
          check Alcotest.(option string) "inner parent = outer id"
            (field outer "id") (field inner "parent");
          check Alcotest.(option string) "outer depth" (Some "0")
            (field outer "depth");
          check Alcotest.(option string) "inner depth" (Some "1")
            (field inner "depth");
          check Alcotest.(option string) "attrs survive"
            (Some {|{"k":"v"}|}) (field inner "attrs");
          let s_out = float_field outer "start_us"
          and s_in = float_field inner "start_us"
          and d_out = float_field outer "dur_us"
          and d_in = float_field inner "dur_us" in
          check Alcotest.bool "child starts after parent" true
            (s_in >= s_out -. 1e-6 -. (1e-5 *. Float.max s_out 1.0));
          (* The JSON trace prints timestamps with 6 significant
             digits, so late in a long test run the quantization step
             exceeds any fixed epsilon; allow the relative error. *)
          check Alcotest.bool "child within parent" true
            (s_in +. d_in
            <= (s_out +. d_out +. 1e-6)
               +. (1e-5 *. Float.max (s_out +. d_out) 1.0))
        | ls -> Alcotest.failf "expected 2 trace lines, got %d" (List.length ls));
    case "with_span observes span.<name> histogram" (fun () ->
        Telemetry.reset ();
        let r = Telemetry.with_span ~name:"timed" (fun () -> 41 + 1) in
        check Alcotest.int "returns body result" 42 r;
        match Telemetry.find "span.timed" with
        | Some (Telemetry.Histogram s) ->
          check Alcotest.int "one observation" 1 s.Telemetry.count;
          check Alcotest.bool "non-negative duration" true
            (s.Telemetry.sum >= 0.0)
        | _ -> Alcotest.fail "span histogram missing");
    case "stack unwinds on exception" (fun () ->
        (try
           Telemetry.with_span ~name:"boom" (fun () -> failwith "boom")
         with Failure _ -> ());
        check Alcotest.int "depth back to 0" 0 (Telemetry.current_depth ()));
  ]

(* ------------------------------------------------------------------ *)
(* End-to-end cost accounting: the registry must report the batched
   audit at one aggregate pairing equation, not 2t pairings.           *)
(* ------------------------------------------------------------------ *)

let e2e =
  [
    case "Ibs.verify costs exactly one pairing equation" (fun () ->
        let system = Lazy.force shared_system in
        let pub = Seccloud.System.public system in
        let key = Seccloud.System.register_user system "tel-alice" in
        let s = Sc_ibc.Ibs.sign pub key ~bytes_source:bs "tel-msg" in
        let p0 = Tate.pairings_performed () in
        check Alcotest.bool "verifies" true
          (Sc_ibc.Ibs.verify pub ~signer:"tel-alice" ~msg:"tel-msg" s);
        check Alcotest.int "one equation" 1 (Tate.pairings_performed () - p0));
    case "batched storage audit is 1 multi-pairing, not 2t" (fun () ->
        let system = Lazy.force shared_system in
        let user = Seccloud.User.create system ~id:"tel-owner" in
        let cloud = Seccloud.Cloud.create system ~id:"cs-1" () in
        let payloads =
          List.init 16 (fun i ->
              Sc_storage.Block.encode_ints (List.init 4 (fun j -> i + j)))
        in
        check Alcotest.bool "stored" true
          (Seccloud.User.store user cloud ~file:"tel-file" payloads);
        let da = Seccloud.Agency.create system in
        let samples = 8 in
        let p0 = Tate.pairings_performed () in
        let report =
          Seccloud.Agency.audit_storage da cloud ~owner:"tel-owner"
            ~file:"tel-file" ~samples
        in
        check Alcotest.bool "intact" true report.Seccloud.Agency.intact;
        check Alcotest.int "one aggregate equation" 1
          (Tate.pairings_performed () - p0));
    case "pairing breakdown counters reconcile with the total" (fun () ->
        let total = Telemetry.counter_value "pairing.count" in
        let parts =
          Telemetry.counter_value "pairing.single"
          + Telemetry.counter_value "pairing.multi"
        in
        check Alcotest.int "total = single + multi" total parts);
  ]

(* ------------------------------------------------------------------ *)
(* HDR quantiles: the log-bucketed estimator must stay within the
   documented 5% relative error of the exact nearest-rank quantile.   *)
(* ------------------------------------------------------------------ *)

let exact_quantile sorted p =
  let n = Array.length sorted in
  let rank = max 1 (min n (int_of_float (ceil (p *. float_of_int n)))) in
  sorted.(rank - 1)

let quantiles =
  let module Registry = Sc_telemetry.Registry in
  let module Gen = QCheck2.Gen in
  let h = Telemetry.histogram ~buckets:(Telemetry.log_buckets ()) "test.hdr" in
  (* Log-uniform samples clear of the first bucket's implied lower
     edge and of the overflow clamp. *)
  let gen_samples =
    Gen.(list_size (int_range 1 300) (map (fun x -> 10. ** x) (float_range (-1.8) 6.0)))
  in
  [
    case "quantile of an empty histogram is NaN-free zero count" (fun () ->
        Registry.reset_histogram h;
        match Telemetry.find "test.hdr" with
        | Some (Telemetry.Histogram s) ->
          check Alcotest.int "empty" 0 s.Telemetry.count
        | _ -> Alcotest.fail "histogram missing");
    Util.qcheck ~count:150
      "hdr quantile is within 5% of the exact nearest-rank quantile"
      QCheck2.Gen.(pair gen_samples (float_range 0.01 0.999))
      (fun (samples, p) ->
        Registry.reset_histogram h;
        List.iter (Telemetry.observe h) samples;
        let sorted = Array.of_list samples in
        Array.sort compare sorted;
        let exact = exact_quantile sorted p in
        let est =
          match Telemetry.find "test.hdr" with
          | Some (Telemetry.Histogram s) -> Telemetry.quantile s p
          | _ -> nan
        in
        Float.abs (est -. exact) <= (0.0501 *. exact) +. 1e-9);
  ]

(* ------------------------------------------------------------------ *)
(* Labeled families: bounded cardinality, sanitization, canonical
   registry cell names.                                               *)
(* ------------------------------------------------------------------ *)

let labels =
  let module Labels = Sc_telemetry.Labels in
  [
    case "cells intern under family{label=\"value\"}" (fun () ->
        let v = Labels.counter_vec ~label:"kind" "test.labels.basic" in
        Labels.incr v "upload";
        Labels.add v "upload" 2;
        Labels.incr v "ack";
        check Alcotest.int "upload cell" 3
          (Telemetry.counter_value "test.labels.basic{kind=\"upload\"}");
        check Alcotest.int "ack cell" 1
          (Telemetry.counter_value "test.labels.basic{kind=\"ack\"}");
        check Alcotest.int "cardinality" 2 (Labels.cardinality v));
    case "cardinality bound spills to the shared other cell" (fun () ->
        let v =
          Labels.counter_vec ~max_cells:4 ~label:"k" "test.labels.bounded"
        in
        for i = 1 to 10 do
          Labels.incr v (Printf.sprintf "v%d" i)
        done;
        check Alcotest.int "cardinality capped" 4 (Labels.cardinality v);
        check Alcotest.int "overflow cell absorbs the rest" 6
          (Telemetry.counter_value "test.labels.bounded{k=\"other\"}");
        check Alcotest.bool "overflow counter bumped" true
          (Telemetry.counter_value "telemetry.labels.overflow" >= 6));
    case "hostile label values are sanitized" (fun () ->
        let v = Labels.counter_vec ~label:"k" "test.labels.sane" in
        Labels.incr v "we ird\"}\n";
        check Alcotest.int "quoted metacharacters neutralized" 1
          (Telemetry.counter_value "test.labels.sane{k=\"we_ird___\"}"));
  ]

(* ------------------------------------------------------------------ *)
(* OpenMetrics exposition                                             *)
(* ------------------------------------------------------------------ *)

let openmetrics =
  let module Labels = Sc_telemetry.Labels in
  [
    case "render emits typed families, cumulative buckets and EOF" (fun () ->
        Telemetry.reset ();
        let c = Telemetry.counter "test.om.events" in
        Telemetry.add c 5;
        let v = Labels.counter_vec ~label:"kind" "test.om.byk" in
        Labels.incr v "a";
        Labels.incr v "b";
        let h =
          Telemetry.histogram ~buckets:[| 1.0; 10.0 |] "test.om.lat"
        in
        Telemetry.observe h 0.5;
        Telemetry.observe h 5.0;
        let text = Sc_telemetry.Openmetrics.render () in
        let has s =
          let sl = String.length s and tl = String.length text in
          let rec go i = i + sl <= tl && (String.sub text i sl = s || go (i + 1)) in
          check Alcotest.bool (Printf.sprintf "contains %S" s) true (go 0)
        in
        has "# TYPE test_om_events counter";
        has "test_om_events_total 5";
        has "test_om_byk_total{kind=\"a\"} 1";
        has "test_om_byk_total{kind=\"b\"} 1";
        has "# TYPE test_om_lat histogram";
        has "test_om_lat_bucket{le=\"1\"} 1";
        has "test_om_lat_bucket{le=\"+Inf\"} 2";
        has "test_om_lat_count 2";
        let rec last_line i =
          if i <= 0 then text
          else if text.[i - 1] = '\n' then String.sub text i (String.length text - i)
          else last_line (i - 1)
        in
        let trimmed = String.trim text in
        let _ = last_line in
        check Alcotest.bool "ends with EOF" true
          (String.length trimmed >= 5
          && String.sub trimmed (String.length trimmed - 5) 5 = "# EOF"));
  ]

(* ------------------------------------------------------------------ *)
(* Tracing: error tagging, open-span accounting, attrs, contexts      *)
(* ------------------------------------------------------------------ *)

let tracing =
  [
    case "exception tags the span error=1, bumps errors counter, re-raises"
      (fun () ->
        Telemetry.reset ();
        let lines = ref [] in
        Telemetry.set_sink (Some (fun l -> lines := l :: !lines));
        Fun.protect
          ~finally:(fun () -> Telemetry.set_sink None)
          (fun () ->
            (try
               Telemetry.with_span ~name:"failing" (fun () ->
                   failwith "kaboom")
             with Failure _ -> ()));
        check Alcotest.int "errors counter" 1
          (Telemetry.counter_value "span.failing.errors");
        check Alcotest.int "open spans drained" 0 (Telemetry.open_spans ());
        match !lines with
        | [ line ] ->
          check Alcotest.bool "error attr emitted" true
            (match field line "attrs" with
            | Some attrs ->
              let m = {|"error":"1"|} in
              let ml = String.length m in
              let rec go i =
                i + ml <= String.length attrs
                && (String.sub attrs i ml = m || go (i + 1))
              in
              go 0
            | None -> false)
        | ls -> Alcotest.failf "expected 1 line, got %d" (List.length ls));
    case "open_spans counts live spans across nesting" (fun () ->
        check Alcotest.int "none open" 0 (Telemetry.open_spans ());
        Telemetry.with_span ~name:"a" (fun () ->
            Telemetry.with_span ~name:"b" (fun () ->
                check Alcotest.int "two open" 2 (Telemetry.open_spans ())));
        check Alcotest.int "drained" 0 (Telemetry.open_spans ()));
    case "add_attr lands on the innermost open span" (fun () ->
        let lines = ref [] in
        Telemetry.set_sink (Some (fun l -> lines := l :: !lines));
        Fun.protect
          ~finally:(fun () -> Telemetry.set_sink None)
          (fun () ->
            Telemetry.with_span ~name:"outcomey" (fun () ->
                Telemetry.add_attr "outcome" "ok"));
        match !lines with
        | [ line ] ->
          check Alcotest.(option string) "attr present"
            (Some {|{"outcome":"ok"}|}) (field line "attrs")
        | ls -> Alcotest.failf "expected 1 line, got %d" (List.length ls));
    case "nested spans share one trace id; siblings of one request too"
      (fun () ->
        let lines = ref [] in
        Telemetry.set_sink (Some (fun l -> lines := l :: !lines));
        Fun.protect
          ~finally:(fun () -> Telemetry.set_sink None)
          (fun () ->
            Telemetry.with_span ~name:"root" (fun () ->
                Telemetry.with_span ~name:"kid1" (fun () -> ());
                Telemetry.with_span ~name:"kid2" (fun () -> ())));
        match List.filter_map (fun l -> field l "trace") !lines with
        | [ t1; t2; t3 ] ->
          check Alcotest.string "kid1 = root" t3 t1;
          check Alcotest.string "kid2 = root" t3 t2
        | _ -> Alcotest.fail "expected 3 traced lines");
    case "with_context grafts a root span onto a remote trace" (fun () ->
        let ctx =
          {
            Telemetry.trace = Sc_telemetry.Trace_context.fresh_trace ();
            span = 424242;
          }
        in
        let lines = ref [] in
        Telemetry.set_sink (Some (fun l -> lines := l :: !lines));
        Fun.protect
          ~finally:(fun () -> Telemetry.set_sink None)
          (fun () ->
            Telemetry.with_context (Some ctx) (fun () ->
                Telemetry.with_span ~name:"grafted" (fun () -> ())));
        match !lines with
        | [ line ] ->
          check Alcotest.(option string) "remote trace id"
            (Some
               (Printf.sprintf "%S"
                  (Sc_telemetry.Trace_context.to_hex ctx.Telemetry.trace)))
            (field line "trace");
          check Alcotest.(option string) "remote parent span"
            (Some "424242") (field line "parent")
        | ls -> Alcotest.failf "expected 1 line, got %d" (List.length ls));
  ]

(* ------------------------------------------------------------------ *)
(* The JSON reader used by the trace analyzer                          *)
(* ------------------------------------------------------------------ *)

let json_parser =
  let module Json = Sc_telemetry.Json in
  [
    case "parses an emitted span line back structurally" (fun () ->
        let line =
          {|{"name":"x","id":7,"parent":null,"depth":0,"trace":"ab12",|}
          ^ {|"start_us":1.5,"dur_us":2.25,"attrs":{"k":"v"}}|}
        in
        match Json.parse line with
        | Some (Json.Object fields) ->
          check Alcotest.(option string) "name" (Some "x")
            (Json.to_string (List.assoc_opt "name" fields));
          check
            Alcotest.(option (float 1e-9))
            "dur" (Some 2.25)
            (Json.to_float (List.assoc_opt "dur_us" fields));
          check Alcotest.bool "parent is null" true
            (List.assoc_opt "parent" fields = Some Json.Null);
          (match List.assoc_opt "attrs" fields with
          | Some (Json.Object [ ("k", Json.String "v") ]) -> ()
          | _ -> Alcotest.fail "attrs wrong")
        | _ -> Alcotest.fail "parse failed");
    case "malformed lines parse to None, never raise" (fun () ->
        List.iter
          (fun s ->
            check Alcotest.bool s true (Json.parse s = None))
          [ "{"; "{\"a\":}"; "[1,"; "\"unterminated"; "{\"a\":1,}"; "nope" ]);
  ]

(* Every span a library opens must land in a named layer: a span whose
   prefix maps to [other] hides its self time from the per-layer cost
   model.  Lists the literal [~name:"…"] (or the literal head of a
   [~name:("prefix." ^ …)]) of each [with_span] call in every .ml
   under lib/. *)
let layers =
  let rec ml_files dir =
    Array.fold_left
      (fun acc entry ->
        let path = Filename.concat dir entry in
        if Sys.is_directory path then ml_files path @ acc
        else if Filename.check_suffix entry ".ml" then path :: acc
        else acc)
      [] (Sys.readdir dir)
  in
  let read_file path = In_channel.with_open_bin path In_channel.input_all in
  (* The string literal opening at or after [i] (past blanks and one
     parenthesis), if that is what follows. *)
  let literal_at src i =
    let n = String.length src in
    let rec skip i =
      if i < n && (src.[i] = ' ' || src.[i] = '(') then skip (i + 1) else i
    in
    let i = skip i in
    if i < n && src.[i] = '"' then
      Option.map
        (fun j -> String.sub src (i + 1) (j - i - 1))
        (String.index_from_opt src (i + 1) '"')
    else None
  in
  (* The [~name:] argument of each [with_span] call, which may sit on
     the next line; other labelled [~name]s are not span names. *)
  let span_names src =
    let n = String.length src in
    let at i key = i + String.length key <= n && String.sub src i (String.length key) = key in
    let rec skip_blanks i =
      if i < n && (src.[i] = ' ' || src.[i] = '\n') then skip_blanks (i + 1) else i
    in
    let call = "with_span" and label = "~name:" in
    let rec go from acc =
      if from >= n then acc
      else if at from call then
        let j = skip_blanks (from + String.length call) in
        let acc =
          if at j label then
            match literal_at src (j + String.length label) with
            | Some name -> name :: acc
            | None -> acc
          else acc
        in
        go j acc
      else go (from + 1) acc
    in
    go 0 []
  in
  [
    case "agg spans price as pairing, dynamic spans as storage" (fun () ->
        check Alcotest.string "agg" "pairing"
          (Sc_telemetry.Trace_analysis.layer_of "agg.verify_batch");
        check Alcotest.string "dynamic" "storage"
          (Sc_telemetry.Trace_analysis.layer_of "dynamic.audit");
        check Alcotest.string "unknown" "other"
          (Sc_telemetry.Trace_analysis.layer_of "nope.span"));
    case "no span name under lib/ maps to the other layer" (fun () ->
        let lib =
          List.find_opt
            (fun r -> Sys.file_exists (Filename.concat r "lib/telemetry/trace_analysis.ml"))
            [ "."; ".."; "../.."; "../../.." ]
        in
        match lib with
        | None -> Alcotest.fail "lib/ not found from test cwd"
        | Some root ->
          let names =
            List.sort_uniq compare
              (List.concat_map
                 (fun f -> span_names (read_file f))
                 (ml_files (Filename.concat root "lib")))
          in
          check Alcotest.bool "found the library's spans" true
            (List.mem "agg.verify_batch" names && List.mem "dynamic.audit" names);
          check Alcotest.(list string) "spans in the other layer" []
            (List.filter
               (fun n -> Sc_telemetry.Trace_analysis.layer_of n = "other")
               names);
          check Alcotest.(list string) "a memo label is no span" []
            (span_names {|let m = Memo.create ~name:"warrant" in|});
          check Alcotest.(list string) "a span name on the next line" [ "x.y" ]
            (span_names "Telemetry.with_span\n      ~name:\"x.y\"\n  @@ fun () -> ()"));
  ]

let suite =
  counters @ histograms @ spans @ quantiles @ labels @ openmetrics @ tracing
  @ json_parser @ e2e @ layers
