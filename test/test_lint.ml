(* sc_lint rule fixtures: one positive and one negative case per rule,
   waiver round-trips, and a self-lint pass over the real tree.  The
   fixtures are fed as in-memory strings through Engine.lint_source, so
   the tests pin the rules' behaviour without touching the file
   system. *)

module Finding = Sc_lint_core.Finding
module Waiver = Sc_lint_core.Waiver
module Engine = Sc_lint_core.Engine

open Util

(* Lint [content] as if it lived at lib/<name> (lib/ enables the
   determinism and no-mli rules). *)
let lint_lib ?(has_mli = true) ?(name = "fixture.ml") content =
  Engine.lint_source { Engine.rel = "lib/" ^ name; content; has_mli }

let lint_bin ?(name = "fixture.ml") content =
  Engine.lint_source { Engine.rel = "bin/" ^ name; content; has_mli = true }

let rules fs = List.map (fun f -> f.Finding.rule) fs
let has_rule r fs = List.mem r (rules fs)

let no_findings name content =
  case name (fun () ->
      match lint_lib content with
      | [] -> ()
      | fs ->
        Alcotest.failf "expected no findings, got:\n%s"
          (String.concat "\n" (List.map Finding.to_string fs)))

let domain_safety =
  [
    case "toplevel ref is flagged" (fun () ->
        let fs = lint_lib "let counter = ref 0\n" in
        check Alcotest.bool "flagged" true (has_rule "domain-safety" fs);
        let f = List.hd fs in
        check Alcotest.string "key is the binding name" "counter" f.Finding.key;
        check Alcotest.int "line" 1 f.Finding.line);
    case "toplevel Hashtbl and mutable record literal are flagged" (fun () ->
        let fs =
          lint_lib
            "type t = { mutable n : int }\n\
             let cache = Hashtbl.create 16\n\
             let state = { n = 0 }\n"
        in
        check Alcotest.int "two findings" 2 (List.length fs);
        check Alcotest.bool "all domain-safety" true
          (List.for_all (fun f -> f.Finding.rule = "domain-safety") fs));
    no_findings "ref inside a function body is fine"
      "let f () =\n  let acc = ref 0 in\n  incr acc;\n  !acc\n";
    no_findings "Atomic/Mutex toplevel state is the sanctioned idiom"
      "let hits = Atomic.make 0\nlet lock = Mutex.create ()\n";
  ]

let signing_encode =
  [
    case "sprintf flowing into a hash sink is flagged" (fun () ->
        let fs =
          lint_lib
            "let h a b = Sha256.digest (Printf.sprintf \"%s|%s\" a b)\n"
        in
        check Alcotest.bool "flagged" true (has_rule "signing-encode" fs));
    case "two-fragment concat into Ibs.sign is flagged" (fun () ->
        let fs =
          lint_lib "let s pub key a b = Ibs.sign pub key (a ^ \"|\" ^ b)\n"
        in
        check Alcotest.bool "flagged" true (has_rule "signing-encode" fs);
        let f = List.find (fun f -> f.Finding.rule = "signing-encode") fs in
        check Alcotest.string "key names fn and sink" "s:Ibs.sign"
          f.Finding.key);
    case "local producer of a tainted concat is traced to the sink" (fun () ->
        let fs =
          lint_lib
            "let encode a b = a ^ \":\" ^ b\n\
             let h a b = Sha256.digest (encode a b)\n"
        in
        check Alcotest.bool "flagged" true (has_rule "signing-encode" fs));
    no_findings "single dynamic fragment with a literal prefix is injective"
      "let h id = Sha256.digest (\"id:\" ^ id)\n";
    no_findings "Encode.canonical framing is the sanctioned path"
      "let h a b = Sha256.digest (Sc_hash.Encode.canonical [ \"tag\"; a; b ])\n";
    no_findings "numeric-only sprintf cannot collide"
      "let h n = Sha256.digest (Printf.sprintf \"blk-%d\" n)\n";
  ]

let determinism =
  [
    case "Stdlib.Random in lib/ is flagged" (fun () ->
        let fs = lint_lib "let roll () = Random.int 6\n" in
        check Alcotest.bool "flagged" true (has_rule "determinism" fs));
    case "Unix.gettimeofday in lib/ is flagged with a scoped key" (fun () ->
        let fs = lint_lib "let now () = Unix.gettimeofday ()\n" in
        let f = List.find (fun f -> f.Finding.rule = "determinism") fs in
        check Alcotest.string "key" "now:Unix.gettimeofday" f.Finding.key);
    case "the same source in bin/ is allowed" (fun () ->
        let fs = lint_bin "let now () = Unix.gettimeofday ()\n" in
        check Alcotest.bool "not flagged" false (has_rule "determinism" fs));
    no_findings "DRBG-driven randomness is the sanctioned source"
      "let roll drbg = Sc_hash.Drbg.uniform_int drbg 6\n";
  ]

let secret_flow =
  [
    case "printing a secret-named ident is flagged" (fun () ->
        let fs =
          lint_lib "let debug sk = Printf.printf \"sk=%s\\n\" sk\n"
        in
        check Alcotest.bool "flagged" true (has_rule "secret-flow" fs));
    case "underscore-token match: msk reaching failwith" (fun () ->
        let fs = lint_lib "let f master_sk = failwith master_sk\n" in
        check Alcotest.bool "flagged" true (has_rule "secret-flow" fs));
    no_findings "printing non-secret state is fine"
      "let debug count = Printf.printf \"count=%d\\n\" count\n";
    no_findings "risk (contains 'sk' mid-word) is not a secret token"
      "let debug risk = Printf.printf \"risk=%s\\n\" risk\n";
  ]

let exception_discipline =
  [
    case "silent catch-all is flagged" (fun () ->
        let fs =
          lint_lib "let parse s = try int_of_string s with _ -> 0\n"
        in
        check Alcotest.bool "flagged" true (has_rule "exception-swallow" fs));
    no_findings "catch-all that re-raises is fine"
      "let f g = try g () with e -> cleanup (); raise e\n";
    no_findings "catch-all whose body uses the exception is fine"
      "let f g = try g () with e -> log (Printexc.to_string e); None\n";
    no_findings "typed handler is fine"
      "let parse s = try int_of_string s with Failure _ -> 0\n";
    no_findings "option-returning stdlib idiom is the sanctioned fix"
      "let parse s = Option.value ~default:0 (int_of_string_opt s)\n";
  ]

let naive_ladder_src =
  "let slow_mul c k p =\n\
  \  let acc = ref Curve.infinity in\n\
  \  for i = Nat.bit_length k - 1 downto 0 do\n\
  \    acc := Curve.double c !acc;\n\
  \    if Nat.test_bit k i then acc := Curve.add c !acc p\n\
  \  done;\n\
  \  !acc\n"

let naive_scalar_mul =
  [
    case "double-and-add ladder outside lib/ec is flagged informational"
      (fun () ->
        let fs = lint_bin naive_ladder_src in
        let f = List.find (fun f -> f.Finding.rule = "naive-scalar-mul") fs in
        check Alcotest.bool "info severity" true
          (f.Finding.severity = Finding.Info);
        check Alcotest.string "key is the binding name" "slow_mul"
          f.Finding.key);
    case "the same ladder inside lib/ec is the implementation, not a finding"
      (fun () ->
        let fs =
          Engine.lint_source
            { Engine.rel = "lib/ec/fixture.ml"; content = naive_ladder_src;
              has_mli = true }
        in
        check Alcotest.bool "not flagged" false
          (has_rule "naive-scalar-mul" fs));
    no_findings "going through Curve.mul is the sanctioned path"
      "let scale c k p = Curve.mul c k p\n";
    no_findings "bit scans without point doubling (serialization) are fine"
      "let bits k = List.init (Nat.bit_length k) (Nat.test_bit k)\n";
  ]

let dynamic_metric_name =
  [
    case "computed counter name is flagged informational" (fun () ->
        let fs =
          lint_lib
            "let c_for peer = Telemetry.counter (\"rpc.\" ^ peer ^ \".calls\")\n"
        in
        let f =
          List.find (fun f -> f.Finding.rule = "dynamic-metric-name") fs
        in
        check Alcotest.bool "info severity" true
          (f.Finding.severity = Finding.Info));
    case "computed with_span ~name: is flagged" (fun () ->
        let fs =
          lint_lib
            "let traced n f = Telemetry.with_span ~name:(\"op.\" ^ n) f\n"
        in
        check Alcotest.bool "flagged" true (has_rule "dynamic-metric-name" fs));
    case "lib/telemetry itself is exempt" (fun () ->
        let fs =
          Engine.lint_source
            {
              Engine.rel = "lib/telemetry/fixture.ml";
              content =
                "let h_for sp = Registry.histogram (\"span.\" ^ sp.name)\n";
              has_mli = true;
            }
        in
        check Alcotest.bool "not flagged" false
          (has_rule "dynamic-metric-name" fs));
    no_findings "literal metric names are the sanctioned shape"
      "let c = Telemetry.counter \"audit.rounds\"\n\
       let traced f = Telemetry.with_span ~name:\"audit.verify\" f\n";
    no_findings "per-key fan-out through a labeled family is sanctioned"
      "let v = Labels.counter_vec ~label:\"kind\" \"wire.tx.msgs\"\n\
       let cell k = Labels.counter v k\n";
  ]

let infra =
  [
    case "lib module without .mli yields an informational finding" (fun () ->
        let fs = lint_lib ~has_mli:false "let x = 1\n" in
        let f = List.find (fun f -> f.Finding.rule = "no-mli") fs in
        check Alcotest.bool "info severity" true
          (f.Finding.severity = Finding.Info));
    case "bin module without .mli is not reported" (fun () ->
        let fs =
          Engine.lint_source
            { Engine.rel = "bin/fixture.ml"; content = "let x = 1\n";
              has_mli = false }
        in
        check Alcotest.(list string) "no findings" [] (rules fs));
    case "syntax error becomes a parse-error finding, not an exception"
      (fun () ->
        let fs = lint_lib "let = in +++\n" in
        check Alcotest.bool "parse-error" true (has_rule "parse-error" fs));
  ]

let waiver_text =
  "((rule domain-safety)\n\
  \ (file lib/fixture.ml)\n\
  \ (key counter)\n\
  \ (justification \"fixture: guarded by the test harness\"))\n"

let waivers =
  [
    case "waiver round-trip suppresses the matching finding" (fun () ->
        let fs = lint_lib "let counter = ref 0\nlet other = ref 1\n" in
        check Alcotest.int "two raw findings" 2 (List.length fs);
        match Waiver.parse waiver_text with
        | Error e -> Alcotest.failf "parse failed: %s" e
        | Ok ws ->
          let unwaived, waived, stale = Waiver.apply ws fs in
          check Alcotest.int "one suppressed" 1 (List.length waived);
          check Alcotest.int "one left" 1 (List.length unwaived);
          check Alcotest.string "the right one left" "other"
            (List.hd unwaived).Finding.key;
          check Alcotest.int "no stale" 0 (List.length stale));
    case "waiver that matches nothing is reported stale" (fun () ->
        match Waiver.parse waiver_text with
        | Error e -> Alcotest.failf "parse failed: %s" e
        | Ok ws ->
          let _, _, stale = Waiver.apply ws [] in
          check Alcotest.int "stale" 1 (List.length stale));
    case "empty justification is rejected at parse time" (fun () ->
        let bad =
          "((rule determinism) (file lib/x.ml) (key k) (justification \"\"))"
        in
        match Waiver.parse bad with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected parse error");
    case "malformed entry is rejected" (fun () ->
        match Waiver.parse "((rule only))" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected parse error");
  ]

(* ------------------------------------------------------------------ *)
(* Typed-pass fixtures.  Each source is typechecked in-process with no
   extra include dirs: the typed rules match suffix names
   ("Setup.sio", "Sc_parallel.parallel_iter", "Service.error"), so
   stub modules defined inside the fixture stand in for the repo's
   and the tests stay hermetic. *)

module Typed_load = Sc_lint_core.Typed_load
module Flow_graph = Sc_lint_core.Flow_graph
module Typed_rules = Sc_lint_core.Typed_rules

let typed_lint ?(waivers = []) ?(rel = "lib/fixture.ml") content =
  match
    Typed_load.typecheck ~include_dirs:[] ~modname:"Fixture" ~rel content
  with
  | Error e -> Alcotest.failf "fixture did not typecheck:\n%s" e
  | Ok entry ->
    let graph = Flow_graph.build [ entry ] in
    let pass = Typed_rules.prepare graph ~waivers in
    Typed_rules.lint pass entry

let no_typed_findings ?rel name content =
  case name (fun () ->
      match typed_lint ?rel content with
      | [] -> ()
      | fs ->
        Alcotest.failf "expected no typed findings, got:\n%s"
          (String.concat "\n" (List.map Finding.to_string fs)))

let find_rule r fs = List.find (fun f -> f.Finding.rule = r) fs

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let sio_stub = "module Setup = struct type sio = Sio of string end\n"

let typed_secret_flow =
  [
    case "value of a secret type reaching print_endline is flagged" (fun () ->
        let fs =
          typed_lint
            (sio_stub
            ^ "let debug (k : Setup.sio) =\n\
              \  match k with Setup.Sio s -> print_endline s\n")
        in
        let f = find_rule "typed-secret-flow" fs in
        check Alcotest.string "key is fn>sink" "debug>print_endline"
          f.Finding.key;
        check Alcotest.bool "error severity" true
          (f.Finding.severity = Finding.Error));
    case "leak through a helper carries the call chain" (fun () ->
        let fs =
          typed_lint
            (sio_stub
            ^ "let log_it s = print_endline s\n\
               let expose (k : Setup.sio) =\n\
              \  match k with Setup.Sio s -> log_it s\n")
        in
        let f = find_rule "typed-secret-flow" fs in
        check Alcotest.string "chain key"
          "expose>Fixture.log_it>print_endline" f.Finding.key);
    case "DRBG keystream output stays secret across functions" (fun () ->
        let fs =
          typed_lint
            "module Drbg = struct let generate n = String.make n 'k' end\n\
             let keystream n = Drbg.generate n\n\
             let show n = print_endline (keystream n)\n"
        in
        check Alcotest.bool "flagged" true (has_rule "typed-secret-flow" fs));
    no_typed_findings "hashing first is the sanctioned way to log a secret"
      (sio_stub
      ^ "module Sha256 = struct let digest_hex (s : string) = s end\n\
         let show (k : Setup.sio) =\n\
        \  match k with Setup.Sio s -> print_endline (Sha256.digest_hex s)\n");
    no_typed_findings "plain public strings do not taint"
      "let show s = print_endline s\n";
    case "printing a designation base (Dvs.base) is flagged" (fun () ->
        let fs =
          typed_lint
            "module Dvs = struct type base = string end\n\
             let debug (b : Dvs.base) = Printf.printf \"base %s\\n\" b\n"
        in
        check Alcotest.string "key" "debug>Printf.printf"
          (find_rule "typed-secret-flow" fs).Finding.key);
    case "a base encoded to bytes by a helper stays secret" (fun () ->
        (* The helper's own summary loses the flow in its int code, as
           [Tate.gt_to_bytes] does; its string result is still
           tainted at the call site. *)
        let fs =
          typed_lint
            "module Dvs = struct type base = int array end\n\
             let to_bytes g =\n\
            \  String.concat \",\" (Array.to_list (Array.map string_of_int g))\n\
             let debug (b : Dvs.base) = print_endline (to_bytes b)\n"
        in
        check Alcotest.string "key" "debug>print_endline"
          (find_rule "typed-secret-flow" fs).Finding.key);
    case "wire-encoding a signing exponent (Ibs.exponent) is flagged"
      (fun () ->
        let fs =
          typed_lint
            "module Ibs = struct type exponent = string end\n\
             module Wire = struct let encode (s : string) = s end\n\
             let ship (e : Ibs.exponent) = Wire.encode e\n"
        in
        check Alcotest.string "key" "ship>Wire.encode"
          (find_rule "typed-secret-flow" fs).Finding.key);
  ]

let pool_stub =
  "module Sc_parallel = struct\n\
  \  let parallel_iter f n = for i = 0 to n - 1 do f i done\n\
   end\n"

let captured_ref_src =
  pool_stub
  ^ "let races n =\n\
    \  let acc = ref 0 in\n\
    \  Sc_parallel.parallel_iter (fun i -> acc := !acc + i) n;\n\
    \  !acc\n"

let typed_domain_capture =
  [
    case "pool task capturing a plain ref is flagged" (fun () ->
        let fs = typed_lint captured_ref_src in
        let f = find_rule "domain-capture" fs in
        check Alcotest.string "key is enclosing:var" "races:acc" f.Finding.key;
        check Alcotest.bool "error severity" true
          (f.Finding.severity = Finding.Error));
    no_typed_findings "Atomic accumulation is the sanctioned idiom"
      (pool_stub
      ^ "let counts n =\n\
        \  let acc = Atomic.make 0 in\n\
        \  Sc_parallel.parallel_iter (fun _ -> Atomic.incr acc) n;\n\
        \  Atomic.get acc\n");
    no_typed_findings "per-index writes into a shared array are disjoint"
      (pool_stub
      ^ "let table n =\n\
        \  let out = Array.make n 0 in\n\
        \  Sc_parallel.parallel_iter (fun i -> out.(i) <- i * i) n;\n\
        \  out\n");
    case "a waiver suppresses the capture finding without going stale"
      (fun () ->
        let fs = typed_lint captured_ref_src in
        let w =
          "((rule domain-capture) (file lib/fixture.ml) (key races:acc)\n\
          \ (justification \"fixture: single-domain test pool\"))"
        in
        match Waiver.parse w with
        | Error e -> Alcotest.failf "waiver parse: %s" e
        | Ok ws ->
          let unwaived, waived, stale = Waiver.apply ws fs in
          check Alcotest.bool "suppressed" false
            (has_rule "domain-capture" unwaived);
          check Alcotest.int "one waived" 1 (List.length waived);
          check Alcotest.int "no stale" 0 (List.length stale));
  ]

let service_stub =
  "module Service = struct type error = Overloaded of int end\n\
   let submit () : (unit, Service.error) result =\n\
  \  Error (Service.Overloaded 1)\n"

let protocol_stub =
  "module Protocol = struct type failure = Diverged of string | Timeout end\n\
   let check () : (unit, Protocol.failure) result = Error Protocol.Timeout\n"

let typed_discarded_error =
  [
    case "ignore of a typed-error result is flagged" (fun () ->
        let fs =
          typed_lint (service_stub ^ "let pump () = ignore (submit ())\n")
        in
        let f = find_rule "discarded-error" fs in
        check Alcotest.string "key" "pump:ignore:Service.error" f.Finding.key);
    case "wildcard arm over a protocol failure is flagged" (fun () ->
        let fs =
          typed_lint
            (protocol_stub
            ^ "let run () = match check () with Ok () -> 0 | _ -> 1\n")
        in
        let f = find_rule "discarded-error" fs in
        check Alcotest.string "key" "run:wildcard:Protocol.failure"
          f.Finding.key);
    case "let _ discarding a typed verdict is flagged" (fun () ->
        let fs =
          typed_lint
            (service_stub ^ "let drop () =\n  let _res = submit () in\n  ()\n")
        in
        check Alcotest.bool "flagged" true (has_rule "discarded-error" fs));
    no_typed_findings "matching every constructor surfaces the verdict"
      (protocol_stub
      ^ "let run () =\n\
        \  match check () with\n\
        \  | Ok () -> 0\n\
        \  | Error (Protocol.Diverged _) -> 1\n\
        \  | Error Protocol.Timeout -> 2\n");
    no_typed_findings "ignoring a plain int is fine"
      "let f () = ignore (1 + 2)\n";
  ]

let jitter_src = "let jitter () = Random.int 6\nlet spread n = jitter () + n\n"

let typed_transitive_determinism =
  [
    case "caller of a Random-using helper is flagged with the chain" (fun () ->
        let fs = typed_lint jitter_src in
        let f = find_rule "transitive-determinism" fs in
        check Alcotest.string "chain key" "spread>Fixture.jitter>Random.int"
          f.Finding.key;
        check Alcotest.bool "message spells the chain" true
          (contains f.Finding.msg "spread -> Fixture.jitter -> Random.int"));
    case "the same code outside lib/ is not flagged" (fun () ->
        let fs = typed_lint ~rel:"bin/fixture.ml" jitter_src in
        check Alcotest.bool "not flagged" false
          (has_rule "transitive-determinism" fs));
    case "a waived direct source does not propagate to callers" (fun () ->
        let w =
          "((rule determinism) (file lib/fixture.ml) (key jitter:Random.int)\n\
          \ (justification \"fixture: sanctioned entropy source\"))"
        in
        match Waiver.parse w with
        | Error e -> Alcotest.failf "waiver parse: %s" e
        | Ok ws ->
          let fs = typed_lint ~waivers:ws jitter_src in
          check Alcotest.bool "not flagged" false
            (has_rule "transitive-determinism" fs));
    no_typed_findings "deterministic helpers do not seed the closure"
      "let leaf n = n * 2\nlet outer n = leaf n + 1\n";
  ]

let typed_fallback =
  [
    case "without cmts the Parsetree secret heuristic still runs" (fun () ->
        let src =
          {
            Engine.rel = "lib/fixture.ml";
            content = "let debug sk = Printf.printf \"sk=%s\" sk\n";
            has_mli = true;
          }
        in
        let findings, cmt_rels =
          Engine.lint_all ~build_dir:"/nonexistent-cmt-dir" ~waivers:[]
            [ src ]
        in
        check Alcotest.(list string) "no cmt coverage" [] cmt_rels;
        check Alcotest.bool "name-heuristic finding" true
          (has_rule "secret-flow" findings));
    case "to_json escapes quotes and carries the waived flag" (fun () ->
        let f =
          {
            Finding.rule = "typed-secret-flow";
            file = "lib/a.ml";
            line = 3;
            severity = Finding.Error;
            key = "f>sink";
            msg = "say \"hi\"";
          }
        in
        check Alcotest.string "json"
          "{\"rule\":\"typed-secret-flow\",\"file\":\"lib/a.ml\",\"line\":3,\
           \"severity\":\"error\",\"key\":\"f>sink\",\"msg\":\"say \
           \\\"hi\\\"\",\"waived\":true}"
          (Finding.to_json ~waived:true f));
    case "findings differing only in chain key both survive dedup" (fun () ->
        let f key =
          {
            Finding.rule = "transitive-determinism";
            file = "lib/a.ml";
            line = 7;
            severity = Finding.Error;
            key;
            msg = "m";
          }
        in
        let fs =
          List.sort_uniq Finding.compare
            [ f "g>A.h>Random.int"; f "g>B.h>Sys.time"; f "g>A.h>Random.int" ]
        in
        check Alcotest.int "two distinct chains" 2 (List.length fs));
  ]

(* The real tree must lint clean against the committed baseline, and
   the baseline must contain no dead entries — the same gate
   `make lint` applies, run in-process.  The typed pass rides along
   when the surrounding _build has cmt files (it does under
   `dune runtest`: the test links every library); if they are absent
   the typed waivers are excluded from staleness, mirroring the
   CLI. *)
let typed_rule_names =
  [
    "typed-secret-flow"; "domain-capture"; "discarded-error";
    "transitive-determinism";
  ]

let self_lint =
  [
    case "repo lints clean with zero stale waivers" (fun () ->
        (* dune runs the test with cwd inside _build; the declared
           source_tree deps materialize lib/, bin/, test/ and the
           baseline next to it.  Walk up to wherever they landed. *)
        let root =
          List.find_opt
            (fun r ->
              Sys.file_exists (Filename.concat r "lint/waivers.sexp"))
            [ "."; ".."; "../.."; "../../.." ]
        in
        match root with
        | None -> Alcotest.fail "lint/waivers.sexp not found from test cwd"
        | Some root ->
          let waiver_file = Filename.concat root "lint/waivers.sexp" in
          let sources = Engine.collect_files ~root [ "lib"; "bin"; "test" ] in
          check Alcotest.bool "collected a plausible tree" true
            (List.length sources > 50);
          match Waiver.parse (In_channel.with_open_text waiver_file In_channel.input_all) with
          | Error e -> Alcotest.failf "waiver parse: %s" e
          | Ok ws ->
            let findings, cmt_rels =
              Engine.lint_all ~build_dir:root ~waivers:ws sources
            in
            let unwaived, _, stale = Waiver.apply ws findings in
            let stale =
              List.filter
                (fun w ->
                  (not (List.mem w.Waiver.rule typed_rule_names))
                  || List.mem w.Waiver.file cmt_rels)
                stale
            in
            let errors =
              List.filter
                (fun f -> f.Finding.severity = Finding.Error)
                unwaived
            in
            check Alcotest.(list string) "no unwaived errors" []
              (List.map Finding.to_string errors);
            check Alcotest.(list string) "no stale waivers" []
              (List.map Waiver.to_string stale));
  ]

let suite =
  domain_safety @ signing_encode @ determinism @ secret_flow
  @ exception_discipline @ naive_scalar_mul @ dynamic_metric_name @ infra
  @ waivers @ typed_secret_flow @ typed_domain_capture
  @ typed_discarded_error @ typed_transitive_determinism @ typed_fallback
  @ self_lint
