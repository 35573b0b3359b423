(* sc_lint rule fixtures: one positive and one negative case per rule,
   waiver round-trips, and a self-lint pass over the real tree.  Each
   fixture is typechecked in-process and run through the same rules
   as the real tree, so the tests pin the rules' behaviour without
   touching the file system. *)

module Finding = Sc_lint_core.Finding
module Waiver = Sc_lint_core.Waiver
module Engine = Sc_lint_core.Engine
module Typed_load = Sc_lint_core.Typed_load
module Flow_graph = Sc_lint_core.Flow_graph
module Typed_rules = Sc_lint_core.Typed_rules

open Util

(* Each source is typechecked with no extra include dirs: the rules
   match suffix names ("Setup.sio", "Sha256.digest", "Curve.double"),
   so stub modules defined inside the fixture stand in for the repo's
   and the tests stay hermetic. *)
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
        Alcotest.failf "expected no findings, got:\n%s"
          (String.concat "\n" (List.map Finding.to_string fs)))

let find_rule r fs = List.find (fun f -> f.Finding.rule = r) fs

let rules fs = List.map (fun f -> f.Finding.rule) fs
let has_rule r fs = List.mem r (rules fs)

let domain_safety =
  [
    case "toplevel ref is flagged" (fun () ->
        let fs = typed_lint "let counter = ref 0\n" in
        check Alcotest.bool "flagged" true (has_rule "domain-safety" fs);
        let f = List.hd fs in
        check Alcotest.string "key is the binding name" "counter" f.Finding.key;
        check Alcotest.int "line" 1 f.Finding.line);
    case "toplevel Hashtbl and mutable record literal are flagged" (fun () ->
        let fs =
          typed_lint
            "type t = { mutable n : int }\n\
             let cache = Hashtbl.create 16\n\
             let state = { n = 0 }\n"
        in
        check Alcotest.int "two findings" 2 (List.length fs);
        check Alcotest.bool "all domain-safety" true
          (List.for_all (fun f -> f.Finding.rule = "domain-safety") fs));
    case "Hashtbl.create reached through open Hashtbl is flagged" (fun () ->
        let fs = typed_lint "open Hashtbl\nlet cache = create 16\n" in
        let f = find_rule "domain-safety" fs in
        check Alcotest.string "key" "cache" f.Finding.key;
        check Alcotest.int "line" 2 f.Finding.line);
    case "record literal of a mutable type from another module is flagged"
      (fun () ->
        (* [ref]'s record type is declared in Stdlib, not in this file *)
        let fs = typed_lint "let cell = { contents = 0 }\n" in
        let f = find_rule "domain-safety" fs in
        check Alcotest.string "key" "cell" f.Finding.key);
    no_typed_findings "ref inside a function body is fine"
      "let f () =\n  let acc = ref 0 in\n  incr acc;\n  !acc\n";
    no_typed_findings "Atomic/Mutex toplevel state is the sanctioned idiom"
      "let hits = Atomic.make 0\nlet lock = Mutex.create ()\n";
  ]

let hash_stubs =
  "module Sha256 = struct let digest (_ : string) = \"\" end\n\
   module Hmac = struct let mac_prepared () (_ : string list) = \"\" end\n\
   module Ibs = struct let sign () () (_ : string) = \"\" end\n\
   module Sc_hash = struct\n\
  \  module Encode = struct\n\
  \    let frame (l : string list) = l\n\
  \    let canonical (l : string list) = String.concat \"\" l\n\
  \  end\n\
   end\n"

let signing_encode =
  [
    case "sprintf flowing into a hash sink is flagged" (fun () ->
        let fs =
          typed_lint
            (hash_stubs
            ^ "let h a b = Sha256.digest (Printf.sprintf \"%s|%s\" a b)\n")
        in
        check Alcotest.bool "flagged" true (has_rule "signing-encode" fs));
    case "two-fragment concat into Ibs.sign is flagged" (fun () ->
        let fs =
          typed_lint
            (hash_stubs ^ "let s pub key a b = Ibs.sign pub key (a ^ \"|\" ^ b)\n")
        in
        let f = find_rule "signing-encode" fs in
        check Alcotest.string "key names fn and sink" "s:Ibs.sign"
          f.Finding.key);
    case "local producer of a tainted concat is traced to the sink" (fun () ->
        let fs =
          typed_lint
            (hash_stubs
            ^ "let encode a b = a ^ \":\" ^ b\n\
               let h a b = Sha256.digest (encode a b)\n")
        in
        check Alcotest.bool "flagged" true (has_rule "signing-encode" fs));
    case "literal raw-fragment list into Hmac.mac_prepared is flagged"
      (fun () ->
        let fs =
          typed_lint (hash_stubs ^ "let t key a b = Hmac.mac_prepared key [ a; b ]\n")
        in
        let f = find_rule "signing-encode" fs in
        check Alcotest.string "key names fn and sink" "t:Hmac.mac_prepared"
          f.Finding.key);
    no_typed_findings "Encode.frame into Hmac.mac_prepared is the sanctioned path"
      (hash_stubs
      ^ "let t key a b = Hmac.mac_prepared key (Sc_hash.Encode.frame [ a; b ])\n"
      );
    no_typed_findings "single dynamic fragment with a literal prefix is injective"
      (hash_stubs ^ "let h id = Sha256.digest (\"id:\" ^ id)\n");
    no_typed_findings "Encode.canonical framing is the sanctioned path"
      (hash_stubs
      ^ "let h a b = Sha256.digest (Sc_hash.Encode.canonical [ \"tag\"; a; b ])\n"
      );
    no_typed_findings "numeric-only sprintf cannot collide"
      (hash_stubs ^ "let h n = Sha256.digest (Printf.sprintf \"blk-%d\" n)\n");
  ]

let exception_discipline =
  [
    case "silent catch-all is flagged" (fun () ->
        let fs =
          typed_lint "let parse s = try int_of_string s with _ -> 0\n"
        in
        check Alcotest.bool "flagged" true (has_rule "exception-swallow" fs));
    no_typed_findings "catch-all that re-raises is fine"
      "let cleanup () = ()\n\
       let f g = try g () with e -> cleanup (); raise e\n";
    no_typed_findings "catch-all whose body uses the exception is fine"
      "let log (_ : string) = ()\n\
       let f g = try g () with e -> log (Printexc.to_string e); None\n";
    no_typed_findings "typed handler is fine"
      "let parse s = try int_of_string s with Failure _ -> 0\n";
    no_typed_findings "option-returning stdlib idiom is the sanctioned fix"
      "let parse s = Option.value ~default:0 (int_of_string_opt s)\n";
  ]

let telemetry_stubs =
  "module Telemetry = struct\n\
  \  let counter (_ : string) = ()\n\
  \  let with_span ~name f = ignore (name : string); f ()\n\
   end\n\
   module Registry = struct let histogram (_ : string) = () end\n\
   module Labels = struct\n\
  \  let counter_vec ~label (_ : string) = ignore (label : string)\n\
  \  let counter () (_ : string) = ()\n\
   end\n"

let dynamic_metric_name =
  [
    case "computed counter name is flagged informational" (fun () ->
        let fs =
          typed_lint
            (telemetry_stubs
            ^ "let c_for peer = Telemetry.counter (\"rpc.\" ^ peer ^ \".calls\")\n"
            )
        in
        let f = find_rule "dynamic-metric-name" fs in
        check Alcotest.bool "info severity" true
          (f.Finding.severity = Finding.Info));
    case "computed with_span ~name: is flagged" (fun () ->
        let fs =
          typed_lint
            (telemetry_stubs
            ^ "let traced n f = Telemetry.with_span ~name:(\"op.\" ^ n) f\n")
        in
        check Alcotest.bool "flagged" true (has_rule "dynamic-metric-name" fs));
    case "lib/telemetry itself is exempt" (fun () ->
        let fs =
          typed_lint ~rel:"lib/telemetry/fixture.ml"
            (telemetry_stubs
            ^ "type span = { name : string }\n\
               let h_for sp = Registry.histogram (\"span.\" ^ sp.name)\n")
        in
        check Alcotest.bool "not flagged" false
          (has_rule "dynamic-metric-name" fs));
    no_typed_findings "literal metric names are the sanctioned shape"
      (telemetry_stubs
      ^ "let c = Telemetry.counter \"audit.rounds\"\n\
         let traced f = Telemetry.with_span ~name:\"audit.verify\" f\n");
    no_typed_findings "per-key fan-out through a labeled family is sanctioned"
      (telemetry_stubs
      ^ "let v = Labels.counter_vec ~label:\"kind\" \"wire.tx.msgs\"\n\
         let cell k = Labels.counter v k\n");
  ]

(* no-mli is a file-level check: it needs no cmt, so a missing build
   directory leaves it beside the no-cmt error. *)
let file_findings rel ~has_mli =
  Engine.lint_all ~build_dir:"/nonexistent-cmt-dir" ~waivers:[] ~callers:[]
    [ { Engine.rel; has_mli } ]

let infra =
  [
    case "lib module without .mli yields an informational finding" (fun () ->
        let f = find_rule "no-mli" (file_findings "lib/fixture.ml" ~has_mli:false) in
        check Alcotest.bool "info severity" true
          (f.Finding.severity = Finding.Info));
    case "bin module without .mli is not reported" (fun () ->
        check Alcotest.(list string) "only no-cmt" [ "no-cmt" ]
          (rules (file_findings "bin/fixture.ml" ~has_mli:false)));
  ]

let waiver_text =
  "((rule domain-safety)\n\
  \ (file lib/fixture.ml)\n\
  \ (key counter)\n\
  \ (justification \"fixture: guarded by the test harness\"))\n"

let waivers =
  [
    case "waiver round-trip suppresses the matching finding" (fun () ->
        let fs = typed_lint "let counter = ref 0\nlet other = ref 1\n" in
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
    case "printing a comb entry (Tate.gt_comb) is flagged" (fun () ->
        let fs =
          typed_lint
            "module Tate = struct type gt_comb = { table : string array } end\n\
             let debug (c : Tate.gt_comb) = print_endline c.Tate.table.(1)\n"
        in
        check Alcotest.string "key" "debug>print_endline"
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
  \  let iter_ranges n body = body 0 n\n\
   end\n"

let captured_ref_src =
  pool_stub
  ^ "let races n =\n\
    \  let acc = ref 0 in\n\
    \  Sc_parallel.iter_ranges n (fun lo hi ->\n\
    \    for i = lo to hi - 1 do acc := !acc + i done);\n\
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
        \  Sc_parallel.iter_ranges n (fun lo hi ->\n\
        \    for _ = lo to hi - 1 do Atomic.incr acc done);\n\
        \  Atomic.get acc\n");
    no_typed_findings "per-index writes into a shared array are disjoint"
      (pool_stub
      ^ "let table n =\n\
        \  let out = Array.make n 0 in\n\
        \  Sc_parallel.iter_ranges n (fun lo hi ->\n\
        \    for i = lo to hi - 1 do out.(i) <- i * i done);\n\
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
            (has_rule "transitive-determinism" fs);
          let unwaived, _, stale = Waiver.apply ws fs in
          check Alcotest.bool "direct use waived" false
            (has_rule "determinism" unwaived);
          check Alcotest.int "waiver not stale" 0 (List.length stale));
    no_typed_findings "deterministic helpers do not seed the closure"
      "let leaf n = n * 2\nlet outer n = leaf n + 1\n";
  ]

(* The direct-use rule.  Unix is not on the fixtures' load path, so a
   stub stands in for it; the rule matches the written path. *)
let unix_stub = "module Unix = struct let gettimeofday () = 0.0 end\n"

let typed_determinism =
  [
    case "Stdlib.Random in lib/ is flagged" (fun () ->
        let fs = typed_lint "let roll () = Random.int 6\n" in
        check Alcotest.bool "flagged" true (has_rule "determinism" fs));
    case "Unix.gettimeofday in lib/ is flagged with a scoped key" (fun () ->
        let fs = typed_lint (unix_stub ^ "let now () = Unix.gettimeofday ()\n") in
        check Alcotest.string "key" "now:Unix.gettimeofday"
          (find_rule "determinism" fs).Finding.key);
    case "the same source in bin/ is allowed" (fun () ->
        let fs =
          typed_lint ~rel:"bin/fixture.ml"
            (unix_stub ^ "let now () = Unix.gettimeofday ()\n")
        in
        check Alcotest.bool "not flagged" false (has_rule "determinism" fs));
    no_typed_findings "DRBG-driven randomness is the sanctioned source"
      "module Drbg = struct let uniform_int (_ : string) n = n - 1 end\n\
       let roll drbg = Drbg.uniform_int drbg 6\n";
    case "toplevel Random uses are flagged, anonymous bindings included"
      (fun () ->
        let fs =
          typed_lint "let seed = Random.bits ()\nlet () = Random.self_init ()\n"
        in
        check
          Alcotest.(list string)
          "keys"
          [ "seed:Random.bits"; "_:Random.self_init" ]
          (List.map
             (fun f -> f.Finding.key)
             (List.filter (fun f -> f.Finding.rule = "determinism") fs)));
    case "a nested-let Sys.time is keyed by its toplevel binding" (fun () ->
        let fs =
          typed_lint
            "let measure f =\n\
            \  let t0 = Sys.time () in\n\
            \  f ();\n\
            \  Sys.time () -. t0\n"
        in
        check
          Alcotest.(list (pair string int))
          "both uses, one key"
          [ ("measure:Sys.time", 2); ("measure:Sys.time", 4) ]
          (List.map
             (fun f -> (f.Finding.key, f.Finding.line))
             (List.filter (fun f -> f.Finding.rule = "determinism") fs)));
  ]

let typed_fallback =
  [
    case "a source without a cmt yields no-cmt" (fun () ->
        let f = find_rule "no-cmt" (file_findings "lib/fixture.ml" ~has_mli:true) in
        check Alcotest.bool "error severity" true
          (f.Finding.severity = Finding.Error);
        check Alcotest.string "key is the file" "lib/fixture.ml" f.Finding.key);
    case "a dead-export caller without a cmt yields no-cmt" (fun () ->
        let fs =
          Engine.lint_all ~build_dir:"/nonexistent-cmt-dir" ~waivers:[]
            ~callers:[ "bench/quick.ml" ] []
        in
        check Alcotest.(list string) "keys" [ "bench/quick.ml" ]
          (List.map (fun f -> f.Finding.key) fs));
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

(* dead-export: an interface, its implementation and callers, each
   typechecked in-process.  A caller reaches the export through a stub
   module of the same name, the way the typed fixtures above stub the
   repo's modules. *)

let dead_export_intf =
  "val hook : int -> int\nval helper : int -> int\nval api : int -> int\n"

let dead_export_impl =
  "let hook x = x\nlet helper x = x + 1\nlet api x = helper x\n"

let typed_entry ~rel ~modname content =
  match Typed_load.typecheck ~include_dirs:[] ~modname ~rel content with
  | Ok e -> e
  | Error e -> Alcotest.failf "fixture did not typecheck:\n%s" e

let dead_exports ?(intf = dead_export_intf) ?caller () =
  let intf =
    match
      Typed_load.typecheck_intf ~include_dirs:[] ~modname:"Fixture"
        ~rel:"lib/fixture.mli" intf
    with
    | Ok i -> i
    | Error e -> Alcotest.failf "interface did not typecheck:\n%s" e
  in
  let impl =
    typed_entry ~rel:"lib/fixture.ml" ~modname:"Fixture" dead_export_impl
  in
  let callers =
    impl
    :: Option.to_list
         (Option.map (typed_entry ~rel:"bin/caller.ml" ~modname:"Caller") caller)
  in
  Typed_rules.dead_exports [ intf ] ~callers

let dead_keys fs =
  List.filter_map
    (fun f -> if f.Finding.rule = "dead-export" then Some f.Finding.key else None)
    fs

let hook_waiver =
  "((rule dead-export) (file lib/fixture.mli) (key hook)\n\
  \ (justification \"fixture: a test drives it\"))"

let typed_dead_export =
  [
    case "an exported value nothing references is flagged" (fun () ->
        let fs = dead_exports () in
        check Alcotest.bool "hook flagged" true (List.mem "hook" (dead_keys fs));
        check Alcotest.bool "api flagged" true (List.mem "api" (dead_keys fs));
        let f = List.find (fun f -> f.Finding.key = "hook") fs in
        check Alcotest.string "file" "lib/fixture.mli" f.Finding.file;
        check Alcotest.int "line of the val" 1 f.Finding.line);
    case "the same value referenced from bin/ is not flagged" (fun () ->
        let fs =
          dead_exports
            ~caller:
              "module Fixture = struct let api x = x end\n\
               let main () = Fixture.api 1\n"
            ()
        in
        check Alcotest.bool "api used" false (List.mem "api" (dead_keys fs));
        check Alcotest.bool "hook still dead" true (List.mem "hook" (dead_keys fs)));
    case "a value used only inside its own module is flagged" (fun () ->
        let f = List.find (fun f -> f.Finding.key = "helper") (dead_exports ()) in
        check Alcotest.bool "says only its module uses it" true
          (contains f.Finding.msg "only Fixture itself uses it"));
    case "a waived hook is suppressed, and the waiver goes stale once it is deleted"
      (fun () ->
        match Waiver.parse hook_waiver with
        | Error e -> Alcotest.failf "waiver parse: %s" e
        | Ok ws ->
          let unwaived, waived, stale = Waiver.apply ws (dead_exports ()) in
          check Alcotest.bool "suppressed" false (List.mem "hook" (dead_keys unwaived));
          check Alcotest.(list string) "waived" [ "hook" ] (dead_keys waived);
          check Alcotest.int "not stale" 0 (List.length stale);
          let deleted =
            dead_exports ~intf:"val helper : int -> int\nval api : int -> int\n" ()
          in
          let _, _, stale = Waiver.apply ws deleted in
          check Alcotest.int "stale" 1 (List.length stale));
  ]

(* The real tree must lint clean against the committed baseline, with
   zero dead entries and every file typed — the same Engine.gate that
   `make lint` runs.  The test's deps include the @check aliases, so
   the cmts of lib/, bin/ and test/, and of the dead-export callers in
   bench/, perfbench/ and examples/, sit next to the sources. *)
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
        | Some root -> (
          match
            Engine.gate ~root
              ~waivers:(Some (Filename.concat root "lint/waivers.sexp"))
              [ "lib"; "bin"; "test" ]
          with
          | Error e -> Alcotest.failf "waiver parse: %s" e
          | Ok r ->
            check Alcotest.bool "collected a plausible tree" true
              (r.sources > 50);
            check Alcotest.int "every source typed" r.sources r.typed;
            check Alcotest.(list string) "no unwaived errors" []
              (List.filter_map
                 (fun f ->
                   if f.Finding.severity = Finding.Error then
                     Some (Finding.to_string f)
                   else None)
                 r.unwaived);
            check Alcotest.(list string) "no stale waivers" []
              (List.map Waiver.to_string r.stale)));
  ]

let suite =
  domain_safety @ signing_encode @ exception_discipline
  @ dynamic_metric_name @ infra @ waivers @ typed_secret_flow
  @ typed_domain_capture @ typed_discarded_error @ typed_determinism
  @ typed_transitive_determinism @ typed_dead_export @ typed_fallback
  @ self_lint
