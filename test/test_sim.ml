module Eq = Sc_sim.Event_queue
module Net = Sc_sim.Network
module Adv = Sc_sim.Adversary
module Mc = Sc_sim.Montecarlo
module Engine = Sc_sim.Engine

let event_queue_tests =
  let open Util in
  [
    case "events fire in time order" (fun () ->
        let q = Eq.create () in
        let log = ref [] in
        Eq.schedule q ~delay:3.0 (fun () -> log := "c" :: !log);
        Eq.schedule q ~delay:1.0 (fun () -> log := "a" :: !log);
        Eq.schedule q ~delay:2.0 (fun () -> log := "b" :: !log);
        Eq.run q;
        check Alcotest.(list string) "order" [ "a"; "b"; "c" ] (List.rev !log));
    case "equal times fire FIFO" (fun () ->
        let q = Eq.create () in
        let log = ref [] in
        for i = 0 to 9 do
          Eq.schedule q ~delay:1.0 (fun () -> log := i :: !log)
        done;
        Eq.run q;
        check Alcotest.(list int) "fifo" (List.init 10 Fun.id) (List.rev !log));
    case "clock advances to event times" (fun () ->
        let q = Eq.create () in
        let seen = ref 0.0 in
        Eq.schedule q ~delay:5.5 (fun () -> seen := Eq.now q);
        Eq.run q;
        check (Alcotest.float 1e-9) "time" 5.5 !seen);
    case "events can schedule events" (fun () ->
        let q = Eq.create () in
        let count = ref 0 in
        let rec chain n =
          if n > 0 then
            Eq.schedule q ~delay:1.0 (fun () ->
                incr count;
                chain (n - 1))
        in
        chain 5;
        Eq.run q;
        check Alcotest.int "all fired" 5 !count;
        check (Alcotest.float 1e-9) "final time" 5.0 (Eq.now q));
    case "run ~until leaves later events pending" (fun () ->
        let q = Eq.create () in
        let fired = ref 0 in
        Eq.schedule q ~delay:1.0 (fun () -> incr fired);
        Eq.schedule q ~delay:10.0 (fun () -> incr fired);
        Eq.run ~until:5.0 q;
        check Alcotest.int "one fired" 1 !fired;
        check Alcotest.int "one pending" 1 (Eq.pending q);
        Eq.run q;
        check Alcotest.int "both fired" 2 !fired);
    case "negative delay rejected" (fun () ->
        let q = Eq.create () in
        Alcotest.check_raises "negative"
          (Invalid_argument "Event_queue.schedule: negative delay") (fun () ->
            Eq.schedule q ~delay:(-1.0) ignore));
    case "many events stress (heap growth)" (fun () ->
        let q = Eq.create () in
        let drbg = Sc_hash.Drbg.create ~seed:"heap" in
        let last = ref (-1.0) in
        let ok = ref true in
        for _ = 1 to 2000 do
          let d = Sc_hash.Drbg.float drbg *. 100.0 in
          Eq.schedule q ~delay:d (fun () ->
              if Eq.now q < !last then ok := false;
              last := Eq.now q)
        done;
        Eq.run q;
        check Alcotest.bool "monotone" true !ok);
  ]

let network_tests =
  let open Util in
  [
    case "transfer accounting" (fun () ->
        let net = Net.create Net.default_config in
        let t = Net.record_transfer net ~bytes:1_000_000 in
        check Alcotest.bool "latency + serialization" true (t > 0.02);
        check Alcotest.int "bytes" 1_000_000 (Net.total_bytes net);
        ignore (Net.record_transfer net ~bytes:500);
        check Alcotest.int "accumulates" 1_000_500 (Net.total_bytes net));
    case "default link is 20 ms latency and 100 MB/s" (fun () ->
        let net = Net.create Net.default_config in
        check (Alcotest.float 1e-12) "empty transfer" 0.02 (Net.record_transfer net ~bytes:0);
        check (Alcotest.float 1e-12) "100 MB" 1.02
          (Net.record_transfer net ~bytes:100_000_000));
    case "transfer time is latency plus bytes over bandwidth" (fun () ->
        let net =
          Net.create
            { Net.latency_s = 0.5; bandwidth_bytes_per_s = 1000.0 }
        in
        check (Alcotest.float 1e-12) "empty transfer pays latency only" 0.5
          (Net.record_transfer net ~bytes:0);
        check (Alcotest.float 1e-12) "2000 bytes at 1000 B/s" 2.5
          (Net.record_transfer net ~bytes:2000);
        check Alcotest.int "bytes" 2000 (Net.total_bytes net));
  ]

let adversary_tests =
  let open Util in
  let ids = List.init 10 (Printf.sprintf "cs-%d") in
  [
    case "bound respected over many epochs" (fun () ->
        let drbg = Sc_hash.Drbg.create ~seed:"adv" in
        let adv = Adv.create ~drbg ~bound:3 ~server_ids:ids () in
        for _ = 1 to 50 do
          Adv.new_epoch adv;
          if List.length (Adv.corrupted adv) > 3 then Alcotest.fail "bound exceeded"
        done);
    case "bound zero means no corruption" (fun () ->
        let drbg = Sc_hash.Drbg.create ~seed:"adv0" in
        let adv = Adv.create ~drbg ~bound:0 ~server_ids:ids () in
        for _ = 1 to 10 do
          Adv.new_epoch adv;
          check Alcotest.(list string) "clean" [] (Adv.corrupted adv)
        done);
    case "bound above n rejected" (fun () ->
        let drbg = Sc_hash.Drbg.create ~seed:"advx" in
        Alcotest.check_raises "too big"
          (Invalid_argument "Adversary.create: bound exceeds server count")
          (fun () -> ignore (Adv.create ~drbg ~bound:11 ~server_ids:ids ())));
    case "victims move across epochs (mobile adversary)" (fun () ->
        let drbg = Sc_hash.Drbg.create ~seed:"mobile" in
        let adv = Adv.create ~drbg ~bound:2 ~server_ids:ids () in
        let victims = Hashtbl.create 16 in
        for _ = 1 to 60 do
          Adv.new_epoch adv;
          List.iter (fun id -> Hashtbl.replace victims id ()) (Adv.corrupted adv)
        done;
        check Alcotest.bool "several distinct victims" true
          (Hashtbl.length victims >= 5));
    case "corruption_of consistent with corrupted list" (fun () ->
        let drbg = Sc_hash.Drbg.create ~seed:"cons" in
        let adv = Adv.create ~drbg ~bound:4 ~server_ids:ids () in
        Adv.new_epoch adv;
        List.iter
          (fun id ->
            let in_list = List.mem id (Adv.corrupted adv) in
            let has_corruption = Adv.corruption_of adv id <> None in
            check Alcotest.bool id in_list has_corruption)
          ids);
  ]

let montecarlo_tests =
  let open Util in
  let tolerance rate predicted trials =
    (* Allow 6 sigma of binomial noise plus a small epsilon. *)
    let sigma = sqrt (max 1e-12 (predicted *. (1.0 -. predicted) /. float_of_int trials)) in
    Float.abs (rate -. predicted) < (6.0 *. sigma) +. 2e-3
  in
  [
    case "fcs experiment matches eq. 10" (fun () ->
        let drbg = Sc_hash.Drbg.create ~seed:"mc-fcs" in
        List.iter
          (fun (csc, range, t) ->
            let rate = Reference.fcs_rate ~drbg ~csc ~range ~t ~trials:60_000 in
            let predicted = Sc_audit.Sampling.pr_fcs ~csc ~range ~t in
            if not (tolerance rate predicted 60_000)
            then Alcotest.failf "csc=%f range=%f t=%d: %f vs %f" csc range t
                rate predicted)
          [ 0.5, 2.0, 5; 0.3, 4.0, 8; 0.0, 2.0, 3; 0.9, infinity, 20 ]);
    case "pcs experiment matches eq. 12" (fun () ->
        let drbg = Sc_hash.Drbg.create ~seed:"mc-pcs" in
        List.iter
          (fun (ssc, t) ->
            let rate =
              Reference.pcs_rate ~drbg ~ssc ~sig_forge:0.0 ~t ~trials:60_000
            in
            let predicted = Sc_audit.Sampling.pr_pcs ~ssc ~sig_forge:0.0 ~t in
            if not (tolerance rate predicted 60_000)
            then Alcotest.failf "ssc=%f t=%d" ssc t)
          [ 0.5, 5; 0.7, 10; 0.2, 3 ]);
    case "combined experiment bounded by eq. 14" (fun () ->
        let drbg = Sc_hash.Drbg.create ~seed:"mc-comb" in
        let r =
          Mc.combined_experiment ~drbg ~csc:0.5 ~ssc:0.5 ~range:2.0
            ~sig_forge:0.0 ~t:10 ~trials:60_000
        in
        (* eq. 14 is a union upper bound; the empirical rate must not
           exceed it materially. *)
        check Alcotest.bool "bounded" true (r.Mc.rate <= r.Mc.predicted +. 0.01));
  ]

(* Conformance: with enough trials the empirical survival rate must
   sit within 3 sigma of the closed forms of eqs. (10)-(14).  Regimes
   are chosen so predicted * trials >~ 100 (binomial normality) and,
   for eq. 14, so the union-bound overlap term is far below the noise
   floor.  Everything is seeded: one passing run certifies the
   assertion forever. *)
let montecarlo_conformance_tests =
  let open Util in
  let trials = 80_000 in
  let within_3_sigma name rate predicted =
    let sigma =
      sqrt (max 1e-12 (predicted *. (1.0 -. predicted) /. float_of_int trials))
    in
    if Float.abs (rate -. predicted) > 3.0 *. sigma then
      Alcotest.failf "%s: empirical %.6f vs closed form %.6f (3s = %.6f)" name
        rate predicted (3.0 *. sigma)
  in
  [
    slow_case "FCS survival conforms to eq. 10 within 3 sigma" (fun () ->
        let drbg = Sc_hash.Drbg.create ~seed:"mc-conf-fcs" in
        List.iter
          (fun (csc, range, t) ->
            within_3_sigma
              (Printf.sprintf "fcs csc=%.1f range=%.1f t=%d" csc range t)
              (Reference.fcs_rate ~drbg ~csc ~range ~t ~trials)
              (Sc_audit.Sampling.pr_fcs ~csc ~range ~t))
          [ 0.5, 2.0, 10; 0.3, 4.0, 6; 0.8, infinity, 12 ]);
    slow_case "PCS survival conforms to eq. 12 within 3 sigma" (fun () ->
        let drbg = Sc_hash.Drbg.create ~seed:"mc-conf-pcs" in
        List.iter
          (fun (ssc, sig_forge, t) ->
            within_3_sigma
              (Printf.sprintf "pcs ssc=%.1f forge=%g t=%d" ssc sig_forge t)
              (Reference.pcs_rate ~drbg ~ssc ~sig_forge ~t ~trials)
              (Sc_audit.Sampling.pr_pcs ~ssc ~sig_forge ~t))
          [ 0.6, 1e-3, 8; 0.5, 0.0, 8 ]);
    slow_case "combined survival conforms to eq. 14 within 3 sigma" (fun () ->
        let drbg = Sc_hash.Drbg.create ~seed:"mc-conf-comb" in
        (* Overlap of the union bound at this regime is ~8e-6, two
           orders of magnitude under the 3-sigma noise floor. *)
        let r =
          Mc.combined_experiment ~drbg ~csc:0.5 ~ssc:0.5 ~range:2.0
            ~sig_forge:0.0 ~t:12 ~trials
        in
        check (Alcotest.float 1e-12) "closed form"
          (Sc_audit.Sampling.pr_cheat ~csc:0.5 ~ssc:0.5 ~range:2.0
             ~sig_forge:0.0 ~t:12)
          r.Mc.predicted;
        within_3_sigma "combined" r.Mc.rate r.Mc.predicted);
  ]

let engine_tests =
  let open Util in
  [
    slow_case "honest fleet has no false alarms" (fun () ->
        let stats =
          Engine.run
            {
              Engine.default_config with
              Engine.seed = "honest-fleet";
              byzantine_bound = 0;
              epochs = 3;
            }
        in
        check Alcotest.int "no cheats" 0 (stats.Engine.detected + stats.Engine.undetected);
        check Alcotest.int "no false alarms" 0 stats.Engine.false_alarms;
        check Alcotest.bool "audits ran" true (stats.Engine.outcomes <> []));
    slow_case "byzantine fleet: cheats detected, no false alarms" (fun () ->
        let stats =
          Engine.run
            {
              Engine.default_config with
              Engine.seed = "byzantine-fleet";
              n_servers = 3;
              byzantine_bound = 2;
              n_users = 3;
              epochs = 4;
              samples_per_audit = 10;
            }
        in
        check Alcotest.int "no false alarms" 0 stats.Engine.false_alarms;
        check Alcotest.bool "some cheating occurred" true
          (stats.Engine.detected + stats.Engine.undetected > 0);
        check Alcotest.bool "detection dominates" true
          (Engine.detection_rate stats >= 0.5));
    slow_case "history learning yields positive costs" (fun () ->
        let stats =
          Engine.run { Engine.default_config with Engine.seed = "learning"; epochs = 3 }
        in
        let costs = Engine.learned_costs stats in
        check Alcotest.bool "c_trans > 0" true (costs.Sc_audit.Optimal.c_trans > 0.0);
        check Alcotest.bool "c_comp >= 0" true (costs.Sc_audit.Optimal.c_comp >= 0.0));
    slow_case "simulation is deterministic given a seed" (fun () ->
        let run () =
          Engine.run { Engine.default_config with Engine.seed = "repeat"; epochs = 2 }
        in
        let a = run () and b = run () in
        check Alcotest.int "same outcomes" (List.length a.Engine.outcomes)
          (List.length b.Engine.outcomes);
        check Alcotest.int "same detected" a.Engine.detected b.Engine.detected;
        check Alcotest.int "same bytes" a.Engine.total_bytes b.Engine.total_bytes);
  ]

(* --- distributed-trace reconstruction over a faulted campaign --------

   A lossy multi-domain campaign is the adversarial case for trace
   integrity: retries fork child attempts, the audit fan-out crosses
   the domain pool, and every one of those spans must still land in
   the campaign root's trace with its parent present. *)

let trace_tests =
  let open Util in
  let module Telemetry = Sc_telemetry.Telemetry in
  let module A = Sc_telemetry.Trace_analysis in
  let spans_of_campaign seed =
    let saved = Sc_parallel.domain_count () in
    Sc_parallel.set_domain_count 4;
    let lines = ref [] in
    let lock = Mutex.create () in
    Telemetry.set_sink
      (Some
         (fun l ->
           Mutex.lock lock;
           lines := l :: !lines;
           Mutex.unlock lock));
    Fun.protect
      ~finally:(fun () ->
        Telemetry.set_sink None;
        Sc_parallel.set_domain_count saved)
      (fun () ->
        ignore
          (Engine.run
             {
               Engine.default_config with
               Engine.seed;
               epochs = 2;
               faults = Seccloud.Transport.lossy ~drop:0.05 ();
             }));
    List.map
      (fun l ->
        match A.span_of_line l with
        | Some s -> s
        | None -> Alcotest.failf "unparsable trace line: %s" l)
      !lines
  in
  [
    qcheck ~count:4
      "faulted multi-domain campaign reconstructs to one rooted trace"
      QCheck2.Gen.(int_bound 1_000)
      (fun n ->
        let spans = spans_of_campaign (Printf.sprintf "trace-fuzz-%d" n) in
        let report = A.analyze spans in
        let by_id = Hashtbl.create 256 in
        List.iter (fun (s : A.span) -> Hashtbl.replace by_id s.A.id s) spans;
        let parent_name (s : A.span) =
          Option.bind s.A.parent (fun p ->
              Option.map (fun (q : A.span) -> q.A.name)
                (Hashtbl.find_opt by_id p))
        in
        (* One campaign, one trace, no orphaned parents: every span of
           the run shares the root's trace id. *)
        report.A.traces = 1
        && report.A.roots = 1
        && report.A.orphans = 0
        && report.A.rpc_campaign_coverage = 1.0
        && report.A.rpc_spans > 0
        (* Retries are attempt children of their rpc span, never new
           roots. *)
        && List.for_all
             (fun (s : A.span) ->
               s.A.name <> "transport.attempt"
               || parent_name s = Some "transport.rpc")
             spans);
  ]

let suite =
  event_queue_tests @ network_tests @ adversary_tests @ montecarlo_tests
  @ montecarlo_conformance_tests @ engine_tests @ trace_tests
