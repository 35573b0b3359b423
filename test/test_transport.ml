(* The fault-injectable transport: retry policy arithmetic, typed
   Timeout/Tampered verdicts, counter deltas, and complete audit
   conversations surviving a seeded lossy channel. *)

module T = Seccloud.Transport
module E = Seccloud.Endpoint
module Wire = Seccloud.Wire
module Protocol = Sc_audit.Protocol
module Telemetry = Sc_telemetry.Telemetry

let system = Lazy.force Util.shared_system
let pub = Seccloud.System.public system
let cv = Telemetry.counter_value

(* Deltas of the transport counters across [f], so the assertions are
   independent of whatever ran earlier in the suite. *)
let counter_deltas f =
  let names =
    [
      "transport.rpc"; "transport.attempts"; "transport.retry";
      "transport.timeout"; "transport.tamper_detected"; "transport.mismatch";
    ]
  in
  let before = List.map (fun n -> n, cv n) names in
  let result = f () in
  let delta n = cv n - List.assoc n before in
  result, delta

let fresh_drbg name = Sc_hash.Drbg.create ~seed:name

(* A user/cloud/server-endpoint fixture with one signed file stored
   directly (off-channel), so transports can be pointed at it. *)
let make_fixture ?storage ?compute ~seed () =
  let user = Seccloud.User.create system ~id:"alice" in
  let cloud = Seccloud.Cloud.create system ~id:"cs-1" ?storage ?compute () in
  let drbg = fresh_drbg ("transport-data:" ^ seed) in
  let payloads =
    List.init 16 (fun i ->
        Sc_storage.Block.encode_ints
          (List.init 4 (fun j -> i + j + Sc_hash.Drbg.uniform_int drbg 50)))
  in
  assert (Seccloud.User.store user cloud ~file:"tf" payloads);
  user, cloud, E.Server.create system cloud

let transport_to ?faults ?policy ~seed server =
  T.create ?faults ?policy ~drbg:(fresh_drbg ("transport:" ^ seed))
    ~peer:"cs-1" ~public:pub ~handler:(E.Server.handle server) ()

let policy_tests =
  let open Util in
  [
    case "backoff grows exponentially from the base" (fun () ->
        let p = T.Retry.default in
        check (Alcotest.float 1e-9) "1st" 0.05 (T.Retry.backoff_delay p ~attempt:1);
        check (Alcotest.float 1e-9) "2nd" 0.1 (T.Retry.backoff_delay p ~attempt:2);
        check (Alcotest.float 1e-9) "3rd" 0.2 (T.Retry.backoff_delay p ~attempt:3);
        Alcotest.check_raises "attempt 0"
          (Invalid_argument "Transport.Retry.backoff_delay: attempt < 1")
          (fun () -> ignore (T.Retry.backoff_delay p ~attempt:0)));
    case "lossy validates rates" (fun () ->
        Alcotest.check_raises "rate"
          (Invalid_argument "Transport.lossy: drop outside [0, 1]") (fun () ->
            ignore (T.lossy ~drop:1.5 ()));
        Alcotest.check_raises "delay"
          (Invalid_argument "Transport.lossy: negative delay") (fun () ->
            ignore (T.lossy ~delay_s:(-1.0) ())));
    case "call rejects unknown expected kinds" (fun () ->
        let _, _, server = make_fixture ~seed:"kinds" () in
        let tr = transport_to ~seed:"kinds" server in
        Alcotest.check_raises "unknown"
          (Invalid_argument "Transport.call: unknown kind \"nonsense\"")
          (fun () ->
            ignore
              (T.call tr ~expect:"nonsense"
                 (Wire.Ack { ok = true; detail = "" }))));
  ]

let fault_tests =
  let open Util in
  [
    case "perfect channel: upload delivered with zero retries" (fun () ->
        let user, _, server = make_fixture ~seed:"perfect" () in
        let tr = transport_to ~seed:"perfect" server in
        let result, delta =
          counter_deltas (fun () ->
              Seccloud.User.store_over user ~transport:tr ~cs_id:"cs-1"
                ~file:"tf2"
                [ Sc_storage.Block.encode_ints [ 1; 2 ] ])
        in
        check Alcotest.bool "accepted" true (result = Ok true);
        check Alcotest.int "no retries" 0 (delta "transport.retry");
        check Alcotest.int "no timeouts" 0 (delta "transport.timeout");
        check Alcotest.int "no tampering" 0 (delta "transport.tamper_detected");
        check Alcotest.int "one rpc, one attempt" (delta "transport.rpc")
          (delta "transport.attempts"));
    case "total loss: typed Timeout and exact simulated time" (fun () ->
        let _, _, server = make_fixture ~seed:"blackhole" () in
        let policy =
          {
            T.Retry.max_attempts = 3;
            base_backoff_s = 0.05;
            backoff_factor = 2.0;
            attempt_timeout_s = 1.0;
          }
        in
        let tr =
          transport_to ~faults:(T.lossy ~drop:1.0 ()) ~policy ~seed:"blackhole"
            server
        in
        let result, delta =
          counter_deltas (fun () ->
              T.call tr ~expect:"storage_response"
                (Wire.Storage_challenge { file = "tf"; indices = [ 0 ] }))
        in
        check Alcotest.bool "timeout" true (result = Error T.Timeout);
        check Alcotest.int "3 attempts" 3 (delta "transport.attempts");
        check Alcotest.int "2 retries" 2 (delta "transport.retry");
        check Alcotest.int "1 timeout" 1 (delta "transport.timeout");
        (* 3 x 1s attempt timeouts + 0.05 + 0.1 backoffs. *)
        check (Alcotest.float 1e-9) "clock" 3.15 (T.now tr));
    case "unparseable replies are blamed as tampering" (fun () ->
        let tr =
          T.create ~drbg:(fresh_drbg "garbage") ~peer:"cs-1" ~public:pub
            ~handler:(fun ~now:_ _ -> "garbage") ()
        in
        let result, delta =
          counter_deltas (fun () ->
              T.call tr ~expect:"ack" (Wire.Ack { ok = true; detail = "" }))
        in
        check Alcotest.bool "tampered" true (result = Error T.Tampered);
        check Alcotest.int "every attempt detected" (delta "transport.attempts")
          (delta "transport.tamper_detected"));
    case "server-side decode failure means the request was mangled" (fun () ->
        (* A handler that always reports a decode failure, the way
           Endpoint.Server answers a corrupted request. *)
        let tr =
          T.create ~drbg:(fresh_drbg "mangled") ~peer:"cs-1" ~public:pub
            ~handler:(fun ~now:_ _ ->
              Wire.encode pub
                (Wire.Ack { ok = false; detail = "decode: truncated input" }))
            ()
        in
        let result, _ =
          counter_deltas (fun () ->
              T.call tr ~expect:"ack" (Wire.Ack { ok = true; detail = "" }))
        in
        check Alcotest.bool "tampered" true (result = Error T.Tampered));
    case "clock never moves backwards" (fun () ->
        let _, _, server = make_fixture ~seed:"clock" () in
        let tr = transport_to ~seed:"clock" server in
        T.set_now tr 10.0;
        check (Alcotest.float 1e-9) "set" 10.0 (T.now tr);
        Alcotest.check_raises "backwards"
          (Invalid_argument "Transport.set_now: clock moving backwards")
          (fun () -> T.set_now tr 5.0));
    case "seeded lossy channel: most calls land, all failures typed" (fun () ->
        let _, _, server = make_fixture ~seed:"lossy" () in
        let tr =
          transport_to ~faults:(T.lossy ~drop:0.3 ()) ~seed:"lossy" server
        in
        let results, delta =
          counter_deltas (fun () ->
              List.init 40 (fun i ->
                  T.call tr ~expect:"storage_response"
                    (Wire.Storage_challenge
                       { file = "tf"; indices = [ i mod 16 ] })))
        in
        let ok = List.length (List.filter Result.is_ok results) in
        check Alcotest.bool "most delivered" true (ok >= 32);
        check Alcotest.bool "retries happened" true (delta "transport.retry" > 0);
        List.iter
          (function
            | Ok (Wire.Storage_response _) -> ()
            | Ok _ -> Alcotest.fail "wrong reply kind"
            | Error (T.Timeout | T.Tampered) -> ())
          results);
    case "duplication and reordering: stale replies are discarded" (fun () ->
        let _, _, server = make_fixture ~seed:"reorder" () in
        let tr =
          transport_to
            ~faults:(T.lossy ~duplicate:1.0 ~reorder:1.0 ())
            ~seed:"reorder" server
        in
        let results, delta =
          counter_deltas (fun () ->
              List.init 6 (fun i ->
                  if i mod 2 = 0 then
                    T.call tr ~expect:"storage_response"
                      (Wire.Storage_challenge { file = "tf"; indices = [ i ] })
                  else
                    T.call tr ~expect:"compute_commitment"
                      (Wire.Compute_request
                         {
                           owner = "alice";
                           file = "tf";
                           service =
                             [ { Sc_compute.Task.func = Sc_compute.Task.Sum;
                                 position = i mod 16 } ];
                         })))
        in
        (* Every call must still resolve to its own kind (or a typed
           error): stale same-conversation replies displaced by the
           queue never leak across kinds. *)
        List.iteri
          (fun i r ->
            match r with
            | Ok (Wire.Storage_response _) ->
              check Alcotest.bool "storage slot" true (i mod 2 = 0)
            | Ok (Wire.Compute_commitment _) ->
              check Alcotest.bool "compute slot" true (i mod 2 = 1)
            | Ok _ -> Alcotest.fail "leaked stale reply of a foreign kind"
            | Error _ -> ())
          results;
        check Alcotest.bool "mismatches were discarded" true
          (delta "transport.mismatch" > 0));
  ]

(* End-to-end: full audit conversations over a 30% drop / 5% tamper
   channel terminate with typed verdicts, honest vs cheating servers
   still classified via the blame path. *)
let endpoint_tests =
  let open Util in
  let da = E.Da.create system in
  let run_audit ~seed ~storage_behaviour =
    let _user, _cloud, server =
      make_fixture ?storage:storage_behaviour ~seed ()
    in
    let tr =
      transport_to ~faults:(T.lossy ~drop:0.3 ~tamper:0.05 ()) ~seed server
    in
    E.Da.audit_storage_over_wire da ~transport:tr ~owner:"alice" ~file:"tf"
      ~indices:[ 0; 3; 7; 11 ]
  in
  [
    case "lossy channel: honest server audit terminates cleanly" (fun () ->
        (* Drive several independently seeded campaigns: none may
           raise, and every failure must be a typed channel blame, not
           a false crypto accusation. *)
        List.iter
          (fun seed ->
            let report = run_audit ~seed ~storage_behaviour:None in
            if not report.Seccloud.Agency.intact then
              check Alcotest.bool
                (Printf.sprintf "campaign %s blamed on channel" seed)
                true
                (report.Seccloud.Agency.channel <> None
                || report.Seccloud.Agency.invalid_indices <> []))
          [ "c1"; "c2"; "c3"; "c4"; "c5" ]);
    case "lossy channel: deleting server is still caught or blamed" (fun () ->
        let report =
          run_audit ~seed:"cheat-e2e"
            ~storage_behaviour:(Some (Sc_storage.Server.Delete_fraction 1.0))
        in
        check Alcotest.bool "not intact" false report.Seccloud.Agency.intact);
    case "lossy computation audit yields typed or crypto verdicts" (fun () ->
        let user, _, server = make_fixture ~seed:"comp-e2e" () in
        let tr =
          transport_to
            ~faults:(T.lossy ~drop:0.3 ~tamper:0.05 ())
            ~seed:"comp-e2e" server
        in
        let service =
          Sc_compute.Task.random_service ~drbg:(fresh_drbg "comp-e2e-svc")
            ~n_positions:16 ~n_tasks:8
        in
        let commitment =
          match
            T.call tr ~expect:"compute_commitment"
              (Wire.Compute_request { owner = "alice"; file = "tf"; service })
          with
          | Ok (Wire.Compute_commitment { commitment; _ }) -> Some commitment
          | _ -> None
        in
        match commitment with
        | None -> () (* the channel ate the setup round: typed, no raise *)
        | Some commitment ->
          let warrant =
            Seccloud.User.delegate_audit user ~now:0.0 ~lifetime:1e9 ~scope:"w"
          in
          let verdict =
            E.Da.audit_computation_over_wire da ~transport:tr ~owner:"alice"
              ~file:"tf" ~commitment ~warrant ~now:(T.now tr) ~samples:4
          in
          if not verdict.Protocol.valid then
            check Alcotest.bool "failures are typed or crypto" true
              (verdict.Protocol.failures <> []));
    case "transport failures feed the protocol blame constructors" (fun () ->
        check Alcotest.bool "timeout typed" true
          (Protocol.is_transport_failure (Protocol.Transport_timeout "cs-1"));
        check Alcotest.bool "tampered typed" true
          (Protocol.is_transport_failure (Protocol.Transport_tampered "cs-1"));
        check Alcotest.bool "crypto not typed" false
          (Protocol.is_transport_failure Protocol.Warrant_invalid));
  ]

(* Satellite: engine campaigns under a lossy channel terminate, blame
   instead of raising, and keep the counter ledger consistent. *)
let engine_tests =
  let open Util in
  [
    slow_case "perfect-channel campaign performs zero retries" (fun () ->
        let retry0 = cv "transport.retry" in
        let stats =
          Sc_sim.Engine.run
            {
              Sc_sim.Engine.default_config with
              Sc_sim.Engine.seed = "transport-clean";
              epochs = 2;
            }
        in
        check Alcotest.int "no retries" 0 (cv "transport.retry" - retry0);
        check Alcotest.int "no channel blame" 0
          (stats.Sc_sim.Engine.channel_timeouts
          + stats.Sc_sim.Engine.channel_tampering));
    slow_case "30% drop / 5% tamper campaign terminates with typed blame"
      (fun () ->
        let retry0 = cv "transport.retry" in
        let stats =
          Sc_sim.Engine.run
            {
              Sc_sim.Engine.default_config with
              Sc_sim.Engine.seed = "transport-lossy";
              epochs = 3;
              faults = T.lossy ~drop:0.3 ~tamper:0.05 ();
            }
        in
        check Alcotest.bool "audits ran" true
          (stats.Sc_sim.Engine.outcomes <> []);
        check Alcotest.bool "retries happened" true
          (cv "transport.retry" - retry0 > 0);
        check Alcotest.int "no unattributed honest flags" 0
          stats.Sc_sim.Engine.false_alarms;
        (* attempts = rpc + retry must hold globally. *)
        check Alcotest.int "attempt ledger" 0
          (cv "transport.attempts" - (cv "transport.rpc" + cv "transport.retry")));
  ]

let suite = policy_tests @ fault_tests @ endpoint_tests @ engine_tests
