(* End-to-end tests of the top-level orchestration API. *)

let fresh_system ?(cs_ids = [ "cs-1"; "cs-2" ]) tag =
  Seccloud.System.create ~params:Sc_pairing.Params.toy ~seed:("sys:" ^ tag)
    ~cs_ids ~da_id:"da" ()

let payloads n =
  List.init n (fun i -> Sc_storage.Block.encode_ints [ i; i + 10; i * 2 ])

let da_of system = Seccloud.Agency.create system

(* Users alice, bob and carol each store a file on [cloud_of i], run an
   8-task service there and delegate the audit; the DA then checks all
   three executions in one batched verification. *)
let batched_computation_audit system cloud_of =
  let drbg = Sc_hash.Drbg.create ~seed:"svc2" in
  let jobs =
    List.mapi
      (fun i name ->
        let cloud = cloud_of i in
        let user = Seccloud.User.create system ~id:name in
        assert (Seccloud.User.store user cloud ~file:(name ^ "-f") (payloads 16));
        let service =
          Sc_compute.Task.random_service ~drbg ~n_positions:16 ~n_tasks:8
        in
        let execution =
          Seccloud.Cloud.execute cloud ~owner:name ~file:(name ^ "-f") service
        in
        let warrant =
          Seccloud.User.delegate_audit user ~now:0.0 ~lifetime:100.0 ~scope:"t"
        in
        cloud, name, execution, warrant)
      [ "alice"; "bob"; "carol" ]
  in
  Seccloud.Agency.audit_computation_batched (da_of system) jobs ~now:10.0
    ~samples:5

let unit_tests =
  let open Util in
  [
    case "system setup extracts consistent keys" (fun () ->
        let system = fresh_system "setup" in
        let pub = Seccloud.System.public system in
        check Alcotest.bool "da key valid" true
          (Sc_ibc.Setup.valid_key pub (Seccloud.System.da_key system));
        check Alcotest.bool "cs key valid" true
          (Sc_ibc.Setup.valid_key pub (Seccloud.System.cs_key system "cs-1"));
        check Alcotest.(list string) "cs ids" [ "cs-1"; "cs-2" ]
          (Seccloud.System.cs_ids system));
    case "register_user is idempotent" (fun () ->
        let system = fresh_system "reg" in
        let k1 = Seccloud.System.register_user system "alice" in
        let k2 = Seccloud.System.register_user system "alice" in
        check Alcotest.bool "same key" true
          (Sc_ec.Curve.equal k1.Sc_ibc.Setup.sk k2.Sc_ibc.Setup.sk));
    case "unknown server id raises" (fun () ->
        let system = fresh_system "unknown" in
        Alcotest.check_raises "not found" Not_found (fun () ->
            ignore (Seccloud.System.cs_key system "cs-99")));
    case "store + storage audit round trip" (fun () ->
        let system = fresh_system "store" in
        let user = Seccloud.User.create system ~id:"alice" in
        let cloud = Seccloud.Cloud.create system ~id:"cs-1" () in
        let da = Seccloud.Agency.create system in
        check Alcotest.bool "accepted" true
          (Seccloud.User.store user cloud ~file:"f" (payloads 24));
        let r = Seccloud.Agency.audit_storage da cloud ~owner:"alice" ~file:"f" ~samples:10 in
        check Alcotest.bool "intact" true r.Seccloud.Agency.intact;
        check Alcotest.int "sampled" 10 r.Seccloud.Agency.sampled);
    case "batched storage audit agrees with individual" (fun () ->
        let system = fresh_system "batchagree" in
        let pub = Seccloud.System.public system in
        let da_key = Seccloud.System.da_key system in
        let user = Seccloud.User.create system ~id:"alice" in
        let da = Seccloud.Agency.create system in
        let q_id = Sc_ibc.Setup.q_of_id pub "alice" in
        (* Cheating is sticky per position, so reading every block again
           sees what the audit saw.  A block is good when it claims its
           index and its own Dvs.verify accepts it. *)
        let reference cloud =
          List.filter
            (fun i ->
              match
                Sc_storage.Server.read (Seccloud.Cloud.storage cloud) ~file:"f"
                  ~index:i
              with
              | Some { Sc_storage.Server.claimed; signed }
                when claimed.Sc_storage.Block.index = i ->
                not
                  (Sc_storage.Signer.verify_block pub ~verifier_key:da_key
                     ~role:`Da ~q_id claimed signed)
              | Some _ | None -> true)
            (List.init 24 Fun.id)
        in
        List.iter
          (fun storage ->
            let cloud = Seccloud.Cloud.create system ~id:"cs-1" ~storage () in
            Seccloud.Cloud.accept_upload_unchecked cloud
              (Seccloud.User.sign_file user ~cs_id:"cs-1" ~file:"f" (payloads 24));
            let a =
              Seccloud.Agency.audit_storage da cloud ~owner:"alice" ~file:"f"
                ~samples:24
            in
            let expected = reference cloud in
            check Alcotest.(list int) "same invalid blocks" expected
              (List.sort compare a.Seccloud.Agency.invalid_indices);
            check Alcotest.bool "same verdict" (expected = [])
              a.Seccloud.Agency.intact)
          [
            Sc_storage.Server.Honest;
            Sc_storage.Server.Corrupt_fraction 0.4;
            Sc_storage.Server.Delete_fraction 0.3;
            Sc_storage.Server.Substitute_fraction 0.3;
          ]);
    case "corrupting server fails storage audit" (fun () ->
        let system = fresh_system "corrupt" in
        let user = Seccloud.User.create system ~id:"alice" in
        let cloud =
          Seccloud.Cloud.create system ~id:"cs-1"
            ~storage:(Sc_storage.Server.Corrupt_fraction 0.6) ()
        in
        Seccloud.Cloud.accept_upload_unchecked cloud
          (Seccloud.User.sign_file user ~cs_id:"cs-1" ~file:"f" (payloads 24));
        let r =
          Seccloud.Agency.audit_storage (da_of system) cloud ~owner:"alice"
            ~file:"f" ~samples:24
        in
        check Alcotest.bool "caught" false r.Seccloud.Agency.intact;
        check Alcotest.bool "culprits named" true
          (r.Seccloud.Agency.invalid_indices <> []));
    case "audit of missing file is not intact" (fun () ->
        let system = fresh_system "missing" in
        let cloud = Seccloud.Cloud.create system ~id:"cs-1" () in
        let da = Seccloud.Agency.create system in
        let r = Seccloud.Agency.audit_storage da cloud ~owner:"alice" ~file:"ghost" ~samples:5 in
        check Alcotest.bool "not intact" false r.Seccloud.Agency.intact);
    case "honest server rejects a tampered upload" (fun () ->
        let system = fresh_system "tamper" in
        let user = Seccloud.User.create system ~id:"alice" in
        let cloud = Seccloud.Cloud.create system ~id:"cs-1" () in
        let upload = Seccloud.User.sign_file user ~cs_id:"cs-1" ~file:"f" (payloads 4) in
        let sb = upload.Sc_storage.Signer.blocks.(0) in
        upload.Sc_storage.Signer.blocks.(0) <-
          { sb with Sc_storage.Signer.block =
              { sb.Sc_storage.Signer.block with Sc_storage.Block.data = "evil" } };
        check Alcotest.bool "rejected" false (Seccloud.Cloud.accept_upload cloud upload));
    case "accept_upload checks all blocks with one pairing" (fun () ->
        let system = fresh_system "upload-pairings" in
        let user = Seccloud.User.create system ~id:"alice" in
        let cloud = Seccloud.Cloud.create system ~id:"cs-1" () in
        let upload = Seccloud.User.sign_file user ~cs_id:"cs-1" ~file:"f" (payloads 16) in
        let p0 = Sc_pairing.Tate.pairings_performed () in
        check Alcotest.bool "accepted" true (Seccloud.Cloud.accept_upload cloud upload);
        check Alcotest.int "one pairing" 1 (Sc_pairing.Tate.pairings_performed () - p0));
    case "a returning owner signs with no pairing, bit for bit as Signer" (fun () ->
        (* Same seed, so both systems hand alice the same key and the
           same DRBG stream; building bases draws nothing from it. *)
        let cached = fresh_system "returning" and fresh = fresh_system "returning" in
        let user = Seccloud.User.create cached ~id:"alice" in
        let key = Seccloud.System.register_user fresh "alice" in
        let pub = Seccloud.System.public fresh in
        let prm = pub.Sc_ibc.Setup.prm in
        let bytes (up : Sc_storage.Signer.upload) =
          String.concat ""
            (Array.to_list
               (Array.map
                  (fun (sb : Sc_storage.Signer.signed_block) ->
                    sb.block.Sc_storage.Block.data
                    ^ Sc_ec.Curve.to_bytes prm.Sc_pairing.Params.curve sb.u
                    ^ Sc_pairing.Tate.gt_to_bytes prm sb.sigma_cs
                    ^ Sc_pairing.Tate.gt_to_bytes prm sb.sigma_da)
                  up.blocks))
        in
        let by_user cs_id file =
          let p0 = Sc_pairing.Tate.pairings_performed () in
          let up = Seccloud.User.sign_file user ~cs_id ~file (payloads 8) in
          up, Sc_pairing.Tate.pairings_performed () - p0
        in
        let by_signer cs_id file =
          Sc_storage.Signer.sign_file pub key
            ~bytes_source:(Seccloud.System.bytes_source fresh)
            ~bases:(Sc_storage.Signer.bases pub key ~cs_id ~da_id:"da")
            ~file (payloads 8)
        in
        List.iter
          (fun (cs_id, file, pairings) ->
            let up, spent = by_user cs_id file in
            check Alcotest.int (file ^ ": signer pairings") pairings spent;
            check Alcotest.string (file ^ ": bytes") (bytes (by_signer cs_id file))
              (bytes up))
          [ "cs-1", "first", 2; "cs-1", "second", 0; "cs-2", "elsewhere", 2;
            "cs-1", "third", 0 ]);
    case "computation audit end-to-end honest" (fun () ->
        let system = fresh_system "comp" in
        let user = Seccloud.User.create system ~id:"alice" in
        let cloud = Seccloud.Cloud.create system ~id:"cs-1" () in
        let da = Seccloud.Agency.create system in
        assert (Seccloud.User.store user cloud ~file:"f" (payloads 24));
        let drbg = Sc_hash.Drbg.create ~seed:"svc" in
        let service = Sc_compute.Task.random_service ~drbg ~n_positions:24 ~n_tasks:12 in
        let execution = Seccloud.Cloud.execute cloud ~owner:"alice" ~file:"f" service in
        let warrant = Seccloud.User.delegate_audit user ~now:0.0 ~lifetime:100.0 ~scope:"t" in
        let v =
          Seccloud.Agency.audit_computation da cloud ~owner:"alice" ~execution
            ~warrant ~now:50.0 ~samples:8
        in
        check Alcotest.bool "valid" true v.Sc_audit.Protocol.valid);
    case "a warrant only opens executions over its delegator's data"
      (fun () ->
        let system = fresh_system "owner-bound" in
        let alice = Seccloud.User.create system ~id:"alice" in
        let bob = Seccloud.User.create system ~id:"bob" in
        let cloud = Seccloud.Cloud.create system ~id:"cs-1" () in
        assert (Seccloud.User.store alice cloud ~file:"f" (payloads 8));
        let drbg = Sc_hash.Drbg.create ~seed:"svc" in
        let service = Sc_compute.Task.random_service ~drbg ~n_positions:8 ~n_tasks:4 in
        let execution = Seccloud.Cloud.execute cloud ~owner:"alice" ~file:"f" service in
        check Alcotest.string "owner kept" "alice" (Sc_compute.Executor.owner execution);
        let warrant = Seccloud.User.delegate_audit bob ~now:0.0 ~lifetime:100.0 ~scope:"t" in
        let v =
          Seccloud.Agency.audit_computation (da_of system) cloud ~owner:"bob" ~execution
            ~warrant ~now:10.0 ~samples:4
        in
        check Alcotest.bool "invalid" false v.Sc_audit.Protocol.valid;
        check Alcotest.bool "refused as Warrant_invalid" true
          (v.Sc_audit.Protocol.failures = [ Sc_audit.Protocol.Warrant_invalid ]));
    case "multi-user batched computation audit" (fun () ->
        let system = fresh_system "multi" in
        let cloud = Seccloud.Cloud.create system ~id:"cs-1" () in
        let v = batched_computation_audit system (fun _ -> cloud) in
        check Alcotest.bool "valid" true v.Sc_audit.Protocol.valid);
    case "one cheating cloud fails a batched audit across three clouds"
      (fun () ->
        let system = fresh_system ~cs_ids:[ "cs-1"; "cs-2"; "cs-3" ] "multi" in
        let clouds =
          [
            Seccloud.Cloud.create system ~id:"cs-1" ();
            Seccloud.Cloud.create system ~id:"cs-2"
              ~compute:(Sc_compute.Executor.Guess_fraction (1.0, 1 lsl 30))
              ();
            Seccloud.Cloud.create system ~id:"cs-3" ();
          ]
        in
        let v = batched_computation_audit system (List.nth clouds) in
        check Alcotest.bool "invalid" false v.Sc_audit.Protocol.valid;
        check Alcotest.bool "Computing_wrong reported" true
          (List.exists
             (function
               | Sc_audit.Protocol.Computing_wrong _ -> true | _ -> false)
             v.Sc_audit.Protocol.failures));
    case "choose_sample_size matches sampling module" (fun () ->
        check Alcotest.int "t=33-ish" 33
          (Seccloud.Agency.choose_sample_size ~range:2.0 ~csc:0.5 ~ssc:0.5 ()));
  ]

(* Transport faults surfacing through the sharded service path: the
   typed channel blame must arrive in the [Audited] report's
   [channel] field (never as a false crypto alarm), and retry
   exhaustion must compose with queue-boundary backpressure. *)
let service_channel_tests =
  let open Util in
  let module Service = Sc_service.Service in
  let module Transport = Seccloud.Transport in
  let make ?(retry = Transport.Retry.default) seed =
    Service.create
      ~config:
        {
          Service.default_config with
          Service.shards = 1;
          queue_capacity = 4;
          drain_quantum = 2;
          retry;
        }
      ~params:Sc_pairing.Params.toy ~seed ()
  in
  let submit_ok svc tenant request =
    match Service.submit svc ~tenant request with
    | Ok () -> ()
    | Error e -> Alcotest.failf "unexpected rejection: %a" Service.pp_error e
  in
  let store_payloads =
    List.init 4 (fun i -> Sc_storage.Block.encode_ints [ i; i + 7; i * 3 ])
  in
  let audited = function
    | _, _, Service.Audited { report; tampered_in_flight } ->
      report, tampered_in_flight
    | _ -> Alcotest.fail "expected an audit response"
  in
  [
    case "service path surfaces Transport_timeout in report.channel"
      (fun () ->
        let svc = make "svc-chan-timeout" in
        submit_ok svc "alice" Service.Admit;
        submit_ok svc "alice"
          (Service.Store { file = "f"; payloads = store_payloads });
        ignore (Service.drain svc);
        (* Kill the channel: every message dropped, retries exhaust. *)
        Service.set_faults svc (Transport.lossy ~drop:1.0 ());
        submit_ok svc "alice" (Service.Audit_storage { file = "f"; samples = 2 });
        let report, _ = audited (List.hd (Service.drain svc)) in
        check Alcotest.bool "timeout blamed" true
          (report.Seccloud.Agency.channel = Some Transport.Timeout);
        check Alcotest.bool "not intact" false report.Seccloud.Agency.intact;
        (* Channel blame, not a crypto alarm. *)
        let l = Service.ledger svc in
        check Alcotest.int "no crypto alarm" 0 l.Service.audit_alarms;
        check Alcotest.int "channel blamed" 1 l.Service.channel_blames);
    case "service path surfaces Transport_tampered in report.channel"
      (fun () ->
        (* With the default 5-attempt policy a typed [Tampered] needs
           five decode-breaking flips in a row — astronomically rare
           on payload-heavy audit responses, where most single-bit
           flips land in signature bytes and decode fine.  A
           single-attempt policy makes one decode-breaking flip
           surface as the typed blame. *)
        let retry = { Transport.Retry.default with max_attempts = 1 } in
        let svc = make ~retry "svc-chan-tamper" in
        submit_ok svc "alice" Service.Admit;
        submit_ok svc "alice"
          (Service.Store { file = "f"; payloads = store_payloads });
        ignore (Service.drain svc);
        Service.set_faults svc (Transport.lossy ~tamper:1.0 ());
        (* A bit flip can break decoding (typed [Tampered] blame after
           retry exhaustion) or survive it (signature verification
           fails, with the per-instance fault counter as ground
           truth).  Both are sound; what must never happen is a failed
           audit with a clean channel and no injected tampering. *)
        (* A typed blame needs a decode-breaking flip on *every*
           retry attempt of one call; each round advances the seeded
           fault stream, so keep auditing (deterministically) until
           one lands. *)
        let blamed = ref 0 in
        let round = ref 0 in
        while !blamed = 0 && !round < 64 do
          incr round;
          submit_ok svc "alice"
            (Service.Audit_storage { file = "f"; samples = 2 });
          let report, tampered_in_flight =
            audited (List.hd (Service.drain svc))
          in
          match report.Seccloud.Agency.channel with
          | Some Transport.Tampered -> incr blamed
          | Some Transport.Timeout -> Alcotest.fail "no drops were injected"
          | None ->
            (* The flip survived decoding (it may even have verified,
               e.g. a mangled challenge index answered correctly) —
               but the fault-layer ground truth must mark the round,
               so nothing here can ever read as a clean-channel false
               alarm. *)
            check Alcotest.bool "fault layer marked the round" true
              tampered_in_flight
        done;
        check Alcotest.bool "typed Tampered blame surfaced" true (!blamed > 0);
        (* Healing the channel heals the verdicts: same file, clean
           audit. *)
        Service.set_faults svc Transport.perfect;
        submit_ok svc "alice" (Service.Audit_storage { file = "f"; samples = 4 });
        let report, _ = audited (List.hd (Service.drain svc)) in
        check Alcotest.bool "intact after healing" true
          report.Seccloud.Agency.intact;
        check Alcotest.bool "no blame after healing" true
          (report.Seccloud.Agency.channel = None));
    case "retry exhaustion composes with backpressure at the queue boundary"
      (fun () ->
        let svc = make "svc-chan-queue" in
        submit_ok svc "alice" Service.Admit;
        submit_ok svc "alice"
          (Service.Store { file = "f"; payloads = store_payloads });
        ignore (Service.drain svc);
        Service.set_faults svc (Transport.lossy ~drop:1.0 ());
        (* Fill the queue to its cap of 4 with audits destined to
           exhaust their retries... *)
        for _ = 1 to 4 do
          submit_ok svc "alice"
            (Service.Audit_storage { file = "f"; samples = 2 })
        done;
        (* ...the 5th request meets typed backpressure... *)
        (match
           Service.submit svc ~tenant:"alice"
             (Service.Compute { file = "f"; n_tasks = 2; samples = 2 })
         with
        | Ok () -> Alcotest.fail "queue was full: submit must be rejected"
        | Error (Service.Overloaded { depth; _ }) ->
          check Alcotest.int "rejected at cap" 4 depth);
        (* ...and draining turns every queued round into a typed
           channel verdict rather than a hang or a crypto alarm. *)
        let responses = Service.drain svc in
        check Alcotest.int "all queued audits answered" 4
          (List.length responses);
        List.iter
          (fun r ->
            let report, _ = audited r in
            check Alcotest.bool "typed timeout" true
              (report.Seccloud.Agency.channel = Some Transport.Timeout))
          responses;
        (* The rejected compute goes through once there is room. *)
        submit_ok svc "alice"
          (Service.Compute { file = "f"; n_tasks = 2; samples = 2 });
        match Service.drain svc with
        | [ (_, _, Service.Compute_failed Transport.Timeout) ] -> ()
        | [ (_, _, Service.Computed { verdict; _ }) ] ->
          check Alcotest.bool "transport failure in verdict" true
            (List.exists Sc_audit.Protocol.is_transport_failure
               verdict.Sc_audit.Protocol.failures)
        | _ -> Alcotest.fail "expected a typed compute outcome");
  ]

let suite = unit_tests @ service_channel_tests

