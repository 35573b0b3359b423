(* Codec primitives and full wire-message round trips, including
   tamper rejection (failure injection on the wire). *)

module Wire = Seccloud.Wire
module Codec = Seccloud.Codec
module Task = Sc_compute.Task
module Protocol = Sc_audit.Protocol

let system = Lazy.force Util.shared_system
let pub = Seccloud.System.public system
let alice = Seccloud.User.create system ~id:"alice"
let bs = Util.fresh_bs "wire-tests"

let codec_tests =
  let open Util in
  [
    case "u32 round trip" (fun () ->
        List.iter
          (fun v ->
            let b = Buffer.create 8 in
            Codec.w_u32 b v;
            check Alcotest.int "u32" v (Codec.r_u32 (Codec.reader (Buffer.contents b))))
          [ 0; 1; 255; 65536; 0xFFFFFFFF ]);
    case "i64 round trip incl. negatives" (fun () ->
        List.iter
          (fun v ->
            let b = Buffer.create 8 in
            Codec.w_i64 b v;
            check Alcotest.int "i64" v (Codec.r_i64 (Codec.reader (Buffer.contents b))))
          [ 0; 1; -1; 42; -42; max_int; min_int; 1 lsl 40; -(1 lsl 40) ]);
    case "float round trip incl. negatives and specials" (fun () ->
        List.iter
          (fun v ->
            let b = Buffer.create 8 in
            Codec.w_float b v;
            let v' = Codec.r_float (Codec.reader (Buffer.contents b)) in
            if not (v = v' || (Float.is_nan v && Float.is_nan v'))
            then Alcotest.failf "float %f became %f" v v')
          [ 0.0; 1.5; -1.5; 3.14159e300; -2.2e-308; infinity; neg_infinity; nan ]);
    case "bytes round trip with binary content" (fun () ->
        let s = String.init 256 Char.chr in
        let b = Buffer.create 16 in
        Codec.w_bytes b s;
        check Alcotest.string "bytes" s (Codec.r_bytes (Codec.reader (Buffer.contents b))));
    case "truncated input raises" (fun () ->
        let b = Buffer.create 8 in
        Codec.w_u32 b 1000;
        let data = String.sub (Buffer.contents b) 0 2 in
        Alcotest.check_raises "truncated" (Codec.Decode_error "truncated input")
          (fun () -> ignore (Codec.r_u32 (Codec.reader data))));
    case "trailing bytes rejected by expect_end" (fun () ->
        let r = Codec.reader "abc" in
        ignore (Codec.r_u8 r);
        Alcotest.check_raises "trailing" (Codec.Decode_error "trailing bytes")
          (fun () -> Codec.expect_end r));
    case "option and list round trips" (fun () ->
        let b = Buffer.create 16 in
        Codec.w_option b Codec.w_u32 (Some 7);
        Codec.w_option b Codec.w_u32 None;
        Codec.w_list b (fun b -> Codec.w_u32 b) [ 1; 2; 3 ];
        let r = Codec.reader (Buffer.contents b) in
        check Alcotest.(option int) "some" (Some 7) (Codec.r_option r Codec.r_u32);
        check Alcotest.(option int) "none" None (Codec.r_option r Codec.r_u32);
        check Alcotest.(list int) "list" [ 1; 2; 3 ] (Codec.r_list r Codec.r_u32);
        Codec.expect_end r);
  ]

let roundtrip msg =
  let encoded = Wire.encode pub msg in
  Wire.decode pub encoded

let make_upload () =
  Seccloud.User.sign_file alice ~cs_id:"cs-1" ~file:"wf"
    (List.init 4 (fun i -> Sc_storage.Block.encode_ints [ i; i + 1; i + 2 ]))

let sample_service =
  [
    { Task.func = Task.Sum; position = 0 };
    { Task.func = Task.Dot [ 1; -2; 3 ]; position = 1 };
    { Task.func = Task.Compose (Task.Max, [ Task.Sum; Task.Count ]); position = 2 };
    { Task.func = Task.Polynomial [ 0; 5 ]; position = 3 };
  ]

let make_execution () =
  let cloud = Seccloud.Cloud.create system ~id:"cs-1" () in
  Seccloud.Cloud.accept_upload_unchecked cloud (make_upload ());
  Seccloud.Cloud.execute cloud ~owner:"alice" ~file:"wf" sample_service

let message_tests =
  let open Util in
  [
    case "upload round trip" (fun () ->
        let upload = make_upload () in
        match roundtrip (Wire.Upload upload) with
        | Wire.Upload u ->
          check Alcotest.string "file" "wf" u.Sc_storage.Signer.file;
          check Alcotest.string "owner" "alice" u.Sc_storage.Signer.owner;
          check Alcotest.int "blocks" 4 (Array.length u.Sc_storage.Signer.blocks);
          (* Signatures must survive: verify one after the round trip. *)
          let sb = u.Sc_storage.Signer.blocks.(2) in
          check Alcotest.bool "signature intact" true
            (Reference.verify_block pub
               ~verifier_key:(Seccloud.System.da_key system) ~role:`Da
               ~q_id:(Sc_ibc.Setup.q_of_id pub "alice") sb.Sc_storage.Signer.block sb)
        | _ -> Alcotest.fail "wrong message");
    case "storage challenge/response round trip" (fun () ->
        (match roundtrip (Wire.Storage_challenge { file = "wf"; indices = [ 0; 2 ] }) with
        | Wire.Storage_challenge { file; indices } ->
          check Alcotest.string "file" "wf" file;
          check Alcotest.(list int) "indices" [ 0; 2 ] indices
        | _ -> Alcotest.fail "wrong message");
        let cloud = Seccloud.Cloud.create system ~id:"cs-1" () in
        Seccloud.Cloud.accept_upload_unchecked cloud (make_upload ());
        let items =
          List.map
            (fun i ->
              i, Sc_storage.Server.read (Seccloud.Cloud.storage cloud) ~file:"wf" ~index:i)
            [ 0; 1; 99 ]
        in
        match roundtrip (Wire.Storage_response items) with
        | Wire.Storage_response items' ->
          check Alcotest.int "count" 3 (List.length items');
          check Alcotest.bool "missing stays missing" true
            (snd (List.nth items' 2) = None)
        | _ -> Alcotest.fail "wrong message");
    case "compute request round trip preserves the task language" (fun () ->
        match
          roundtrip
            (Wire.Compute_request { owner = "alice"; file = "wf"; service = sample_service })
        with
        | Wire.Compute_request { service; _ } ->
          List.iter2
            (fun (a : Task.request) (b : Task.request) ->
              check Alcotest.bool "func" true (a.Task.func = b.Task.func);
              check Alcotest.int "pos" a.Task.position b.Task.position)
            sample_service service
        | _ -> Alcotest.fail "wrong message");
    case "commitment and audit exchange round trip verifies" (fun () ->
        let execution = make_execution () in
        let commitment = Protocol.commitment_of_execution execution in
        let warrant =
          Seccloud.User.delegate_audit alice ~now:0.0 ~lifetime:1e9 ~scope:"w"
        in
        let challenge =
          Protocol.make_challenge
            ~drbg:(Sc_hash.Drbg.create ~seed:"wire-chal")
            ~n_tasks:4 ~samples:3 ~warrant
        in
        let responses = Option.get (Protocol.respond pub ~now:1.0 execution challenge) in
        (* Round-trip every piece, then run Algorithm 1 on the decoded
           values: the verdict must be identical. *)
        let commitment' =
          match
            roundtrip
              (Wire.Compute_commitment
                 { results = Sc_compute.Executor.results execution; commitment })
          with
          | Wire.Compute_commitment { commitment; _ } -> commitment
          | _ -> Alcotest.fail "wrong message"
        in
        let challenge' =
          match
            roundtrip
              (Wire.Audit_challenge { owner = "alice"; file = "wf"; challenge })
          with
          | Wire.Audit_challenge { challenge = c; _ } -> c
          | _ -> Alcotest.fail "wrong message"
        in
        let responses' =
          match roundtrip (Wire.Audit_response responses) with
          | Wire.Audit_response r -> r
          | _ -> Alcotest.fail "wrong message"
        in
        let verdict =
          Protocol.verify pub ~verifier_key:(Seccloud.System.da_key system)
            ~role:`Da ~owner:"alice" commitment' challenge' responses'
        in
        check Alcotest.bool "valid after round trip" true verdict.Protocol.valid);
    case "tampering with wire bytes is caught" (fun () ->
        let execution = make_execution () in
        let warrant =
          Seccloud.User.delegate_audit alice ~now:0.0 ~lifetime:1e9 ~scope:"w"
        in
        let challenge =
          Protocol.make_challenge
            ~drbg:(Sc_hash.Drbg.create ~seed:"wire-tamper")
            ~n_tasks:4 ~samples:3 ~warrant
        in
        let responses = Option.get (Protocol.respond pub ~now:1.0 execution challenge) in
        let encoded = Wire.encode pub (Wire.Audit_response responses) in
        (* Flip one byte somewhere in the middle: either decoding fails
           or the decoded responses no longer verify. *)
        let detected = ref 0 in
        let trials = 12 in
        for k = 1 to trials do
          let pos = (k * String.length encoded / (trials + 1)) + 1 in
          let tampered =
            String.mapi
              (fun i c -> if i = pos then Char.chr (Char.code c lxor 0x40) else c)
              encoded
          in
          match Wire.decode pub tampered with
          | exception Wire.Decode_error _ -> incr detected
          | Wire.Audit_response rs ->
            let commitment = Protocol.commitment_of_execution execution in
            let verdict =
              Protocol.verify pub ~verifier_key:(Seccloud.System.da_key system)
                ~role:`Da ~owner:"alice" commitment challenge rs
            in
            if not verdict.Protocol.valid then incr detected
          | _ -> incr detected
        done;
        (* Flips landing inside the CS-designated Σ are invisible to a
           DA-role verification by design (the DA never opens that
           field), so a couple of positions may pass; everything the
           DA actually checks must reject. *)
        check Alcotest.bool
          (Printf.sprintf "tampering detected (%d/%d)" !detected trials)
          true
          (!detected >= trials - 2));
    case "decode rejects unknown tag and empty input" (fun () ->
        Alcotest.check_raises "unknown tag"
          (Wire.Decode_error "unknown message tag") (fun () ->
            ignore (Wire.decode pub "\xFF"));
        Alcotest.check_raises "empty" (Wire.Decode_error "truncated input")
          (fun () -> ignore (Wire.decode pub "")));
    case "size reports the encoded length" (fun () ->
        let msg = Wire.Storage_challenge { file = "abc"; indices = [ 1; 2; 3 ] } in
        check Alcotest.int "size" (String.length (Wire.encode pub msg))
          (Wire.size pub msg));
  ]

(* --- endpoint conversations over the wire --------------------------- *)

let endpoint_tests =
  let open Util in
  let module E = Seccloud.Endpoint in
  let module T = Seccloud.Transport in
  let fresh tag ?(compute = Sc_compute.Executor.Honest) () =
    let sys =
      Seccloud.System.create ~params:Sc_pairing.Params.toy
        ~seed:("ep:" ^ tag) ~cs_ids:[ "cs" ] ~da_id:"da" ()
    in
    let user = Seccloud.User.create sys ~id:"alice" in
    let cloud = Seccloud.Cloud.create sys ~id:"cs" ~compute () in
    let server = E.Server.create sys cloud in
    let da = E.Da.create sys in
    sys, user, server, da
  in
  (* A perfect channel to the server endpoint: the transport layer in
     its degenerate configuration. *)
  let wire_to sys server =
    T.create ~peer:"cs" ~public:(Seccloud.System.public sys)
      ~handler:(E.Server.handle server) ()
  in
  let numeric_payloads n =
    List.init n (fun i -> Sc_storage.Block.encode_ints [ i; 2 * i; 3 * i ])
  in
  (* Requests and replies are envelope-framed on the wire; wrap the
     request and strip the reply envelope before decoding. *)
  let call_direct server ~now p msg =
    let reply =
      E.Server.handle server ~now
        (Seccloud.Envelope.wrap (Seccloud.Wire.encode p msg))
    in
    let _ctx, payload = Seccloud.Envelope.unwrap reply in
    Seccloud.Wire.decode p payload
  in
  let upload_via_wire sys user server =
    let p = Seccloud.System.public sys in
    let upload = Seccloud.User.sign_file user ~cs_id:"cs" ~file:"ef" (numeric_payloads 8) in
    match call_direct server ~now:0.0 p (Wire.Upload upload) with
    | Wire.Ack { ok; _ } -> ok
    | _ -> false
  in
  [
    case "upload over the wire is acknowledged" (fun () ->
        let sys, user, server, _ = fresh "up" () in
        check Alcotest.bool "ack ok" true (upload_via_wire sys user server));
    case "storage audit over the wire" (fun () ->
        let sys, user, server, da = fresh "sa" () in
        assert (upload_via_wire sys user server);
        let report =
          E.Da.audit_storage_over_wire da ~transport:(wire_to sys server)
            ~owner:"alice" ~file:"ef" ~indices:[ 0; 3; 7 ]
        in
        check Alcotest.bool "intact" true report.Seccloud.Agency.intact;
        (* missing file over the wire: not intact *)
        let bad =
          E.Da.audit_storage_over_wire da ~transport:(wire_to sys server)
            ~owner:"alice" ~file:"ghost" ~indices:[ 0 ]
        in
        check Alcotest.bool "ghost rejected" false bad.Seccloud.Agency.intact);
    case "full computation audit conversation over the wire" (fun () ->
        let sys, user, server, da = fresh "ca" () in
        assert (upload_via_wire sys user server);
        let p = Seccloud.System.public sys in
        let service =
          List.init 6 (fun i -> { Task.func = Task.Sum; position = i })
        in
        let commitment =
          match
            call_direct server ~now:2.0 p
              (Wire.Compute_request { owner = "alice"; file = "ef"; service })
          with
          | Wire.Compute_commitment { commitment; _ } -> commitment
          | _ -> Alcotest.fail "expected commitment"
        in
        let warrant =
          Seccloud.User.delegate_audit user ~now:0.0 ~lifetime:1e9 ~scope:"ep"
        in
        let verdict =
          E.Da.audit_computation_over_wire da ~transport:(wire_to sys server)
            ~owner:"alice" ~file:"ef" ~commitment ~warrant ~now:3.0 ~samples:4
        in
        check Alcotest.bool "valid" true verdict.Protocol.valid);
    case "cheating server fails the over-the-wire audit" (fun () ->
        let sys, user, server, da =
          fresh "cheat" ~compute:(Sc_compute.Executor.Guess_fraction (1.0, 1 lsl 30)) ()
        in
        assert (upload_via_wire sys user server);
        let p = Seccloud.System.public sys in
        let service =
          List.init 6 (fun i -> { Task.func = Task.Sum; position = i })
        in
        let commitment =
          match
            call_direct server ~now:2.0 p
              (Wire.Compute_request { owner = "alice"; file = "ef"; service })
          with
          | Wire.Compute_commitment { commitment; _ } -> commitment
          | _ -> Alcotest.fail "expected commitment"
        in
        let warrant =
          Seccloud.User.delegate_audit user ~now:0.0 ~lifetime:1e9 ~scope:"ep"
        in
        let verdict =
          E.Da.audit_computation_over_wire da ~transport:(wire_to sys server)
            ~owner:"alice" ~file:"ef" ~commitment ~warrant ~now:3.0 ~samples:6
        in
        check Alcotest.bool "invalid" false verdict.Protocol.valid);
    case "server refuses another owner's warrant and one for another delegatee"
      (fun () ->
        let sys, user, server, da = fresh "bind" () in
        assert (upload_via_wire sys user server);
        let p = Seccloud.System.public sys in
        let service =
          List.init 6 (fun i -> { Task.func = Task.Sum; position = i })
        in
        let commitment =
          match
            call_direct server ~now:2.0 p
              (Wire.Compute_request { owner = "alice"; file = "ef"; service })
          with
          | Wire.Compute_commitment { commitment; _ } -> commitment
          | _ -> Alcotest.fail "expected commitment"
        in
        let bobs =
          Seccloud.User.delegate_audit (Seccloud.User.create sys ~id:"bob")
            ~now:0.0 ~lifetime:1e9 ~scope:"bob's"
        in
        let elsewhere =
          Sc_ibc.Warrant.issue p (Seccloud.System.register_user sys "alice")
            ~bytes_source:bs ~delegatee:"cs" ~now:0.0 ~lifetime:1e9
            ~scope:"not the DA"
        in
        let audit warrant =
          E.Da.audit_computation_over_wire da ~transport:(wire_to sys server)
            ~owner:"alice" ~file:"ef" ~commitment ~warrant ~now:3.0 ~samples:4
        in
        List.iter
          (fun (name, warrant) ->
            check
              Alcotest.(list string)
              name [ "warrant invalid or expired" ]
              (List.map
                 (Format.asprintf "%a" Protocol.pp_failure)
                 (audit warrant).Protocol.failures);
            match
              call_direct server ~now:3.0 p
                (Wire.Audit_challenge
                   {
                     owner = "alice";
                     file = "ef";
                     challenge = { Protocol.sample_indices = [ 0 ]; warrant };
                   })
            with
            | Wire.Ack { ok; detail } ->
              check Alcotest.bool (name ^ ": error ack") false ok;
              check Alcotest.string (name ^ ": detail") "warrant rejected" detail
            | _ -> Alcotest.fail "expected ack")
          [ "another owner's warrant", bobs; "delegated to the server", elsewhere ];
        check Alcotest.bool "the owner's warrant for the DA" true
          (audit
             (Seccloud.User.delegate_audit user ~now:0.0 ~lifetime:1e9 ~scope:"ep"))
            .Protocol.valid);
    case "server answers garbage bytes with an error Ack" (fun () ->
        let sys, _, server, _ = fresh "garbage" () in
        let p = Seccloud.System.public sys in
        let reply = E.Server.handle server ~now:0.0 "\xde\xad" in
        let _ctx, payload = Seccloud.Envelope.unwrap reply in
        match Seccloud.Wire.decode p payload with
        | Wire.Ack { ok; _ } -> check Alcotest.bool "error ack" false ok
        | _ -> Alcotest.fail "expected ack");
    case "audit for unknown execution yields an error Ack" (fun () ->
        let sys, user, server, da = fresh "unknown" () in
        let warrant =
          Seccloud.User.delegate_audit user ~now:0.0 ~lifetime:1e9 ~scope:"x"
        in
        let commitment =
          {
            Protocol.root = String.make 32 'x';
            root_signature =
              Sc_ibc.Ibs.sign (Seccloud.System.public sys)
                (Seccloud.System.da_key sys) ~bytes_source:bs "r";
            cs_id = "cs";
            n_tasks = 4;
          }
        in
        let verdict =
          E.Da.audit_computation_over_wire da ~transport:(wire_to sys server)
            ~owner:"alice" ~file:"never" ~commitment ~warrant ~now:1.0 ~samples:2
        in
        check Alcotest.bool "invalid" false verdict.Protocol.valid);
  ]

let suite = codec_tests @ message_tests @ endpoint_tests
