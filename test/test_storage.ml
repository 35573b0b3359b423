open Sc_storage

let system = Lazy.force Util.shared_system
let pub = Seccloud.System.public system
let da_key = Seccloud.System.da_key system
let cs_key = Seccloud.System.cs_key system "cs-1"
let alice = Seccloud.System.register_user system "alice"
let bs = Util.fresh_bs "storage-tests"

let payloads = List.init 16 (fun i -> Block.encode_ints [ i; i + 1; i + 2 ])

let make_upload () =
  Signer.sign_file pub alice ~bytes_source:bs ~bases:(Signer.bases pub alice ~cs_id:"cs-1" ~da_id:"da")
    ~file:"doc" payloads

let fresh_server behaviour =
  let server = Server.create behaviour ~drbg:(Sc_hash.Drbg.create ~seed:"srv") in
  Server.store server (make_upload ());
  server

let block_tests =
  let open Util in
  [
    case "encode/decode ints round trip" (fun () ->
        List.iter
          (fun ints ->
            check
              Alcotest.(option (list int))
              "round trip" (Some ints)
              (Block.decode_ints (Block.encode_ints ints)))
          [ []; [ 0 ]; [ 1; 2; 3 ]; [ -5; 0; 42; max_int ] ]);
    case "decode rejects garbage" (fun () ->
        check Alcotest.(option (list int)) "garbage" None (Block.decode_ints "1,x,3"));
    case "signing message binds file, index and data" (fun () ->
        let b = { Block.file = "f"; index = 3; data = "d" } in
        let variants =
          [
            { b with Block.file = "g" };
            { b with Block.index = 4 };
            { b with Block.data = "e" };
          ]
        in
        List.iter
          (fun v ->
            if String.equal (Block.signing_message b) (Block.signing_message v)
            then Alcotest.fail "collision")
          variants);
  ]

let signer_tests =
  let open Util in
  [
    case "signed blocks verify for both designated parties" (fun () ->
        let upload = make_upload () in
        Array.iter
          (fun (sb : Signer.signed_block) ->
            check Alcotest.bool "cs" true
              (Reference.verify_block pub ~verifier_key:cs_key ~role:`Cs
                 ~q_id:(Sc_ibc.Setup.q_of_id pub "alice") sb.Signer.block sb);
            check Alcotest.bool "da" true
              (Reference.verify_block pub ~verifier_key:da_key ~role:`Da
                 ~q_id:(Sc_ibc.Setup.q_of_id pub "alice") sb.Signer.block sb))
          upload.Signer.blocks);
    case "verification fails for tampered payload" (fun () ->
        let upload = make_upload () in
        let sb = upload.Signer.blocks.(2) in
        let forged = { sb.Signer.block with Block.data = "other" } in
        check Alcotest.bool "tampered" false
          (Reference.verify_block pub ~verifier_key:da_key ~role:`Da ~q_id:(Sc_ibc.Setup.q_of_id pub "alice")
             forged sb));
    case "verification fails for shifted position" (fun () ->
        let upload = make_upload () in
        let sb = upload.Signer.blocks.(2) in
        let moved = { sb.Signer.block with Block.index = 5 } in
        check Alcotest.bool "moved" false
          (Reference.verify_block pub ~verifier_key:da_key ~role:`Da ~q_id:(Sc_ibc.Setup.q_of_id pub "alice")
             moved sb));
    case "verification fails for wrong owner" (fun () ->
        let upload = make_upload () in
        let sb = upload.Signer.blocks.(0) in
        check Alcotest.bool "wrong owner" false
          (Reference.verify_block pub ~verifier_key:da_key ~role:`Da ~q_id:(Sc_ibc.Setup.q_of_id pub "bob")
             sb.Signer.block sb));
    case "role projection picks matching sigma" (fun () ->
        let upload = make_upload () in
        let sb = upload.Signer.blocks.(0) in
        let dcs = Signer.dvs_for `Cs sb and dda = Signer.dvs_for `Da sb in
        check Alcotest.bool "distinct designations" false
          (Sc_field.Fp2.equal dcs.Sc_ibc.Dvs.sigma dda.Sc_ibc.Dvs.sigma));
  ]

let server_tests =
  let open Util in
  [
    case "honest server serves verifiable blocks" (fun () ->
        let server = fresh_server Server.Honest in
        for i = 0 to 15 do
          match Server.read server ~file:"doc" ~index:i with
          | None -> Alcotest.fail "missing block"
          | Some { Server.claimed; signed } ->
            check Alcotest.bool "verifies" true
              (Reference.verify_block pub ~verifier_key:da_key ~role:`Da
                 ~q_id:(Sc_ibc.Setup.q_of_id pub "alice") claimed signed)
        done);
    case "unknown file and out-of-range index give None" (fun () ->
        let server = fresh_server Server.Honest in
        check Alcotest.bool "no file" true
          (Server.read server ~file:"nope" ~index:0 = None);
        check Alcotest.bool "oob" true
          (Server.read server ~file:"doc" ~index:99 = None));
    case "delete-fraction server gets caught on some blocks" (fun () ->
        let server = fresh_server (Server.Delete_fraction 0.5) in
        let failures = ref 0 in
        for i = 0 to 15 do
          match Server.read server ~file:"doc" ~index:i with
          | None -> incr failures
          | Some { Server.claimed; signed } ->
            if
              not
                (Reference.verify_block pub ~verifier_key:da_key ~role:`Da
                   ~q_id:(Sc_ibc.Setup.q_of_id pub "alice") claimed signed)
            then incr failures
        done;
        check Alcotest.bool "some deleted blocks detected" true (!failures > 0));
    case "corrupt-fraction server gets caught" (fun () ->
        let server = fresh_server (Server.Corrupt_fraction 0.5) in
        let failures = ref 0 in
        for i = 0 to 15 do
          match Server.read server ~file:"doc" ~index:i with
          | Some { Server.claimed; signed } ->
            if
              not
                (Reference.verify_block pub ~verifier_key:da_key ~role:`Da
                   ~q_id:(Sc_ibc.Setup.q_of_id pub "alice") claimed signed)
            then incr failures
          | None -> incr failures
        done;
        check Alcotest.bool "detected" true (!failures > 0));
    case "substitute-fraction serves wrong positions detectably" (fun () ->
        let server = fresh_server (Server.Substitute_fraction 0.8) in
        let mismatches = ref 0 in
        for i = 0 to 15 do
          match Server.read server ~file:"doc" ~index:i with
          | Some { Server.claimed; signed } ->
            (* Either the signature fails outright or the claimed index
               disagrees with what was signed. *)
            let sig_ok =
              Reference.verify_block pub ~verifier_key:da_key ~role:`Da
                ~q_id:(Sc_ibc.Setup.q_of_id pub "alice") claimed signed
            in
            if not sig_ok then incr mismatches
          | None -> incr mismatches
        done;
        check Alcotest.bool "detected" true (!mismatches > 0));
    case "cheating is sticky per position" (fun () ->
        let server = fresh_server (Server.Corrupt_fraction 0.5) in
        for i = 0 to 15 do
          let r1 = Server.read server ~file:"doc" ~index:i in
          let r2 = Server.read server ~file:"doc" ~index:i in
          match r1, r2 with
          | Some a, Some b ->
            check Alcotest.string "stable answer" a.Server.claimed.Block.data
              b.Server.claimed.Block.data
          | None, None -> ()
          | Some _, None | None, Some _ -> Alcotest.fail "flapping"
        done);
    case "read_honest bypasses cheating" (fun () ->
        let server = fresh_server (Server.Corrupt_fraction 1.0) in
        for i = 0 to 15 do
          match Server.read_honest server ~file:"doc" ~index:i with
          | None -> Alcotest.fail "missing"
          | Some { Server.claimed; signed } ->
            check Alcotest.bool "clean" true
              (Reference.verify_block pub ~verifier_key:da_key ~role:`Da
                 ~q_id:(Sc_ibc.Setup.q_of_id pub "alice") claimed signed)
        done);
    case "file listing and size" (fun () ->
        let server = fresh_server Server.Honest in
        check Alcotest.(list string) "files" [ "doc" ] (Server.files server);
        check Alcotest.(option int) "size" (Some 16) (Server.file_size server "doc"));
  ]

let dynamic_tests =
  let open Util in
  let module D = Dynamic in
  let fresh tag n =
    D.init pub alice ~bytes_source:(Util.fresh_bs ("dyn:" ^ tag)) ~cs_id:"cs-1"
      ~da_id:"da" ~file:"dynfile"
      (List.init n (Printf.sprintf "payload-%d"))
  in
  let accepted = function Ok () -> true | Error _ -> false in
  [
    case "init: client and server agree on the root" (fun () ->
        let client, server = fresh "init" 9 in
        check Alcotest.string "roots" (D.root client) (D.server_root server);
        check Alcotest.int "count" 9 (D.count client));
    case "init rejects empty file" (fun () ->
        Alcotest.check_raises "empty"
          (Invalid_argument "Dynamic.init: empty payload list") (fun () ->
            ignore (fresh "empty" 0)));
    case "reads verify against the client root" (fun () ->
        let client, server = fresh "reads" 7 in
        for i = 0 to 6 do
          match D.read server i with
          | None -> Alcotest.fail "missing"
          | Some rp ->
            check Alcotest.bool "ok" true (D.verify_read client ~index:i rp)
        done;
        check Alcotest.bool "oob read" true (D.read server 7 = None));
    case "update bumps version and moves both roots" (fun () ->
        let client, server = fresh "update" 8 in
        let old_root = D.root client in
        check Alcotest.bool "accepted" true
          (accepted (D.update client server ~index:5 "v1!"));
        check Alcotest.bool "root changed" false (String.equal old_root (D.root client));
        check Alcotest.string "in sync" (D.root client) (D.server_root server);
        match D.read server 5 with
        | Some rp ->
          check Alcotest.bool "payload" true (rp.D.content = D.Data "v1!");
          check Alcotest.int "version" 1 rp.D.version;
          check Alcotest.bool "verifies" true (D.verify_read client ~index:5 rp)
        | None -> Alcotest.fail "missing");
    case "stale read proof fails after update (replay protection)" (fun () ->
        let client, server = fresh "stale" 6 in
        let stale = Option.get (D.read server 2) in
        assert (accepted (D.update client server ~index:2 "fresh"));
        check Alcotest.bool "stale rejected" false
          (D.verify_read client ~index:2 stale));
    case "append extends the file verifiably" (fun () ->
        let client, server = fresh "append" 5 in
        check Alcotest.bool "accepted" true
          (accepted (D.append client server "extra-1"));
        check Alcotest.bool "accepted" true
          (accepted (D.append client server "extra-2"));
        check Alcotest.int "count" 7 (D.count client);
        check Alcotest.string "in sync" (D.root client) (D.server_root server);
        match D.read server 6 with
        | Some rp ->
          check Alcotest.bool "payload" true (rp.D.content = D.Data "extra-2");
          check Alcotest.bool "verifies" true (D.verify_read client ~index:6 rp)
        | None -> Alcotest.fail "missing");
    case "delete tombstones a block" (fun () ->
        let client, server = fresh "delete" 5 in
        check Alcotest.bool "accepted" true
          (accepted (D.delete client server ~index:1));
        let rp = Option.get (D.read server 1) in
        check Alcotest.bool "tombstoned" true (D.is_deleted rp);
        check Alcotest.bool "still authenticated" true
          (D.verify_read client ~index:1 rp));
    case "tombstone sentinel payload is plain data (regression)" (fun () ->
        (* The previous framing encoded deletion as the reserved
           payload "\x00__tombstone__": storing those exact bytes was
           indistinguishable from a delete.  Pin the collision in the
           old format, then show the typed framing separates them. *)
        let sentinel = "\x00__tombstone__" in
        let old_frame ~index ~version ~payload =
          Sc_hash.Encode.canonical
            [ "dleaf"; string_of_int version; string_of_int index; payload ]
        in
        (* Old delete wrote the sentinel as the payload; innocent user
           data with the same bytes framed identically. *)
        let old_delete_leaf = old_frame ~index:4 ~version:1 ~payload:sentinel in
        let old_data_leaf =
          old_frame ~index:4 ~version:1 ~payload:"\x00__tombstone__"
        in
        check Alcotest.string "old framing collided" old_delete_leaf
          old_data_leaf;
        let client, server = fresh "sentinel" 5 in
        check Alcotest.bool "stored" true
          (accepted (D.update client server ~index:4 sentinel));
        let rp = Option.get (D.read server 4) in
        check Alcotest.bool "not a tombstone" false (D.is_deleted rp);
        check Alcotest.bool "round-trips" true (rp.D.content = D.Data sentinel);
        check Alcotest.bool "verifies" true (D.verify_read client ~index:4 rp);
        (* And an actual delete of the same block is a distinct,
           authenticated state. *)
        check Alcotest.bool "deleted" true
          (accepted (D.delete client server ~index:4));
        let rp' = Option.get (D.read server 4) in
        check Alcotest.bool "tombstoned" true (D.is_deleted rp');
        check Alcotest.bool "verifies" true (D.verify_read client ~index:4 rp'));
    case "lying (lazy) server is caught at update time (regression)" (fun () ->
        let client, server = fresh "lazy" 6 in
        D.make_lazy server;
        (match D.update client server ~index:2 "new-bytes" with
        | Error (D.Diverged { expected; server = got }) ->
          check Alcotest.bool "roots differ" false (String.equal expected got);
          check Alcotest.string "client holds the true root" expected
            (D.root client)
        | Ok () | Error _ -> Alcotest.fail "divergence not detected");
        (match D.append client server "tail" with
        | Error (D.Diverged _) -> ()
        | Ok () | Error _ -> Alcotest.fail "append divergence not detected"));
    case "update out of range / bad pre-state are typed errors" (fun () ->
        let client, server = fresh "typed" 4 in
        check Alcotest.bool "not found" true
          (D.update client server ~index:9 "x" = Error D.Not_found);
        D.corrupt_entry server 1;
        check Alcotest.bool "bad proof" true
          (D.update client server ~index:1 "x" = Error D.Bad_proof);
        check Alcotest.int "count unchanged" 4 (D.count client));
    case "batch: k mutations, one root transition" (fun () ->
        let client, server = fresh "batch" 6 in
        let ops =
          [
            D.Update { index = 0; payload = "b0" };
            D.Append { payload = "b6" };
            D.Delete { index = 3 };
            D.Update { index = 6; payload = "b6'" };
          ]
        in
        (match D.batch client server ops with
        | Ok n -> check Alcotest.int "all applied" 4 n
        | Error _ -> Alcotest.fail "batch rejected");
        check Alcotest.string "in sync" (D.root client) (D.server_root server);
        let stmt = D.publish_root client ~bytes_source:(Util.fresh_bs "bsig") in
        let rep =
          D.audit pub ~verifier_key:da_key ~owner:"alice" ~file:"dynfile"
            ~root_statement:stmt server
            ~drbg:(Sc_hash.Drbg.create ~seed:"da-batch") ~samples:7
        in
        check Alcotest.bool "intact" true rep.D.intact);
    case "DA audit passes on an honest dynamic server" (fun () ->
        let client, server = fresh "audit" 12 in
        assert (accepted (D.update client server ~index:3 "updated"));
        assert (accepted (D.append client server "appended"));
        let stmt = D.publish_root client ~bytes_source:(Util.fresh_bs "rootsig") in
        let rep =
          D.audit pub ~verifier_key:da_key ~owner:"alice" ~file:"dynfile"
            ~root_statement:stmt server
            ~drbg:(Sc_hash.Drbg.create ~seed:"da-dyn") ~samples:13
        in
        check Alcotest.bool "intact" true rep.D.intact;
        check Alcotest.int "all sampled" 13 rep.D.sampled);
    case "DA audit catches server-side tampering" (fun () ->
        let client, server = fresh "tamper" 10 in
        let stmt = D.publish_root client ~bytes_source:(Util.fresh_bs "rootsig2") in
        (* The server's state drifts from the published root (it
           accepted an update the statement does not cover): paths no
           longer land on the stated root. *)
        ignore (D.update client server ~index:0 "x");
        let rep =
          D.audit pub ~verifier_key:da_key ~owner:"alice" ~file:"dynfile"
            ~root_statement:stmt server
            ~drbg:(Sc_hash.Drbg.create ~seed:"da-dyn2") ~samples:10
        in
        check Alcotest.bool "caught" false rep.D.intact);
    case "DA audit rejects a forged root statement" (fun () ->
        let client, server = fresh "forge" 6 in
        let stmt, _sig = D.publish_root client ~bytes_source:(Util.fresh_bs "r3") in
        let bogus_sig =
          Sc_ibc.Ibs.sign pub da_key ~bytes_source:(Util.fresh_bs "r4") stmt
        in
        let rep =
          D.audit pub ~verifier_key:da_key ~owner:"alice" ~file:"dynfile"
            ~root_statement:(stmt, bogus_sig) server
            ~drbg:(Sc_hash.Drbg.create ~seed:"da-dyn3") ~samples:3
        in
        check Alcotest.bool "rejected" false rep.D.intact;
        check Alcotest.int "nothing sampled" 0 rep.D.sampled);
    case "audit validates the stated count before allocating (regression)"
      (fun () ->
        (* A signed-but-bogus statement used to size Array.init from
           the stated count directly: count = 2^60 was a one-line DoS
           on the auditor.  Both overclaims now classify as not intact
           without touching the heap. *)
        let client, server = fresh "hugecount" 6 in
        let forged count =
          let msg =
            D.root_statement_msg ~file:"dynfile" ~count ~root:(D.root client)
          in
          msg, Sc_ibc.Ibs.sign pub alice ~bytes_source:(Util.fresh_bs "hc") msg
        in
        let run stmt =
          D.audit pub ~verifier_key:da_key ~owner:"alice" ~file:"dynfile"
            ~root_statement:stmt server
            ~drbg:(Sc_hash.Drbg.create ~seed:"da-huge") ~samples:4
        in
        let beyond_server = run (forged 50) in
        check Alcotest.bool "count > server rejected" false
          beyond_server.D.intact;
        check Alcotest.int "nothing sampled" 0 beyond_server.D.sampled;
        let huge = run (forged (D.audit_count_cap + 1)) in
        check Alcotest.bool "count > cap rejected" false huge.D.intact;
        check Alcotest.int "nothing allocated or sampled" 0 huge.D.sampled);
  ]

(* Digests recorded with the textbook signer, which paired
   V = (r+h)·sk_ID with each verifier's Q ([Dvs.designate]).  The
   bilinearity signer ([Dvs.sign_batch]) must reproduce them bit for bit. *)
let pin_digests params =
  let system =
    Seccloud.System.create ~params ~seed:"pin-system" ~cs_ids:[ "cs-1" ]
      ~da_id:"da" ()
  in
  let pub = Seccloud.System.public system in
  let prm = pub.Sc_ibc.Setup.prm in
  let owner = Seccloud.System.register_user system "owner" in
  let payloads = List.init 8 (fun i -> Block.encode_ints [ i; 3 * i; 7 ]) in
  let sig_parts u cs da =
    [
      Sc_ec.Curve.to_bytes prm.curve u;
      Sc_pairing.Tate.gt_to_bytes prm cs;
      Sc_pairing.Tate.gt_to_bytes prm da;
    ]
  in
  let hex parts = Sc_hash.Sha256.hex_of_digest (Sc_hash.Encode.digest parts) in
  let upload =
    Signer.sign_file pub owner ~bytes_source:(Util.fresh_bs "pin-signer")
      ~bases:(Signer.bases pub owner ~cs_id:"cs-1" ~da_id:"da") ~file:"pinned" payloads
  in
  let signer =
    hex
      (List.concat_map
         (fun (sb : Signer.signed_block) ->
           sig_parts sb.u sb.sigma_cs sb.sigma_da)
         (Array.to_list upload.blocks))
  in
  let client, server =
    Dynamic.init pub owner ~bytes_source:(Util.fresh_bs "pin-dynamic")
      ~cs_id:"cs-1" ~da_id:"da" ~file:"pinned" payloads
  in
  let dynamic =
    hex
      (Dynamic.root client
      :: List.concat_map
           (fun i ->
             match Dynamic.read server i with
             | Some rp -> sig_parts rp.u rp.sigma_cs rp.sigma_da
             | None -> [])
           (List.init (Dynamic.count client) Fun.id))
  in
  signer, dynamic

let pinned_tests =
  let open Util in
  let pinned name params ~signer ~dynamic =
    case (name ^ ": sign_file and Dynamic.init match the textbook digests")
      (fun () ->
        let s, d = pin_digests params in
        check Alcotest.string "Signer.sign_file" signer s;
        check Alcotest.string "Dynamic.init" dynamic d)
  in
  [
    pinned "toy" Sc_pairing.Params.toy
      ~signer:"0592e32f5af26fb0d38daf0710a9046f08a53e779ba6a2b7fd58dec23d2bad3b"
      ~dynamic:"d2622ea8d7bd26fe1fa8136ed38ce3170b356409d7a042c1e54aad29cac7009e";
    pinned "small" Sc_pairing.Params.small
      ~signer:"992fd8a93ed34be83084bf8ac4f6403d70d418437e5af44cd760019d657ac553"
      ~dynamic:"770d3fb67bb2dc0b2ed53215a90c0ac5038bcd7096cf99a83f7d4c6cb0541ce3";
  ]

let suite =
  block_tests @ signer_tests @ server_tests @ dynamic_tests @ pinned_tests
