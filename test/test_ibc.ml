open Sc_ibc
module Curve = Sc_ec.Curve

let prm = Lazy.force Util.toy_params
let bs = Util.fresh_bs "ibc-tests"
let sio = Setup.create prm ~bytes_source:bs
let pub = Setup.public sio
let alice = Setup.extract sio "alice"
let bob = Setup.extract sio "bob"
let cs = Setup.extract sio "cloud-server"
let da = Setup.extract sio "agency"

let unit_tests =
  let open Util in
  [
    case "extracted keys validate against P_pub" (fun () ->
        List.iter
          (fun k -> check Alcotest.bool k.Setup.id true (Setup.valid_key pub k))
          [ alice; bob; cs; da ]);
    case "q_of_id matches extraction and is identity-specific" (fun () ->
        check Alcotest.bool "match" true
          (Curve.equal (Setup.q_of_id pub "alice") alice.Setup.q_id);
        check Alcotest.bool "distinct" false
          (Curve.equal alice.Setup.q_id bob.Setup.q_id));
    case "a foreign secret key fails validation" (fun () ->
        let forged = { alice with Setup.sk = bob.Setup.sk } in
        check Alcotest.bool "invalid" false (Setup.valid_key pub forged));
    case "IBS sign/verify round trip" (fun () ->
        let s = Ibs.sign pub alice ~bytes_source:bs "hello world" in
        check Alcotest.bool "verifies" true
          (Ibs.verify pub ~signer:"alice" ~msg:"hello world" s));
    case "IBS rejects wrong message" (fun () ->
        let s = Ibs.sign pub alice ~bytes_source:bs "hello" in
        check Alcotest.bool "wrong msg" false
          (Ibs.verify pub ~signer:"alice" ~msg:"h3llo" s));
    case "IBS rejects wrong signer" (fun () ->
        let s = Ibs.sign pub alice ~bytes_source:bs "hello" in
        check Alcotest.bool "wrong signer" false
          (Ibs.verify pub ~signer:"bob" ~msg:"hello" s));
    case "IBS signatures are randomized" (fun () ->
        let s1 = Ibs.sign pub alice ~bytes_source:bs "m" in
        let s2 = Ibs.sign pub alice ~bytes_source:bs "m" in
        check Alcotest.bool "distinct U" false (Curve.equal s1.Ibs.u s2.Ibs.u);
        check Alcotest.bool "both verify" true
          (Ibs.verify pub ~signer:"alice" ~msg:"m" s1
          && Ibs.verify pub ~signer:"alice" ~msg:"m" s2));
    case "IBS serialization round trip" (fun () ->
        let s = Ibs.sign pub alice ~bytes_source:bs "serialize me" in
        match Ibs.of_bytes pub (Ibs.to_bytes pub s) with
        | Some s' ->
          check Alcotest.bool "u" true (Curve.equal s.Ibs.u s'.Ibs.u);
          check Alcotest.bool "v" true (Curve.equal s.Ibs.v s'.Ibs.v)
        | None -> Alcotest.fail "decode failed");
    case "IBS of_bytes rejects garbage" (fun () ->
        check Alcotest.bool "garbage" true (Ibs.of_bytes pub "zz" = None);
        check Alcotest.bool "bad length" true (Ibs.of_bytes pub "0099abc" = None));
    case "IBS verify_batch: honest batch, one multi-pairing" (fun () ->
        let entries =
          List.concat_map
            (fun (key, id) ->
              List.init 3 (fun i ->
                  let m = Printf.sprintf "%s-batch-%d" id i in
                  id, m, Ibs.sign pub key ~bytes_source:bs m))
            [ alice, "alice"; bob, "bob" ]
        in
        Sc_pairing.Tate.reset_pairing_count ();
        check Alcotest.bool "batch verifies" true (Ibs.verify_batch pub entries);
        check Alcotest.int "one multi-pairing" 1
          (Sc_pairing.Tate.pairings_performed ());
        check Alcotest.bool "empty batch" true (Ibs.verify_batch pub []));
    case "IBS verify_batch rejects a single bad signature" (fun () ->
        let good =
          List.init 3 (fun i ->
              let m = Printf.sprintf "vb-%d" i in
              "alice", m, Ibs.sign pub alice ~bytes_source:bs m)
        in
        let bad = "bob", "claimed", Ibs.sign pub alice ~bytes_source:bs "other" in
        check Alcotest.bool "tainted batch" false
          (Ibs.verify_batch pub (good @ [ bad ])));
    case "DVS designated verification (eq. 5/7)" (fun () ->
        let raw = Ibs.sign pub alice ~bytes_source:bs "designated" in
        let d = Dvs.designate pub raw ~verifier:"cloud-server" in
        check Alcotest.bool "CS verifies" true
          (Dvs.verify pub ~verifier_key:cs ~signer:"alice" ~msg:"designated" d));
    case "DVS rejected by non-designated verifier" (fun () ->
        let raw = Ibs.sign pub alice ~bytes_source:bs "designated" in
        let d = Dvs.designate pub raw ~verifier:"cloud-server" in
        check Alcotest.bool "DA cannot verify CS-designated" false
          (Dvs.verify pub ~verifier_key:da ~signer:"alice" ~msg:"designated" d));
    case "DVS detects message tampering" (fun () ->
        let raw = Ibs.sign pub alice ~bytes_source:bs "original" in
        let d = Dvs.designate pub raw ~verifier:"agency" in
        check Alcotest.bool "tampered" false
          (Dvs.verify pub ~verifier_key:da ~signer:"alice" ~msg:"tampered" d));
    case "DVS simulation: verifier can forge transcripts (privacy)" (fun () ->
        (* The designated verifier simulates a signature alice never
           produced; it passes its own verification, which is exactly
           why a transcript convinces no third party (§VII-B). *)
        let fake =
          Dvs.simulate pub ~verifier_key:da ~signer:"alice"
            ~msg:"alice never signed this" ~bytes_source:bs
        in
        check Alcotest.bool "accepted" true
          (Dvs.verify pub ~verifier_key:da ~signer:"alice"
             ~msg:"alice never signed this" fake));
    case "batch verify accepts valid batch from multiple signers" (fun () ->
        let entries =
          List.concat_map
            (fun (key, id) ->
              List.init 4 (fun i ->
                  let m = Printf.sprintf "%s-msg-%d" id i in
                  let raw = Ibs.sign pub key ~bytes_source:bs m in
                  {
                    Agg.signer = id;
                    msg = m;
                    dvs = Dvs.designate pub raw ~verifier:"agency";
                  }))
            [ alice, "alice"; bob, "bob" ]
        in
        check Alcotest.bool "batch ok" true
          (Agg.verify_batch pub ~verifier_key:da entries));
    case "batch verify accepts empty batch" (fun () ->
        check Alcotest.bool "empty" true (Agg.verify_batch pub ~verifier_key:da []));
    case "batch verify rejects one bad entry" (fun () ->
        let good =
          List.init 5 (fun i ->
              let m = Printf.sprintf "ok-%d" i in
              let raw = Ibs.sign pub alice ~bytes_source:bs m in
              { Agg.signer = "alice"; msg = m; dvs = Dvs.designate pub raw ~verifier:"agency" })
        in
        let bad =
          match good with
          | e :: _ -> { e with Agg.msg = "altered" }
          | [] -> assert false
        in
        check Alcotest.bool "rejected" false
          (Agg.verify_batch pub ~verifier_key:da (bad :: good)));
    case "batch verification uses one pairing" (fun () ->
        let entries =
          List.init 10 (fun i ->
              let m = Printf.sprintf "count-%d" i in
              let raw = Ibs.sign pub alice ~bytes_source:bs m in
              { Agg.signer = "alice"; msg = m; dvs = Dvs.designate pub raw ~verifier:"agency" })
        in
        Sc_pairing.Tate.reset_pairing_count ();
        assert (Agg.verify_batch pub ~verifier_key:da entries);
        check Alcotest.int "1 pairing for 10 sigs" 1
          (Sc_pairing.Tate.pairings_performed ()));
    case "aggregate size is constant in batch size" (fun () ->
        let make n =
          List.init n (fun i ->
              let m = Printf.sprintf "sz-%d" i in
              let raw = Ibs.sign pub alice ~bytes_source:bs m in
              { Agg.signer = "alice"; msg = m; dvs = Dvs.designate pub raw ~verifier:"agency" })
        in
        check Alcotest.int "same size"
          (Agg.aggregate_size_bytes pub (make 2))
          (Agg.aggregate_size_bytes pub (make 20)));
    case "warrant verify within lifetime" (fun () ->
        let w =
          Warrant.issue pub alice ~bytes_source:bs ~delegatee:"agency" ~now:1000.0
            ~lifetime:100.0 ~scope:"audit"
        in
        check Alcotest.bool "valid now" true (Warrant.verify pub ~now:1050.0 w);
        check Alcotest.bool "expired" false (Warrant.verify pub ~now:1101.0 w);
        check Alcotest.bool "before issue" false (Warrant.verify pub ~now:999.0 w));
    case "warrant tampering detected" (fun () ->
        let w =
          Warrant.issue pub alice ~bytes_source:bs ~delegatee:"agency" ~now:0.0
            ~lifetime:100.0 ~scope:"audit"
        in
        let extended =
          { w with Warrant.warrant = { w.Warrant.warrant with Warrant.expires_at = 1e9 } }
        in
        check Alcotest.bool "extended lifetime rejected" false
          (Warrant.verify pub ~now:50.0 extended);
        let rescoped =
          { w with Warrant.warrant = { w.Warrant.warrant with Warrant.scope = "steal" } }
        in
        check Alcotest.bool "rescoped rejected" false
          (Warrant.verify pub ~now:50.0 rescoped));
  ]

let property_tests =
  let open Util in
  let gen_msg = QCheck2.Gen.(string_size ~gen:printable (int_range 0 60)) in
  [
    qcheck ~count:15 "IBS correct for random messages" gen_msg (fun m ->
        let s = Ibs.sign pub alice ~bytes_source:bs m in
        Ibs.verify pub ~signer:"alice" ~msg:m s);
    qcheck ~count:15 "DVS correct for random messages" gen_msg (fun m ->
        let raw = Ibs.sign pub bob ~bytes_source:bs m in
        let d = Dvs.designate pub raw ~verifier:"agency" in
        Dvs.verify pub ~verifier_key:da ~signer:"bob" ~msg:m d);
    qcheck ~count:10 "batch = conjunction of individual verifies"
      (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 6) gen_msg)
      (fun msgs ->
        let entries =
          List.mapi
            (fun i m ->
              let m = Printf.sprintf "%d:%s" i m in
              let raw = Ibs.sign pub alice ~bytes_source:bs m in
              { Agg.signer = "alice"; msg = m; dvs = Dvs.designate pub raw ~verifier:"agency" })
            msgs
        in
        let individual =
          List.for_all
            (fun e ->
              Dvs.verify pub ~verifier_key:da ~signer:e.Agg.signer ~msg:e.Agg.msg
                e.Agg.dvs)
            entries
        in
        let batch = Agg.verify_batch pub ~verifier_key:da entries in
        individual = batch);
  ]

(* Dvs.sign raises the bases ê(sk_ID, Q_B) to e = r + h instead of
   forming V = e·sk_ID and pairing it: same outputs, checked against
   the textbook [designate (Ibs.sign …)] from the same DRBG seed. *)
let designation_tests =
  let open Util in
  let open QCheck2.Gen in
  let gen_msg = string_size ~gen:printable (int_range 0 60) in
  let gen_id = map (fun s -> "v:" ^ s) (string_size ~gen:printable (int_range 0 12)) in
  let gen_seed = string_size ~gen:char (int_range 1 16) in
  let curve = prm.Sc_pairing.Params.curve in
  let same_dvs u sigma (d : Dvs.t) =
    String.equal (Curve.to_bytes curve u) (Curve.to_bytes curve d.Dvs.u)
    && String.equal
         (Sc_pairing.Tate.gt_to_bytes prm sigma)
         (Sc_pairing.Tate.gt_to_bytes prm d.Dvs.sigma)
  in
  let bases v1 v2 =
    Dvs.base pub alice ~verifier:v1, Dvs.base pub alice ~verifier:v2
  in
  [
    qcheck ~count:12 "Dvs.sign = designate (Ibs.sign …) bit for bit, and verifies"
      (quad gen_msg gen_seed gen_id gen_id) (fun (msg, seed, v1, v2) ->
        let u, s1, s2 =
          Dvs.sign pub alice ~bytes_source:(fresh_bs seed) (bases v1 v2) msg
        in
        let raw = Ibs.sign pub alice ~bytes_source:(fresh_bs seed) msg in
        same_dvs u s1 (Dvs.designate pub raw ~verifier:v1)
        && same_dvs u s2 (Dvs.designate pub raw ~verifier:v2)
        && Dvs.verify pub ~verifier_key:(Setup.extract sio v1) ~signer:"alice"
             ~msg { Dvs.u; sigma = s1 }
        && Dvs.verify pub ~verifier_key:(Setup.extract sio v2) ~signer:"alice"
             ~msg { Dvs.u; sigma = s2 });
    qcheck ~count:6 "Dvs.sign output passes Agg.verify_batch for both verifiers"
      (pair gen_seed (list_size (int_range 1 5) gen_msg)) (fun (seed, msgs) ->
        let bs = fresh_bs seed in
        let b = bases "cloud-server" "agency" in
        let signed =
          List.mapi
            (fun i m ->
              let msg = Printf.sprintf "%d:%s" i m in
              msg, Dvs.sign pub alice ~bytes_source:bs b msg)
            msgs
        in
        let batch pick =
          List.map
            (fun (msg, s) -> { Agg.signer = "alice"; msg; dvs = pick s })
            signed
        in
        Agg.verify_batch pub ~verifier_key:cs
          (batch (fun (u, s, _) -> { Dvs.u; sigma = s }))
        && Agg.verify_batch pub ~verifier_key:da
             (batch (fun (u, _, s) -> { Dvs.u; sigma = s })));
    qcheck ~count:12 "a flipped bit of the exponent r+h is rejected"
      (triple gen_msg gen_seed (int_range 0 1000)) (fun (msg, seed, k) ->
        let u, sigma, _ =
          Dvs.sign pub alice ~bytes_source:(fresh_bs seed)
            (bases "agency" "cloud-server") msg
        in
        (* Replay the signer's one DRBG draw to rebuild e = r + h. *)
        let module Nat = Sc_bignum.Nat in
        let q = prm.Sc_pairing.Params.q in
        let r =
          Sc_pairing.Params.random_scalar prm ~bytes_source:(fresh_bs seed)
        in
        let e = Nat.rem (Nat.add r (Ibs.h2 pub ~u ~msg)) q in
        let k = k mod Nat.bit_length q in
        let bit = Nat.shift_left Nat.one k in
        let flipped =
          if Nat.test_bit e k then Nat.sub e bit else Nat.add e bit
        in
        let base = Sc_pairing.Tate.pairing prm alice.Setup.sk da.Setup.q_id in
        let verify sigma =
          Dvs.verify pub ~verifier_key:da ~signer:"alice" ~msg { Dvs.u; sigma }
        in
        Sc_pairing.Tate.gt_equal sigma (Sc_pairing.Tate.gt_pow prm base e)
        && verify sigma
        && not (verify (Sc_pairing.Tate.gt_pow prm base flipped)));
  ]

let ibe_tests =
  let open Util in
  [
    case "IBE encrypt/decrypt round trip" (fun () ->
        let msg = "confidential ledger entry #42" in
        let ct = Ibe.encrypt pub ~to_identity:"alice" ~bytes_source:bs msg in
        check Alcotest.(option string) "decrypts" (Some msg)
          (Ibe.decrypt pub ~key:alice ct));
    case "IBE wrong identity cannot decrypt" (fun () ->
        let ct = Ibe.encrypt pub ~to_identity:"alice" ~bytes_source:bs "secret" in
        check Alcotest.(option string) "bob rejected" None
          (Ibe.decrypt pub ~key:bob ct));
    case "IBE detects tampered body and tag" (fun () ->
        let ct = Ibe.encrypt pub ~to_identity:"alice" ~bytes_source:bs "secret-12" in
        let flip s i = String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c) s in
        check Alcotest.(option string) "body" None
          (Ibe.decrypt pub ~key:alice { ct with Ibe.body = flip ct.Ibe.body 3 });
        check Alcotest.(option string) "tag" None
          (Ibe.decrypt pub ~key:alice { ct with Ibe.tag = flip ct.Ibe.tag 0 }));
    case "IBE ciphertexts are randomized" (fun () ->
        let c1 = Ibe.encrypt pub ~to_identity:"alice" ~bytes_source:bs "same" in
        let c2 = Ibe.encrypt pub ~to_identity:"alice" ~bytes_source:bs "same" in
        check Alcotest.bool "different bodies" false
          (String.equal c1.Ibe.body c2.Ibe.body));
    case "IBE handles empty and large messages" (fun () ->
        List.iter
          (fun msg ->
            let ct = Ibe.encrypt pub ~to_identity:"bob" ~bytes_source:bs msg in
            check Alcotest.(option string)
              (Printf.sprintf "len %d" (String.length msg))
              (Some msg)
              (Ibe.decrypt pub ~key:bob ct))
          [ ""; String.make 5000 'z' ]);
    case "IBE ciphertext serialization round trip" (fun () ->
        let ct = Ibe.encrypt pub ~to_identity:"alice" ~bytes_source:bs "wire me" in
        match Ibe.ciphertext_of_bytes pub (Ibe.ciphertext_to_bytes pub ct) with
        | Some ct' ->
          check Alcotest.(option string) "still decrypts" (Some "wire me")
            (Ibe.decrypt pub ~key:alice ct')
        | None -> Alcotest.fail "decode failed");
    case "IBE of_bytes rejects garbage" (fun () ->
        check Alcotest.bool "garbage" true (Ibe.ciphertext_of_bytes pub "xx" = None);
        check Alcotest.bool "bad length" true
          (Ibe.ciphertext_of_bytes pub "0000junk" = None));
  ]

let suite = unit_tests @ property_tests @ designation_tests @ ibe_tests
