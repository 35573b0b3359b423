(* The comparison schemes: RSA-FDH, ECDSA, BLS/BGLS, and the two
   storage-auditing baselines (Wang-style BLS auditor, Ateniese-style
   RSA PDP). *)

let prm = Lazy.force Util.toy_params
let bs = Util.fresh_bs "baseline-tests"

let rsa_tests =
  let open Util in
  let key = Sc_rsa.Rsa.generate ~bytes_source:bs ~bits:512 in
  [
    case "rsa sign/verify" (fun () ->
        let s = Sc_rsa.Rsa.sign key "attack at dawn" in
        check Alcotest.bool "ok" true
          (Sc_rsa.Rsa.verify key.Sc_rsa.Rsa.pub "attack at dawn" s));
    case "rsa rejects wrong message" (fun () ->
        let s = Sc_rsa.Rsa.sign key "attack at dawn" in
        check Alcotest.bool "bad" false
          (Sc_rsa.Rsa.verify key.Sc_rsa.Rsa.pub "attack at dusk" s));
    case "rsa rejects mauled signature" (fun () ->
        let s = Sc_rsa.Rsa.sign key "msg" in
        let mauled = Sc_bignum.Nat.add s Sc_bignum.Nat.one in
        check Alcotest.bool "mauled" false
          (Sc_rsa.Rsa.verify key.Sc_rsa.Rsa.pub "msg" mauled));
    case "rsa raw sign/verify inverse" (fun () ->
        let m = Sc_bignum.Nat.of_int 123456789 in
        check Alcotest.bool "round trip" true
          (Sc_bignum.Nat.equal m
             (Sc_rsa.Rsa.raw_verify key.Sc_rsa.Rsa.pub (Sc_rsa.Rsa.raw_sign key m))));
    case "rsa fdh is stable and modulus-bounded" (fun () ->
        let h1 = Sc_rsa.Rsa.fdh key.Sc_rsa.Rsa.pub "x" in
        let h2 = Sc_rsa.Rsa.fdh key.Sc_rsa.Rsa.pub "x" in
        check Alcotest.bool "stable" true (Sc_bignum.Nat.equal h1 h2);
        check Alcotest.bool "bounded" true
          (Sc_bignum.Nat.compare h1 key.Sc_rsa.Rsa.pub.Sc_rsa.Rsa.n < 0));
  ]

let ecdsa_tests =
  let open Util in
  let kp = Sc_ecdsa.Ecdsa.generate prm ~bytes_source:bs in
  [
    case "ecdsa sign/verify" (fun () ->
        let s = Sc_ecdsa.Ecdsa.sign prm kp ~bytes_source:bs "hello" in
        check Alcotest.bool "ok" true
          (Sc_ecdsa.Ecdsa.verify prm kp.Sc_ecdsa.Ecdsa.q "hello" s));
    case "ecdsa rejects wrong message" (fun () ->
        let s = Sc_ecdsa.Ecdsa.sign prm kp ~bytes_source:bs "hello" in
        check Alcotest.bool "bad" false
          (Sc_ecdsa.Ecdsa.verify prm kp.Sc_ecdsa.Ecdsa.q "goodbye" s));
    case "ecdsa rejects wrong key" (fun () ->
        let other = Sc_ecdsa.Ecdsa.generate prm ~bytes_source:bs in
        let s = Sc_ecdsa.Ecdsa.sign prm kp ~bytes_source:bs "hello" in
        check Alcotest.bool "bad key" false
          (Sc_ecdsa.Ecdsa.verify prm other.Sc_ecdsa.Ecdsa.q "hello" s));
    case "ecdsa rejects out-of-range components" (fun () ->
        let s = Sc_ecdsa.Ecdsa.sign prm kp ~bytes_source:bs "hello" in
        check Alcotest.bool "r=0" false
          (Sc_ecdsa.Ecdsa.verify prm kp.Sc_ecdsa.Ecdsa.q "hello"
             { s with Sc_ecdsa.Ecdsa.r = Sc_bignum.Nat.zero });
        check Alcotest.bool "s=q" false
          (Sc_ecdsa.Ecdsa.verify prm kp.Sc_ecdsa.Ecdsa.q "hello"
             { s with Sc_ecdsa.Ecdsa.s = prm.Sc_pairing.Params.q }));
  ]

let bls_tests =
  let open Util in
  let kp = Sc_bls.Bls.generate prm ~bytes_source:bs in
  let kp2 = Sc_bls.Bls.generate prm ~bytes_source:bs in
  [
    case "bls sign/verify" (fun () ->
        let s = Sc_bls.Bls.sign prm kp "block-1" in
        check Alcotest.bool "ok" true
          (Sc_bls.Bls.verify prm kp.Sc_bls.Bls.pk "block-1" s));
    case "bls deterministic signatures" (fun () ->
        check Alcotest.bool "same" true
          (Util.point_equal (Sc_bls.Bls.sign prm kp "m") (Sc_bls.Bls.sign prm kp "m")));
    case "bls rejects wrong message/key" (fun () ->
        let s = Sc_bls.Bls.sign prm kp "m" in
        check Alcotest.bool "wrong msg" false
          (Sc_bls.Bls.verify prm kp.Sc_bls.Bls.pk "n" s);
        check Alcotest.bool "wrong key" false
          (Sc_bls.Bls.verify prm kp2.Sc_bls.Bls.pk "m" s));
    case "bgls aggregate verifies across keys" (fun () ->
        let entries =
          [ kp, "msg-a"; kp2, "msg-b"; kp, "msg-c" ]
        in
        let sigma =
          Sc_bls.Bls.aggregate prm
            (List.map (fun (k, m) -> Sc_bls.Bls.sign prm k m) entries)
        in
        check Alcotest.bool "agg ok" true
          (Sc_bls.Bls.verify_aggregate prm
             (List.map (fun (k, m) -> k.Sc_bls.Bls.pk, m) entries)
             sigma));
    case "bgls rejects duplicate messages" (fun () ->
        let sigma =
          Sc_bls.Bls.aggregate prm
            [ Sc_bls.Bls.sign prm kp "dup"; Sc_bls.Bls.sign prm kp2 "dup" ]
        in
        check Alcotest.bool "duplicates" false
          (Sc_bls.Bls.verify_aggregate prm
             [ kp.Sc_bls.Bls.pk, "dup"; kp2.Sc_bls.Bls.pk, "dup" ]
             sigma));
    case "bgls rejects a swapped signature" (fun () ->
        let sigma = Sc_bls.Bls.aggregate prm [ Sc_bls.Bls.sign prm kp "a" ] in
        check Alcotest.bool "bad agg" false
          (Sc_bls.Bls.verify_aggregate prm [ kp.Sc_bls.Bls.pk, "b" ] sigma));
    case "bgls pairing count is n+1" (fun () ->
        let entries = List.init 5 (fun i -> kp, Printf.sprintf "pc-%d" i) in
        let sigma =
          Sc_bls.Bls.aggregate prm
            (List.map (fun (k, m) -> Sc_bls.Bls.sign prm k m) entries)
        in
        Sc_pairing.Tate.reset_pairing_count ();
        assert
          (Sc_bls.Bls.verify_aggregate prm
             (List.map (fun (k, m) -> k.Sc_bls.Bls.pk, m) entries)
             sigma);
        check Alcotest.int "n+1" 6 (Sc_pairing.Tate.pairings_performed ()));
  ]

let pdp_tests =
  let open Util in
  let wang = Sc_pdp.Bls_auditor.generate_keys prm ~bytes_source:bs in
  let blocks = List.init 16 (Printf.sprintf "block-content-%d") in
  let wfile = Sc_pdp.Bls_auditor.tag_file prm wang ~name:"f" blocks in
  let rsa_keys = Sc_pdp.Rsa_pdp.generate_keys ~bytes_source:bs ~bits:512 in
  let rfile = Sc_pdp.Rsa_pdp.tag_file rsa_keys ~name:"f" blocks in
  [
    case "wang auditor accepts honest proof" (fun () ->
        let chal =
          Sc_pdp.Bls_auditor.make_challenge prm ~bytes_source:bs ~n_blocks:16
            ~samples:6
        in
        let proof = Sc_pdp.Bls_auditor.prove prm wfile chal in
        check Alcotest.bool "ok" true
          (Sc_pdp.Bls_auditor.verify prm wang ~name:"f" chal proof));
    case "wang auditor rejects corrupted block" (fun () ->
        let chal =
          Sc_pdp.Bls_auditor.make_challenge prm ~bytes_source:bs ~n_blocks:16
            ~samples:16
        in
        let corrupted =
          {
            wfile with
            Sc_pdp.Bls_auditor.blocks =
              Array.mapi
                (fun i b ->
                  if i = 3 then Sc_pdp.Bls_auditor.block_to_scalar prm "evil"
                  else b)
                wfile.Sc_pdp.Bls_auditor.blocks;
          }
        in
        let proof = Sc_pdp.Bls_auditor.prove prm corrupted chal in
        check Alcotest.bool "caught" false
          (Sc_pdp.Bls_auditor.verify prm wang ~name:"f" chal proof));
    case "wang auditor rejects wrong file name" (fun () ->
        let chal =
          Sc_pdp.Bls_auditor.make_challenge prm ~bytes_source:bs ~n_blocks:16
            ~samples:4
        in
        let proof = Sc_pdp.Bls_auditor.prove prm wfile chal in
        check Alcotest.bool "wrong name" false
          (Sc_pdp.Bls_auditor.verify prm wang ~name:"g" chal proof));
    case "wang challenge rejects oversampling" (fun () ->
        Alcotest.check_raises "too many"
          (Invalid_argument "Bls_auditor.make_challenge: too many samples")
          (fun () ->
            ignore
              (Sc_pdp.Bls_auditor.make_challenge prm ~bytes_source:bs
                 ~n_blocks:4 ~samples:5)));
    case "rsa pdp accepts honest proof" (fun () ->
        let chal =
          Sc_pdp.Rsa_pdp.make_challenge ~bytes_source:bs ~n_blocks:16 ~samples:6
        in
        let proof = Sc_pdp.Rsa_pdp.prove rsa_keys rfile chal in
        check Alcotest.bool "ok" true
          (Sc_pdp.Rsa_pdp.verify rsa_keys ~name:"f" chal proof));
    case "rsa pdp rejects corrupted block" (fun () ->
        let chal =
          Sc_pdp.Rsa_pdp.make_challenge ~bytes_source:bs ~n_blocks:16 ~samples:16
        in
        let corrupted =
          {
            rfile with
            Sc_pdp.Rsa_pdp.blocks =
              Array.mapi
                (fun i b ->
                  if i = 7 then Sc_pdp.Rsa_pdp.block_to_int "tampered" else b)
                rfile.Sc_pdp.Rsa_pdp.blocks;
          }
        in
        let proof = Sc_pdp.Rsa_pdp.prove rsa_keys corrupted chal in
        check Alcotest.bool "caught" false
          (Sc_pdp.Rsa_pdp.verify rsa_keys ~name:"f" chal proof));
    case "rsa pdp rejects mauled proof" (fun () ->
        let chal =
          Sc_pdp.Rsa_pdp.make_challenge ~bytes_source:bs ~n_blocks:16 ~samples:4
        in
        let proof = Sc_pdp.Rsa_pdp.prove rsa_keys rfile chal in
        let mauled =
          { proof with Sc_pdp.Rsa_pdp.mu = Sc_bignum.Nat.add proof.Sc_pdp.Rsa_pdp.mu Sc_bignum.Nat.one }
        in
        check Alcotest.bool "mauled" false
          (Sc_pdp.Rsa_pdp.verify rsa_keys ~name:"f" chal mauled));
  ]

let suite = rsa_tests @ ecdsa_tests @ bls_tests @ pdp_tests
