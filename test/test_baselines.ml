(* The comparison schemes: RSA-FDH, ECDSA, BLS/BGLS, and the
   Wang-style BLS storage auditor. *)

let prm = Lazy.force Util.toy_params
let bs = Util.fresh_bs "baseline-tests"

(* The first draw from [bs]: every module-level key below is drawn in
   this order. *)
let rsa_key = Sc_rsa.Rsa.generate ~bytes_source:bs ~bits:512

let rsa_tests =
  let open Util in
  let key = rsa_key in
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
        (* (m^d)^e = m mod n: the key pair generate returns *)
        let { Sc_rsa.Rsa.pub = { n; e }; d } = key in
        let pow = Sc_bignum.Montgomery.pow (Sc_bignum.Montgomery.create n) in
        let m = Sc_bignum.Nat.of_int 123456789 in
        check Alcotest.bool "round trip" true
          (Sc_bignum.Nat.equal m (pow (pow m d) e)));
    case "rsa fdh is stable and modulus-bounded" (fun () ->
        (* signing is deterministic iff the FDH is, and verify compares
           s^e mod n < n with the FDH, so it accepts only if the FDH is
           below the modulus *)
        let s1 = Sc_rsa.Rsa.sign key "x" in
        let s2 = Sc_rsa.Rsa.sign key "x" in
        check Alcotest.bool "stable" true (Sc_bignum.Nat.equal s1 s2);
        check Alcotest.bool "bounded" true
          (Sc_rsa.Rsa.verify key.Sc_rsa.Rsa.pub "x" s1));
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
        (* n+1 Miller-loop terms on one chain, one final exponentiation *)
        let entries = List.init 5 (fun i -> kp, Printf.sprintf "pc-%d" i) in
        let sigma =
          Sc_bls.Bls.aggregate prm
            (List.map (fun (k, m) -> Sc_bls.Bls.sign prm k m) entries)
        in
        let v = Sc_telemetry.Telemetry.counter_value in
        let p0 = v "pairing.count" and t0 = v "pairing.multi_terms" in
        assert
          (Sc_bls.Bls.verify_aggregate prm
             (List.map (fun (k, m) -> k.Sc_bls.Bls.pk, m) entries)
             sigma);
        check Alcotest.int "1 final exponentiation" 1 (v "pairing.count" - p0);
        check Alcotest.int "n+1 terms" 6 (v "pairing.multi_terms" - t0));
  ]

let pdp_tests =
  let open Util in
  let wang = Sc_pdp.Bls_auditor.generate_keys prm ~bytes_source:bs in
  let blocks = List.init 16 (Printf.sprintf "block-content-%d") in
  let wfile = Sc_pdp.Bls_auditor.tag_file prm wang ~name:"f" blocks in
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
  ]

(* Known answers for the exact integer arithmetic under the baselines
   and the presets: Miller–Rabin (through the presets' p and q), the
   mod-q steps of ECDSA and of the Wang auditor's μ, and RSA's
   private exponent.  Each input comes from a DRBG of its own, so the
   values do not depend on the order the other cases run in. *)
let known_answer_tests =
  let open Util in
  let check_hex what expected v = check Alcotest.string what expected (Sc_bignum.Nat.to_hex v) in
  [
    case "presets, ecdsa, wang mu and rsa d match their known answers"
      (fun () ->
        List.iter
          (fun (name, prm, p, q) ->
            let prm = Lazy.force prm in
            check_hex (name ^ " p") p prm.Sc_pairing.Params.p;
            check_hex (name ^ " q") q prm.Sc_pairing.Params.q)
          [
            "toy", Sc_pairing.Params.toy, "5d5260f8dd5dc5ce5f", "f8dbad424e4f64d1";
            "small", Sc_pairing.Params.small, "62e33520b4013078665d7391b2d55b",
            "8128c2c772f1e14470cda69ef407";
          ];
        let bs = fresh_bs "baseline-known-answers" in
        let kp = Sc_ecdsa.Ecdsa.generate prm ~bytes_source:bs in
        let { Sc_ecdsa.Ecdsa.r; s } = Sc_ecdsa.Ecdsa.sign prm kp ~bytes_source:bs "pinned" in
        check_hex "ecdsa r" "f6aedbbd33295102" r;
        check_hex "ecdsa s" "b7d059dfe6a856cc" s;
        let wang = Sc_pdp.Bls_auditor.generate_keys prm ~bytes_source:bs in
        let file =
          Sc_pdp.Bls_auditor.tag_file prm wang ~name:"pinned"
            (List.init 8 (Printf.sprintf "pinned-block-%d"))
        in
        let chal =
          Sc_pdp.Bls_auditor.make_challenge prm ~bytes_source:bs ~n_blocks:8 ~samples:5
        in
        let proof = Sc_pdp.Bls_auditor.prove prm file chal in
        check_hex "wang mu" "5ce0daeff6e2194d" proof.Sc_pdp.Bls_auditor.mu;
        (* the points the baselines sum by MSM and comb, as the affine
           group law summed them *)
        let check_point what expected p =
          check Alcotest.string what expected
            (Sc_hash.Sha256.hex_of_digest (Sc_ec.Curve.to_bytes prm.Sc_pairing.Params.curve p))
        in
        check_point "wang tag" "04473d05a58ed287c4ec1395ff18e179152952" file.Sc_pdp.Bls_auditor.tags.(0);
        check_point "wang sigma" "04244d725c51e083f27d2101fee6ced3d787e7" proof.Sc_pdp.Bls_auditor.sigma;
        let bls = Sc_bls.Bls.generate prm ~bytes_source:bs in
        check_point "bgls aggregate" "04050af71d979301ae8010e2fbeee80539fde4"
          (Sc_bls.Bls.aggregate prm
             (List.init 3 (fun i -> Sc_bls.Bls.sign prm bls (Printf.sprintf "pinned-%d" i))));
        check_hex "rsa d"
          ("1243fbaa71bf8c95f987b0be695831d94ffbddf71a60c32b6b5d4462452e7c24"
         ^ "65a5a43cd6388a96fe86d1b0cef4da4ad2ebf36dc591b61bf79c7893185b1315")
          rsa_key.Sc_rsa.Rsa.d);
  ]

(* Each baseline's work per call, caches warm: final exponentiations
   ([pairing.count]), Miller-loop terms ([pairing.single] +
   [pairing.multi_terms]), [curve.inv] and [curve.mul.wnaf].  A hash to
   G1 pays a ladder and an inversion, a subgroup check a ladder, an MSM
   three inversions. *)
let counted_work_tests =
  let open Util in
  [
    case "baselines' counted work is pinned at toy" (fun () ->
        let module A = Sc_pdp.Bls_auditor in
        let module Bls = Sc_bls.Bls in
        let v = Sc_telemetry.Telemetry.counter_value in
        let work () =
          [ v "pairing.count"; v "pairing.single" + v "pairing.multi_terms"; v "curve.inv"; v "curve.mul.wnaf" ]
        in
        let pinned what expected f =
          ignore (f ());
          let before = work () in
          ignore (f ());
          check Alcotest.(list int) what expected (List.map2 ( - ) (work ()) before)
        in
        let bs = fresh_bs "baseline-counts" in
        let ecdsa = Sc_ecdsa.Ecdsa.generate prm ~bytes_source:bs in
        let ecdsa_sig = Sc_ecdsa.Ecdsa.sign prm ecdsa ~bytes_source:bs "m" in
        pinned "Ecdsa.verify" [ 0; 0; 2; 1 ] (fun () ->
            assert (Sc_ecdsa.Ecdsa.verify prm ecdsa.Sc_ecdsa.Ecdsa.q "m" ecdsa_sig));
        let kp = Bls.generate prm ~bytes_source:bs in
        let msgs = List.init 8 (Printf.sprintf "agg-%d") in
        let sigs = List.map (Bls.sign prm kp) msgs in
        pinned "Bls.verify" [ 1; 2; 1; 2 ] (fun () ->
            assert (Bls.verify prm kp.Bls.pk "agg-0" (List.hd sigs)));
        pinned "Bls.aggregate (n = 8)" [ 0; 0; 3; 0 ] (fun () -> Bls.aggregate prm sigs);
        let entries = List.map (fun m -> kp.Bls.pk, m) msgs and agg = Bls.aggregate prm sigs in
        pinned "Bls.verify_aggregate (n = 8)" [ 1; 9; 8; 9 ] (fun () ->
            assert (Bls.verify_aggregate prm entries agg));
        let wang = A.generate_keys prm ~bytes_source:bs in
        let blocks = List.init 16 (Printf.sprintf "b-%d") in
        pinned "tag_file (16 blocks)" [ 0; 0; 33; 32 ] (fun () -> A.tag_file prm wang ~name:"f" blocks);
        let file = A.tag_file prm wang ~name:"f" blocks in
        let chal = A.make_challenge prm ~bytes_source:bs ~n_blocks:16 ~samples:8 in
        pinned "Bls_auditor.prove (t = 8)" [ 0; 0; 3; 0 ] (fun () -> A.prove prm file chal);
        let proof = A.prove prm file chal in
        pinned "Bls_auditor.verify (t = 8)" [ 1; 2; 11; 9 ] (fun () ->
            assert (A.verify prm wang ~name:"f" chal proof)));
  ]

let suite =
  rsa_tests @ ecdsa_tests @ bls_tests @ pdp_tests @ known_answer_tests @ counted_work_tests
