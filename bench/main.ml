(* Bechamel micro-benchmarks: one group per paper artifact (Table I,
   Table II, Figure 4, Figure 5, Theorem 3) plus substrate groups.
   The full row-by-row tables are produced by `dune exec bin/repro.exe`;
   this executable measures the primitive and protocol operations those
   tables are built from. *)

open Bechamel
open Toolkit

module Params = Sc_pairing.Params
module Tate = Sc_pairing.Tate
module Curve = Sc_ec.Curve
module Nat = Sc_bignum.Nat

let drbg = Sc_hash.Drbg.create ~seed:"bench"
let bs = Sc_hash.Drbg.bytes_source drbg

(* Parameters: `toy` keeps the protocol-level benches fast; Table I
   primitives also run on `small` for a more realistic field size. *)
let prm = Lazy.force Params.toy
let prm_small = Lazy.force Params.small

let system =
  Seccloud.System.create ~params:Params.toy ~seed:"bench-sys"
    ~cs_ids:[ "cs" ] ~da_id:"da" ()

let pub = Seccloud.System.public system
let da_key = Seccloud.System.da_key system
let alice = Seccloud.System.register_user system "alice"

(* --- Table I primitives ------------------------------------------- *)

let table1_tests =
  let scalar = Params.random_scalar prm ~bytes_source:bs in
  let scalar_small = Params.random_scalar prm_small ~bytes_source:bs in
  let g = prm.Params.g and gs = prm_small.Params.g in
  let msg = String.make 1024 'm' in
  [
    Test.make ~name:"table1/point_mul(toy)"
      (Staged.stage (fun () -> Curve.mul prm.Params.curve scalar g));
    Test.make ~name:"table1/point_mul(small)"
      (Staged.stage (fun () -> Curve.mul prm_small.Params.curve scalar_small gs));
    Test.make ~name:"table1/pairing(toy)"
      (Staged.stage (fun () -> Tate.pairing prm g g));
    Test.make ~name:"table1/pairing(small)"
      (Staged.stage (fun () -> Tate.pairing prm_small gs gs));
    Test.make ~name:"table1/pairing_affine(toy)"
      (Staged.stage (fun () -> Tate.pairing_affine prm g g));
    Test.make ~name:"table1/multi_pairing_8(small)"
      (Staged.stage
         (let pairs8 =
            List.init 8 (fun _ ->
                let a = Params.random_scalar prm_small ~bytes_source:bs in
                let b = Params.random_scalar prm_small ~bytes_source:bs in
                ( Curve.mul prm_small.Params.curve a gs,
                  Curve.mul prm_small.Params.curve b gs ))
          in
          fun () -> Tate.multi_pairing prm_small pairs8));
    Test.make ~name:"table1/hash_to_g1(toy)"
      (Staged.stage (fun () -> Sc_pairing.Hash_g1.hash_to_point prm "bench"));
    Test.make ~name:"table1/sha256_1k"
      (Staged.stage (fun () -> Sc_hash.Sha256.digest msg));
  ]

(* --- Table II signature schemes ------------------------------------ *)

let table2_tests =
  let rsa = Sc_rsa.Rsa.generate ~bytes_source:bs ~bits:1024 in
  let rsa_sig = Sc_rsa.Rsa.sign rsa "msg" in
  let ec_kp = Sc_ecdsa.Ecdsa.generate prm ~bytes_source:bs in
  let ec_sig = Sc_ecdsa.Ecdsa.sign prm ec_kp ~bytes_source:bs "msg" in
  let bls_kp = Sc_bls.Bls.generate prm ~bytes_source:bs in
  let bls_sig = Sc_bls.Bls.sign prm bls_kp "msg" in
  let raw = Sc_ibc.Ibs.sign pub alice ~bytes_source:bs "msg" in
  let dvs = Sc_ibc.Dvs.designate pub raw ~verifier:"da" in
  let batch n =
    List.init n (fun i ->
        let m = Printf.sprintf "batch-%d" i in
        let raw = Sc_ibc.Ibs.sign pub alice ~bytes_source:bs m in
        {
          Sc_ibc.Agg.signer = "alice";
          msg = m;
          dvs = Sc_ibc.Dvs.designate pub raw ~verifier:"da";
        })
  in
  let batch10 = batch 10 and batch50 = batch 50 in
  [
    Test.make ~name:"table2/rsa_verify"
      (Staged.stage (fun () -> Sc_rsa.Rsa.verify rsa.Sc_rsa.Rsa.pub "msg" rsa_sig));
    Test.make ~name:"table2/ecdsa_verify"
      (Staged.stage (fun () ->
           Sc_ecdsa.Ecdsa.verify prm ec_kp.Sc_ecdsa.Ecdsa.q "msg" ec_sig));
    Test.make ~name:"table2/bls_verify"
      (Staged.stage (fun () ->
           Sc_bls.Bls.verify prm bls_kp.Sc_bls.Bls.pk "msg" bls_sig));
    Test.make ~name:"table2/ibs_sign"
      (Staged.stage (fun () -> Sc_ibc.Ibs.sign pub alice ~bytes_source:bs "msg"));
    Test.make ~name:"table2/ibs_verify"
      (Staged.stage (fun () ->
           Sc_ibc.Ibs.verify pub ~signer:"alice" ~msg:"msg" raw));
    Test.make ~name:"table2/ibs_verify_batch_10"
      (Staged.stage
         (let entries =
            List.init 10 (fun i ->
                let m = Printf.sprintf "vb-%d" i in
                "alice", m, Sc_ibc.Ibs.sign pub alice ~bytes_source:bs m)
          in
          fun () -> Sc_ibc.Ibs.verify_batch pub entries));
    Test.make ~name:"table2/dvs_verify"
      (Staged.stage (fun () ->
           Sc_ibc.Dvs.verify pub ~verifier_key:da_key
             ~q_id:(Sc_ibc.Setup.q_of_id pub "alice") ~msg:"msg" dvs));
    Test.make ~name:"table2/batch_verify_10"
      (Staged.stage (fun () ->
           Sc_ibc.Agg.verify_batch pub ~verifier_key:da_key batch10));
    Test.make ~name:"table2/batch_verify_50"
      (Staged.stage (fun () ->
           Sc_ibc.Agg.verify_batch pub ~verifier_key:da_key batch50));
  ]

(* --- Figure 4 sampling math ---------------------------------------- *)

let fig4_tests =
  [
    Test.make ~name:"fig4/required_samples"
      (Staged.stage (fun () ->
           Sc_audit.Sampling.required_samples ~csc:0.5 ~ssc:0.5 ~range:2.0
             ~sig_forge:0.0 ~eps:1e-4 ()));
    Test.make ~name:"fig4/grid_10x10"
      (Staged.stage (fun () ->
           Sc_audit.Sampling.figure4_grid ~eps:1e-4 ~range:2.0 ()));
  ]

(* --- Figure 5 audit protocols --------------------------------------- *)

let fig5_tests =
  let payloads =
    List.init 32 (fun i ->
        Sc_storage.Block.encode_ints (List.init 8 (fun j -> i + j)))
  in
  let cloud = Seccloud.Cloud.create system ~id:"cs" () in
  let user = Seccloud.User.create system ~id:"alice" in
  assert (Seccloud.User.store user cloud ~file:"bench" payloads);
  let da = Seccloud.Agency.create system in
  let service_drbg = Sc_hash.Drbg.create ~seed:"bench-service" in
  let service =
    Sc_compute.Task.random_service ~drbg:service_drbg ~n_positions:32
      ~n_tasks:16
  in
  let execution = Seccloud.Cloud.execute cloud ~owner:"alice" ~file:"bench" service in
  let warrant =
    Seccloud.User.delegate_audit user ~now:0.0 ~lifetime:1e12 ~scope:"bench"
  in
  let wang_keys = Sc_pdp.Bls_auditor.generate_keys prm ~bytes_source:bs in
  let wang_file =
    Sc_pdp.Bls_auditor.tag_file prm wang_keys ~name:"wf"
      (List.init 8 (Printf.sprintf "block-%d"))
  in
  let wang_chal =
    Sc_pdp.Bls_auditor.make_challenge prm ~bytes_source:bs ~n_blocks:8
      ~samples:4
  in
  let wang_proof = Sc_pdp.Bls_auditor.prove prm wang_file wang_chal in
  let pdp_keys = Sc_pdp.Rsa_pdp.generate_keys ~bytes_source:bs ~bits:1024 in
  let pdp_file =
    Sc_pdp.Rsa_pdp.tag_file pdp_keys ~name:"pf"
      (List.init 8 (Printf.sprintf "block-%d"))
  in
  let pdp_chal =
    Sc_pdp.Rsa_pdp.make_challenge ~bytes_source:bs ~n_blocks:8 ~samples:4
  in
  let pdp_proof = Sc_pdp.Rsa_pdp.prove pdp_keys pdp_file pdp_chal in
  [
    Test.make ~name:"fig5/storage_audit_8"
      (Staged.stage (fun () ->
           Seccloud.Agency.audit_storage da cloud ~owner:"alice" ~file:"bench"
             ~samples:8));
    Test.make ~name:"fig5/computation_audit_8"
      (Staged.stage (fun () ->
           Seccloud.Agency.audit_computation da cloud ~owner:"alice" ~execution
             ~warrant ~now:1.0 ~samples:8));
    Test.make ~name:"fig5/wang_style_verify"
      (Staged.stage (fun () ->
           Sc_pdp.Bls_auditor.verify prm wang_keys ~name:"wf" wang_chal
             wang_proof));
    Test.make ~name:"fig5/rsa_pdp_verify"
      (Staged.stage (fun () ->
           Sc_pdp.Rsa_pdp.verify pdp_keys ~name:"pf" pdp_chal pdp_proof));
  ]

(* --- Theorem 3 ------------------------------------------------------ *)

let optimal_tests =
  let costs =
    {
      Sc_audit.Optimal.a1 = 1.0;
      a2 = 1.0;
      a3 = 1.0;
      c_trans = 1.0;
      c_comp = 5.0;
      c_cheat = 1e6;
    }
  in
  [
    Test.make ~name:"optimal/closed_form"
      (Staged.stage (fun () -> Sc_audit.Optimal.optimal_t costs ~cheat_prob:0.5));
    Test.make ~name:"optimal/exhaustive"
      (Staged.stage (fun () -> Sc_audit.Optimal.argmin_t costs ~cheat_prob:0.5));
  ]

(* --- Substrates ------------------------------------------------------ *)

let substrate_tests =
  let a = Nat.random ~bytes_source:bs ~bits:512 in
  let b = Nat.random ~bytes_source:bs ~bits:512 in
  let m = Nat.random ~bytes_source:bs ~bits:256 in
  let leaves = List.init 256 (Printf.sprintf "leaf-%d") in
  let tree = Sc_merkle.Dynamic_tree.build leaves in
  let proof = Sc_merkle.Dynamic_tree.proof tree 100 in
  let root = Sc_merkle.Dynamic_tree.root tree in
  let leaf_hash = Sc_merkle.Dynamic_tree.leaf_hash "leaf-100" in
  [
    Test.make ~name:"substrate/nat_mul_512"
      (Staged.stage (fun () -> Nat.mul a b));
    Test.make ~name:"substrate/nat_divmod_1024_512"
      (Staged.stage (fun () -> Nat.divmod (Nat.mul a b) m));
    Test.make ~name:"substrate/merkle_build_256"
      (Staged.stage (fun () -> Sc_merkle.Dynamic_tree.build leaves));
    Test.make ~name:"substrate/merkle_proof_verify"
      (Staged.stage (fun () ->
           Sc_merkle.Dynamic_tree.verify ~root ~leaf_hash proof));
    Test.make ~name:"substrate/hmac_drbg_32B"
      (Staged.stage (fun () -> Sc_hash.Drbg.generate drbg 32));
  ]

(* --- Extensions ------------------------------------------------------ *)

let extension_tests =
  let data = String.concat "," (List.init 100 (Printf.sprintf "cell-%d")) in
  let ibe_sio = Sc_ibc.Setup.create prm ~bytes_source:bs in
  let ibe_pub = Sc_ibc.Setup.public ibe_sio in
  let ibe_key = Sc_ibc.Setup.extract ibe_sio "bench" in
  let ibe_ct = Sc_ibc.Ibe.encrypt ibe_pub ~to_identity:"bench" ~bytes_source:bs data in
  let dyn_client, dyn_server =
    Sc_storage.Dynamic.init pub alice ~bytes_source:bs ~cs_id:"cs" ~da_id:"da"
      ~file:"bench-dyn"
      (List.init 64 (Printf.sprintf "entry-%d"))
  in
  let counter = ref 0 in
  [
    Test.make ~name:"ext/ibe_encrypt"
      (Staged.stage (fun () ->
           Sc_ibc.Ibe.encrypt ibe_pub ~to_identity:"bench" ~bytes_source:bs data));
    Test.make ~name:"ext/ibe_decrypt"
      (Staged.stage (fun () -> Sc_ibc.Ibe.decrypt ibe_pub ~key:ibe_key ibe_ct));
    Test.make ~name:"ext/dynamic_update"
      (Staged.stage (fun () ->
           incr counter;
           Sc_storage.Dynamic.update dyn_client dyn_server ~index:(!counter mod 64)
             (Printf.sprintf "v%d" !counter)));
    Test.make ~name:"ext/fixed_base_mul_g"
      (Staged.stage
         (let s = Params.random_scalar prm ~bytes_source:bs in
          fun () -> Params.mul_g prm s));
    Test.make ~name:"ext/jacobi_symbol"
      (Staged.stage
         (let a = Nat.random ~bytes_source:bs ~bits:100 in
          fun () -> Sc_bignum.Modular.jacobi a prm.Params.p));
  ]

let all_tests =
  Test.make_grouped ~name:"seccloud" ~fmt:"%s.%s"
    (table1_tests @ table2_tests @ fig4_tests @ fig5_tests @ optimal_tests
   @ substrate_tests @ extension_tests)

let () =
  let cfg =
    Benchmark.cfg ~limit:200 ~stabilize:false ~quota:(Time.second 0.3) ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] all_tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  Printf.printf "%-44s %16s\n" "benchmark" "time/run";
  List.iter
    (fun (name, r) ->
      match Analyze.OLS.estimates r with
      | Some [ ns ] ->
        let pretty =
          if ns > 1e6 then Printf.sprintf "%10.3f ms" (ns /. 1e6)
          else if ns > 1e3 then Printf.sprintf "%10.3f us" (ns /. 1e3)
          else Printf.sprintf "%10.1f ns" ns
        in
        Printf.printf "%-44s %16s\n" name pretty
      | Some _ | None -> Printf.printf "%-44s %16s\n" name "n/a")
    rows;
  print_newline ();
  print_endline "Full paper tables/figures: dune exec bin/repro.exe -- all";
  (* A tiny smoke assertion so `dune exec bench/main.exe` doubles as a
     sanity check in CI. *)
  assert (
    Sc_audit.Sampling.required_samples ~csc:0.5 ~ssc:0.5 ~range:2.0
      ~sig_forge:0.0 ~eps:1e-4 ()
    = Some 33)
