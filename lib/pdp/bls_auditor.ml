open Sc_bignum
open Sc_ec
module Params = Sc_pairing.Params
module Hash_g1 = Sc_pairing.Hash_g1

type keys = { x : Nat.t; pk : Curve.point; u : Curve.point }

type tagged_file = {
  name : string;
  blocks : Nat.t array;
  tags : Curve.point array;
}

type challenge = (int * Nat.t) list
type proof = { mu : Nat.t; sigma : Curve.point }

let generate_keys (prm : Params.t) ~bytes_source =
  let x = Params.random_scalar prm ~bytes_source in
  let pk = Params.mul_g prm x in
  let u = Hash_g1.hash_to_point prm "wang-auditor-u" in
  { x; pk; u }

let block_to_scalar prm block = Hash_g1.hash_to_scalar prm ("blk:" ^ block)

let index_point prm ~name i =
  Hash_g1.hash_to_point prm (Printf.sprintf "wtag:%s:%d" name i)

(* σ_i = x·(H(name‖i) + m_i·u): every H(name‖i) + m_i·u runs on u's
   cached comb, all normalized with one inversion, then one ladder by
   x each. *)
let tag_file (prm : Params.t) keys ~name raw_blocks =
  let blocks = Array.of_list (List.map (block_to_scalar prm) raw_blocks) in
  let u_comb = Params.precomp_for prm keys.u in
  let bases =
    Curve.add_mul_precomp_batch prm.curve
      (Array.mapi (fun i m -> index_point prm ~name i, u_comb, m) blocks)
  in
  { name; blocks; tags = Array.map (Curve.mul prm.curve keys.x) bases }

let make_challenge (prm : Params.t) ~bytes_source ~n_blocks ~samples =
  if samples > n_blocks then invalid_arg "Bls_auditor.make_challenge: too many samples";
  (* Sample distinct indices by shuffling a prefix (Fisher–Yates on
     DRBG randomness). *)
  let idx = Array.init n_blocks (fun i -> i) in
  for i = 0 to samples - 1 do
    let j = i + (Nat.to_int_exn (Nat.random ~bytes_source ~bits:30) mod (n_blocks - i)) in
    let tmp = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- tmp
  done;
  List.init samples (fun i -> idx.(i), Params.random_scalar prm ~bytes_source)

let prove (prm : Params.t) file chal =
  let mu =
    List.fold_left
      (fun acc (i, nu) -> Nat.add acc (Nat.mul nu file.blocks.(i)))
      Nat.zero chal
  in
  let sigma = Curve.msm prm.curve (List.map (fun (i, nu) -> nu, file.tags.(i)) chal) in
  { mu = Nat.rem mu prm.q; sigma }

(* ê(σ, P) = ê(Σ ν_i·H(name‖i) + μ·u, pk), its right side one MSM. *)
let verify (prm : Params.t) keys ~name chal { mu; sigma } =
  Sc_bls.Bls.holds prm sigma
    [
      Curve.msm prm.curve
        ((mu, keys.u) :: List.map (fun (i, nu) -> nu, index_point prm ~name i) chal),
      keys.pk;
    ]
