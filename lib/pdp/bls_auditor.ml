open Sc_bignum
open Sc_ec
module Params = Sc_pairing.Params
module Tate = Sc_pairing.Tate
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

let tag_file (prm : Params.t) keys ~name raw_blocks =
  let blocks = Array.of_list (List.map (block_to_scalar prm) raw_blocks) in
  let tags =
    Array.mapi
      (fun i m ->
        let base =
          Curve.add prm.curve (index_point prm ~name i)
            (Curve.mul prm.curve m keys.u)
        in
        Curve.mul prm.curve keys.x base)
      blocks
  in
  { name; blocks; tags }

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
  let sigma =
    List.fold_left
      (fun acc (i, nu) -> Curve.add prm.curve acc (Curve.mul prm.curve nu file.tags.(i)))
      Curve.infinity chal
  in
  { mu = Nat.rem mu prm.q; sigma }

let verify (prm : Params.t) keys ~name chal { mu; sigma } =
  (* Subgroup-check the prover-supplied σ: the precomputed pairings
     below rely on symmetry, which only holds on the order-q
     subgroup. *)
  Sc_pairing.Params.in_subgroup prm sigma
  &&
  let h_combined =
    List.fold_left
      (fun acc (i, nu) ->
        Curve.add prm.curve acc (Curve.mul prm.curve nu (index_point prm ~name i)))
      Curve.infinity chal
  in
  let rhs_point = Curve.add prm.curve h_combined (Curve.mul prm.curve mu keys.u) in
  Tate.gt_equal
    (Tate.pairing_precomp prm sigma (Tate.precomp_for prm prm.g))
    (Tate.pairing_precomp prm rhs_point (Tate.precomp_for prm keys.pk))
