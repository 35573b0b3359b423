open Sc_bignum
open Sc_ec
module Params = Sc_pairing.Params
module Tate = Sc_pairing.Tate
module Hash_g1 = Sc_pairing.Hash_g1

type keypair = { x : Nat.t; pk : Curve.point }

let generate (prm : Params.t) ~bytes_source =
  let x = Params.random_scalar prm ~bytes_source in
  { x; pk = Params.mul_g prm x }

let hash_msg prm msg = Hash_g1.hash_to_point prm ("bls:" ^ msg)
let sign (prm : Params.t) kp msg = Curve.mul prm.curve kp.x (hash_msg prm msg)

(* Both pairings replay cached line tables of their fixed argument (P
   and the public key); the symmetry this relies on holds only on the
   order-q subgroup, hence the subgroup check on the untrusted σ (the
   hash point is a member by construction). *)
let verify (prm : Params.t) pk msg sigma =
  Params.in_subgroup prm sigma
  && Tate.gt_equal
       (Tate.pairing_precomp prm sigma (Tate.precomp_for prm prm.g))
       (Tate.pairing_precomp prm (hash_msg prm msg) (Tate.precomp_for prm pk))

let aggregate (prm : Params.t) sigmas =
  List.fold_left (Curve.add prm.curve) Curve.infinity sigmas

let verify_aggregate (prm : Params.t) entries sigma =
  let msgs = List.map snd entries in
  let distinct = List.length (List.sort_uniq String.compare msgs) = List.length msgs in
  distinct
  && Params.in_subgroup prm sigma
  &&
  let lhs = Tate.pairing_precomp prm sigma (Tate.precomp_for prm prm.g) in
  let rhs =
    List.fold_left
      (fun acc (pk, msg) ->
        Tate.gt_mul prm acc
          (Tate.pairing_precomp prm (hash_msg prm msg)
             (Tate.precomp_for prm pk)))
      (Tate.gt_one prm) entries
  in
  Tate.gt_equal lhs rhs
