open Sc_bignum
open Sc_ec
module Params = Sc_pairing.Params
module Tate = Sc_pairing.Tate
module Equation = Sc_pairing.Equation
module Hash_g1 = Sc_pairing.Hash_g1

type keypair = { x : Nat.t; pk : Curve.point }

let generate (prm : Params.t) ~bytes_source =
  let x = Params.random_scalar prm ~bytes_source in
  { x; pk = Params.mul_g prm x }

let hash_msg prm msg = Hash_g1.hash_to_point prm ("bls:" ^ msg)
let sign (prm : Params.t) kp msg = Curve.mul prm.curve kp.x (hash_msg prm msg)

(* ê(σ, P) = Π ê(A_i, X_i), stated as ê(−σ, P)·Π ê(A_i, X_i) = 1.
   Every term replays the cached line table of its fixed argument (P,
   a public key); the symmetry this relies on holds only on the
   order-q subgroup, hence the subgroup check on the untrusted σ (the
   A_i are hashes, members by construction, or sums of them). *)
let holds (prm : Params.t) sigma rhs =
  Params.in_subgroup prm sigma
  && Equation.holds prm
       {
         terms =
           List.map
             (fun (a, x) -> Equation.Point a, Tate.precomp_for prm x)
             ((Curve.neg prm.curve sigma, prm.g) :: rhs);
         target = One;
       }

let verify prm pk msg sigma = holds prm sigma [ hash_msg prm msg, pk ]

let aggregate (prm : Params.t) sigmas =
  Curve.msm prm.curve (List.map (fun s -> Nat.one, s) sigmas)

let verify_aggregate prm entries sigma =
  let msgs = List.map snd entries in
  let distinct = List.length (List.sort_uniq String.compare msgs) = List.length msgs in
  distinct && holds prm sigma (List.map (fun (pk, msg) -> hash_msg prm msg, pk) entries)
