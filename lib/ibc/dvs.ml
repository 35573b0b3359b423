open Sc_ec
module Params = Sc_pairing.Params
module Tate = Sc_pairing.Tate

type t = { u : Curve.point; sigma : Tate.gt }

(* The designated verifier's key material is the fixed pairing
   argument in every operation here, so all three entry points replay
   its cached Miller tables (all points involved are subgroup members:
   Q_B and sk by construction, V/W from verified signatures). *)

let designate (pub : Setup.public) (raw : Ibs.t) ~verifier =
  let prm = pub.prm in
  let q_b = Setup.q_of_id pub verifier in
  { u = raw.Ibs.u; sigma = Tate.pairing_precomp prm raw.Ibs.v (Tate.precomp_for prm q_b) }

type base = Tate.gt

let base (pub : Setup.public) (key : Setup.identity_key) ~verifier =
  let prm = pub.prm in
  Tate.pairing_precomp prm key.Setup.sk
    (Tate.precomp_for prm (Setup.q_of_id pub verifier))

(* Bilinearity: ê(V, Q_B) = ê(e·sk_ID, Q_B) = ê(sk_ID, Q_B)^e, and both
   sides are the unique reduced pairing value, so this equals
   [designate] bit for bit without forming V. *)
let sign (pub : Setup.public) key ~bytes_source (b_cs, b_da) msg =
  let u, e = Ibs.sign_exponent pub key ~bytes_source msg in
  u, Ibs.gt_pow_exponent pub b_cs e, Ibs.gt_pow_exponent pub b_da e

let verify (pub : Setup.public) ~verifier_key ~signer ~msg { u; sigma } =
  let prm = pub.prm in
  Curve.on_curve prm.curve u
  &&
  let q_id = Setup.q_of_id pub signer in
  let w = Ibs.verification_point pub ~q_id ~msg ~u in
  Tate.gt_equal sigma
    (Tate.pairing_precomp prm w (Tate.precomp_for prm verifier_key.Setup.sk))

let simulate (pub : Setup.public) ~verifier_key ~signer ~msg ~bytes_source =
  let prm = pub.prm in
  let q_id = Setup.q_of_id pub signer in
  let r = Params.random_scalar prm ~bytes_source in
  let u = Curve.mul_precomp prm.curve (Params.precomp_for prm q_id) r in
  let w = Ibs.verification_point pub ~q_id ~msg ~u in
  {
    u;
    sigma =
      Tate.pairing_precomp prm w (Tate.precomp_for prm verifier_key.Setup.sk);
  }
