open Sc_ec
module Params = Sc_pairing.Params
module Tate = Sc_pairing.Tate
module Equation = Sc_pairing.Equation
module Telemetry = Sc_telemetry.Telemetry

type t = { u : Curve.point; sigma : Tate.gt }

(* The designated verifier's key material is the fixed pairing
   argument in every operation here, so all three entry points replay
   its cached Miller tables (all points involved are subgroup members:
   Q_B and sk by construction, V/W from verified signatures). *)

let designate (pub : Setup.public) (raw : Ibs.t) ~verifier =
  let prm = pub.prm in
  let q_b = Setup.q_of_id pub verifier in
  { u = raw.Ibs.u; sigma = Tate.pairing_precomp prm raw.Ibs.v (Tate.precomp_for prm q_b) }

type base = Tate.gt_comb

let base (pub : Setup.public) (key : Setup.identity_key) ~verifier =
  Telemetry.with_span ~name:"dvs.base" @@ fun () ->
  let prm = pub.prm in
  Tate.gt_comb prm
    (Tate.pairing_precomp prm key.Setup.sk
       (Tate.precomp_for prm (Setup.q_of_id pub verifier)))

(* Bilinearity: ê(V, Q_B) = ê(e·sk_ID, Q_B) = ê(sk_ID, Q_B)^e, and both
   sides are the unique reduced pairing value, so this equals
   [designate] bit for bit without forming V. *)
let sign_batch (pub : Setup.public) key ~bytes_source (b_cs, b_da) msgs =
  let prm = pub.prm in
  List.map
    (fun (u, e) ->
      let e = (e : Ibs.exponent :> Sc_bignum.Nat.t) in
      u, Tate.gt_comb_exp prm b_cs e, Tate.gt_comb_exp prm b_da e)
    (Ibs.sign_exponents pub key ~bytes_source msgs)

(* Σ = ê(U + h·Q_ID, sk_B), replayed from the verifier key's table. *)
let equation (pub : Setup.public) table ~q_id ~msg s =
  {
    Equation.terms = [ Shift { u = s.u; h = Ibs.h2 pub ~u:s.u ~msg; base = q_id }, table ];
    target = Gt s.sigma;
  }

let verify_all (pub : Setup.public) ~verifier_key entries =
  let prm = pub.prm in
  let table = Tate.precomp_for prm verifier_key.Setup.sk in
  Equation.holds_each prm
    (List.map
       (fun (q_id, msg, s) ->
         if Curve.on_curve prm.curve s.u then Some (equation pub table ~q_id ~msg s)
         else None)
       entries)

let verify pub ~verifier_key ~q_id ~msg s =
  List.hd (verify_all pub ~verifier_key [ q_id, msg, s ])

let simulate (pub : Setup.public) ~verifier_key ~signer ~msg ~bytes_source =
  let prm = pub.prm in
  let comb = Params.precomp_for prm (Setup.q_of_id pub signer) in
  let r = Params.random_scalar prm ~bytes_source in
  let u = Curve.mul_precomp prm.curve comb r in
  (* W = U + h·Q_ID = (r + h)·Q_ID. *)
  let w = Curve.mul_precomp prm.curve comb Sc_bignum.Nat.(rem (add r (Ibs.h2 pub ~u ~msg)) prm.q) in
  {
    u;
    sigma =
      Tate.pairing_precomp prm w (Tate.precomp_for prm verifier_key.Setup.sk);
  }
