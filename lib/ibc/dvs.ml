open Sc_ec
module Params = Sc_pairing.Params
module Tate = Sc_pairing.Tate
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

(* The points of the entries whose U is on the curve come out of one
   {!Ibs.verification_points}, so n entries share one inversion. *)
let verify_all (pub : Setup.public) ~verifier_key entries =
  let prm = pub.prm in
  let on_curve s = Curve.on_curve prm.curve s.u in
  let ws =
    Ibs.verification_points pub
      (List.filter_map
         (fun (q_id, msg, s) ->
           if on_curve s then Some (q_id, msg, s.u) else None)
         entries)
  in
  let pc = Tate.precomp_for prm verifier_key.Setup.sk in
  let rec answer entries ws =
    match entries, ws with
    | (_, _, s) :: entries, w :: ws when on_curve s ->
      Tate.pairing_precomp_equal prm w pc s.sigma :: answer entries ws
    | _ :: entries, ws -> false :: answer entries ws
    | [], _ -> []
  in
  answer entries ws

let verify pub ~verifier_key ~q_id ~msg s =
  List.hd (verify_all pub ~verifier_key [ q_id, msg, s ])

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
