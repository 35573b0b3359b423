open Sc_bignum
open Sc_ec
module Params = Sc_pairing.Params
module Hash_g1 = Sc_pairing.Hash_g1

type public = { prm : Params.t; p_pub : Curve.point }
type sio = { pub : public; s : Nat.t }
type identity_key = { id : string; q_id : Curve.point; sk : Curve.point }

let create prm ~bytes_source =
  let s = Params.random_scalar prm ~bytes_source in
  let p_pub = Params.mul_g prm s in
  { pub = { prm; p_pub }; s }

let public sio = sio.pub

let q_of_id pub id =
  Params.id_point pub.prm id (fun id ->
      Hash_g1.hash_to_point pub.prm ("id:" ^ id))

let extract sio id =
  let q_id = q_of_id sio.pub id in
  { id; q_id; sk = Curve.mul sio.pub.prm.curve sio.s q_id }
