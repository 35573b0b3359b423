open Sc_bignum
open Sc_ec
module Params = Sc_pairing.Params
module Hash_g1 = Sc_pairing.Hash_g1

type keypair = { d : Nat.t; q : Curve.point }
type signature = { r : Nat.t; s : Nat.t }

let generate (prm : Params.t) ~bytes_source =
  let d = Params.random_scalar prm ~bytes_source in
  { d; q = Params.mul_g prm d }

let hash_msg prm msg = Hash_g1.hash_to_scalar prm ("ecdsa:" ^ msg)

(* Scalar arithmetic mod q is a handful of products per signature, so
   it reduces each one by division. *)
let mul_q (prm : Params.t) a b = Nat.rem (Nat.mul a b) prm.q

(* r is the x-coordinate of a point, as an integer, mod q. *)
let x_mod_q (prm : Params.t) x = Nat.rem (Sc_field.Fp.to_nat prm.fp x) prm.q

let sign (prm : Params.t) kp ~bytes_source msg =
  let h = hash_msg prm msg in
  let rec attempt () =
    let k = Params.random_scalar prm ~bytes_source in
    match Params.mul_g prm k with
    | Curve.Infinity -> attempt ()
    | Curve.Affine (x, _) ->
      let r = x_mod_q prm x in
      if Nat.is_zero r then attempt ()
      else begin
        let s = mul_q prm (Nat.inv_mod k prm.q) (Nat.add h (Nat.mul r kp.d)) in
        if Nat.is_zero s then attempt () else { r; s }
      end
  in
  attempt ()

let verify (prm : Params.t) pubkey msg { r; s } =
  let in_range v = (not (Nat.is_zero v)) && Nat.compare v prm.q < 0 in
  in_range r && in_range s
  && Curve.on_curve prm.curve pubkey
  && (not (Curve.is_infinity pubkey))
  &&
  let h = hash_msg prm msg in
  match Nat.inv_mod s prm.q with
  | exception Not_found -> false
  | sinv ->
    let u1 = mul_q prm h sinv and u2 = mul_q prm r sinv in
    (* u2·Q by the ladder, then u1·G on G's comb from it: two
       inversions in all. *)
    (match
       Curve.add_mul_precomp_batch prm.curve
         [| Curve.mul prm.curve u2 pubkey, Params.g_comb prm, u1 |]
     with
    | [| Curve.Affine (x, _) |] -> Nat.equal (x_mod_q prm x) r
    | _ -> false)
