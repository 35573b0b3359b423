(* Shared test fixtures.  Everything is seeded: a failure reproduces
   byte-for-byte. *)

let drbg = Sc_hash.Drbg.create ~seed:"test-suite"
let bs = Sc_hash.Drbg.bytes_source drbg

(* Fresh, independent randomness for property tests that must not
   interfere with each other. *)
let fresh_bs name = Sc_hash.Drbg.bytes_source (Sc_hash.Drbg.create ~seed:name)

let toy_params = Sc_pairing.Params.toy

(* Decimal literals for the bignum tests; [Nat.pp] prints decimal. *)
let nat_of_decimal s =
  String.fold_left
    (fun acc c ->
      Sc_bignum.Nat.add
        (Sc_bignum.Nat.mul acc (Sc_bignum.Nat.of_int 10))
        (Sc_bignum.Nat.of_int (Char.code c - Char.code '0')))
    Sc_bignum.Nat.zero s

let nat_to_decimal = Format.asprintf "%a" Sc_bignum.Nat.pp

(* Hex literals, optionally 0x-prefixed; [Nat.to_hex] prints them. *)
let nat_of_hex s =
  let digits =
    if String.starts_with ~prefix:"0x" s then
      String.sub s 2 (String.length s - 2)
    else s
  in
  String.fold_left
    (fun acc c ->
      Sc_bignum.Nat.add
        (Sc_bignum.Nat.shift_left acc 4)
        (Sc_bignum.Nat.of_int (int_of_string ("0x" ^ String.make 1 c))))
    Sc_bignum.Nat.zero digits

(* Curve points and F_p² elements, compared and printed coordinate by
   coordinate. *)
let point_equal (p : Sc_ec.Curve.point) (q : Sc_ec.Curve.point) =
  match (p, q) with
  | Infinity, Infinity -> true
  | Affine (x1, y1), Affine (x2, y2) ->
    Sc_field.Fp.equal x1 x2 && Sc_field.Fp.equal y1 y2
  | Infinity, Affine _ | Affine _, Infinity -> false

(* Field elements print as their Montgomery representation aR mod p,
   which needs no context to read. *)
let pp_el fmt (e : Sc_field.Fp.el) =
  Format.fprintf fmt "R*%a" Sc_bignum.Nat.pp
    (Sc_bignum.Nat.of_limbs (e :> int array))

let pp_point fmt : Sc_ec.Curve.point -> unit = function
  | Infinity -> Format.pp_print_string fmt "O"
  | Affine (x, y) -> Format.fprintf fmt "(%a, %a)" pp_el x pp_el y

let point = Alcotest.testable pp_point point_equal

let pp_fp2 fmt (e : Sc_field.Fp2.el) =
  Format.fprintf fmt "%a + %a*i" pp_el e.re pp_el e.im


let shared_system =
  lazy
    (Seccloud.System.create ~params:toy_params ~seed:"test-system"
       ~cs_ids:[ "cs-1"; "cs-2" ] ~da_id:"da" ())

(* (U, V + P): the warrant body under signature bytes that do not
   verify. *)
let maul (pub : Sc_ibc.Setup.public) (w : Sc_ibc.Warrant.signed) =
  let prm = pub.Sc_ibc.Setup.prm in
  let s = w.Sc_ibc.Warrant.signature in
  {
    w with
    Sc_ibc.Warrant.signature =
      {
        s with
        Sc_ibc.Ibs.v =
          Reference.add prm.Sc_pairing.Params.fp s.Sc_ibc.Ibs.v
            prm.Sc_pairing.Params.g;
      };
  }

(* T = q·R for random R until T ≠ O: a point of order dividing the
   cofactor, outside the order-q subgroup. *)
let rec torsion_point (prm : Sc_pairing.Params.t) bs =
  let curve = prm.Sc_pairing.Params.curve in
  let t =
    Sc_ec.Curve.mul curve prm.Sc_pairing.Params.q
      (Sc_ec.Curve.random curve ~bytes_source:bs)
  in
  if Sc_ec.Curve.is_infinity t then torsion_point prm bs else t

(* The IBS signature a signer makes with U = r·Q_ID + T: h is taken
   over that U, so the signature verifies (ê(P_pub, ·) maps T to 1). *)
let torsion_signature (pub : Sc_ibc.Setup.public) (key : Sc_ibc.Setup.identity_key)
    ~bytes_source t msg =
  let prm = pub.Sc_ibc.Setup.prm in
  let curve = prm.Sc_pairing.Params.curve in
  let r = Sc_pairing.Params.random_scalar prm ~bytes_source in
  let u =
    Reference.add prm.Sc_pairing.Params.fp (Sc_ec.Curve.mul curve r key.Sc_ibc.Setup.q_id) t
  in
  let e =
    Sc_bignum.Nat.rem
      (Sc_bignum.Nat.add r (Sc_ibc.Ibs.h2 pub ~u ~msg))
      prm.Sc_pairing.Params.q
  in
  { Sc_ibc.Ibs.u; v = Sc_ec.Curve.mul curve e key.Sc_ibc.Setup.sk }

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f
