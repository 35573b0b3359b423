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

(* Curve points and F_p² elements, compared and printed coordinate by
   coordinate. *)
let point_equal (p : Sc_ec.Curve.point) (q : Sc_ec.Curve.point) =
  match (p, q) with
  | Infinity, Infinity -> true
  | Affine (x1, y1), Affine (x2, y2) ->
    Sc_field.Fp.equal x1 x2 && Sc_field.Fp.equal y1 y2
  | Infinity, Affine _ | Affine _, Infinity -> false

let pp_point fmt : Sc_ec.Curve.point -> unit = function
  | Infinity -> Format.pp_print_string fmt "O"
  | Affine (x, y) -> Format.fprintf fmt "(%a, %a)" Sc_bignum.Nat.pp x Sc_bignum.Nat.pp y

let point = Alcotest.testable pp_point point_equal

let pp_fp2 fmt (e : Sc_field.Fp2.el) =
  Format.fprintf fmt "%a + %a*i" Sc_bignum.Nat.pp e.re Sc_bignum.Nat.pp e.im


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
          Sc_ec.Curve.add prm.Sc_pairing.Params.curve s.Sc_ibc.Ibs.v
            prm.Sc_pairing.Params.g;
      };
  }

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f
