open Sc_bignum
open Sc_field

(* A fixed 3-mod-4 prime for most tests. *)
let p = Util.nat_of_decimal "2147483647" (* 2^31 - 1, = 3 mod 4 *)
let fp = Fp.create p

let nat = Alcotest.testable Nat.pp Nat.equal
let fp2_el = Alcotest.testable Util.pp_fp2 Fp2.equal

(* F_p² conjugation and inversion exist only in the Montgomery
   domain. *)
let fp2_conj x = Fp2.Mont.leave fp (Fp2.Mont.conj fp (Fp2.Mont.enter fp x))
let fp2_inv x = Fp2.Mont.leave fp (Fp2.Mont.inv fp (Fp2.Mont.enter fp x))

let gen_el =
  let open QCheck2.Gen in
  let* bytes = string_size ~gen:char (return 8) in
  return (Fp.of_nat fp (Nat.of_bytes_be bytes))

let gen_el2 = QCheck2.Gen.(map (fun (a, b) -> Fp2.make a b) (pair gen_el gen_el))

let unit_tests =
  let open Util in
  [
    case "characteristic" (fun () -> check nat "p" p (Fp.characteristic fp));
    case "of_int handles negatives" (fun () ->
        check nat "-1" (Nat.sub p Nat.one) (Fp.of_int fp (-1));
        check nat "-p = 0" Nat.zero (Fp.of_int fp (-2147483647)));
    case "inv of zero raises" (fun () ->
        Alcotest.check_raises "div0" Division_by_zero (fun () ->
            ignore (Fp.inv fp Fp.zero)));
    case "legendre of squares" (fun () ->
        for i = 2 to 20 do
          let sq = Fp.sqr fp (Fp.of_int fp i) in
          Alcotest.(check int) (Printf.sprintf "%d^2 is QR" i) 1 (Modular.jacobi sq p)
        done);
    case "legendre multiplicativity" (fun () ->
        (* (ab|p) = (a|p)(b|p) *)
        let pairs = [ 2, 3; 5, 7; 11, 13; 6, 35 ] in
        List.iter
          (fun (a, b) ->
            let la = Modular.jacobi (Fp.of_int fp a) p in
            let lb = Modular.jacobi (Fp.of_int fp b) p in
            let lab = Modular.jacobi (Fp.of_int fp (a * b)) p in
            Alcotest.(check int) "multiplicative" (la * lb) lab)
          pairs);
    case "sqrt recovers squares" (fun () ->
        for i = 2 to 30 do
          let x = Fp.of_int fp (i * 997) in
          let sq = Fp.sqr fp x in
          match Fp.sqrt fp sq with
          | None -> Alcotest.fail "square must have a root"
          | Some y ->
            if not (Fp.equal y x || Fp.equal y (Fp.neg fp x))
            then Alcotest.fail "wrong root"
        done);
    case "sqrt of non-residue is None" (fun () ->
        (* Find a non-residue and check. *)
        let rec find i =
          if Modular.jacobi (Fp.of_int fp i) p = -1 then i else find (i + 1)
        in
        let nr = find 2 in
        check Alcotest.bool "none" true (Fp.sqrt fp (Fp.of_int fp nr) = None));
    case "sqrt requires p = 3 mod 4" (fun () ->
        let bad = Fp.create (Nat.of_int 13) (* 13 = 1 mod 4 *) in
        Alcotest.check_raises "1 mod 4"
          (Invalid_argument "Fp.sqrt: characteristic is not 3 mod 4") (fun () ->
            ignore (Fp.sqrt bad (Fp.of_int bad 4))));
    case "fp2 check_ctx rejects 1 mod 4" (fun () ->
        let bad = Fp.create (Nat.of_int 13) in
        Alcotest.check_raises "1 mod 4"
          (Invalid_argument "Fp2: characteristic must be 3 mod 4 for i^2 = -1")
          (fun () -> Fp2.check_ctx bad));
    case "fp2 i^2 = -1" (fun () ->
        let i = Fp2.make Fp.zero Fp.one in
        check fp2_el "i*i" (Fp2.make (Fp.of_int fp (-1)) Fp.zero) (Fp2.mul fp i i));
    case "fp2 inverse" (fun () ->
        let x = Fp2.make (Fp.of_int fp 3) (Fp.of_int fp 4) in
        check fp2_el "x * x^-1" Fp2.one (Fp2.mul fp x (fp2_inv x)));
    case "fp2 inv of zero raises" (fun () ->
        Alcotest.check_raises "div0" Division_by_zero (fun () ->
            ignore (fp2_inv (Fp2.make Fp.zero Fp.zero))));
    case "fp2 norm is multiplicative" (fun () ->
        let x = Fp2.make (Fp.of_int fp 3) (Fp.of_int fp 4) in
        let y = Fp2.make (Fp.of_int fp 5) (Fp.of_int fp 12) in
        check nat "N(xy) = N(x)N(y)"
          (Fp.mul fp (Fp2.norm fp x) (Fp2.norm fp y))
          (Fp2.norm fp (Fp2.mul fp x y)));
    case "fp2 conj is field automorphism" (fun () ->
        let x = Fp2.make (Fp.of_int fp 3) (Fp.of_int fp 4) in
        let y = Fp2.make (Fp.of_int fp 7) (Fp.of_int fp 11) in
        check fp2_el "conj(xy) = conj(x)conj(y)"
          (Fp2.mul fp (fp2_conj x) (fp2_conj y))
          (fp2_conj (Fp2.mul fp x y)));
    case "fp2 frobenius: conj(x) = x^p" (fun () ->
        let x = Fp2.make (Fp.of_int fp 3) (Fp.of_int fp 4) in
        check fp2_el "x^p" (fp2_conj x) (Reference.fp2_pow fp x p));
  ]

(* Batch inversion (Montgomery's trick) against pointwise inversion,
   in both representations (the "fp" cases run the Montgomery-domain
   batch through enter/leave against the Barrett-domain inverse), plus
   the lazy-reduction adds/subs that the Karatsuba Fp2 multiplier feeds
   into mul. *)
let mont_batch_inv xs =
  Array.map (Fp.Mont.leave fp) (Fp.Mont.batch_inv fp (Array.map (Fp.Mont.enter fp) xs))

let batch_and_lazy_tests =
  let open Util in
  [
    qcheck ~count:50 "fp batch_inv = pointwise inv"
      QCheck2.Gen.(list_size (int_range 0 8) gen_el)
      (fun xs ->
        let xs = Array.of_list xs in
        if Array.exists Fp.is_zero xs then true
        else
          let ys = mont_batch_inv xs in
          Array.for_all2 (fun x y -> Fp.equal (Fp.inv fp x) y) xs ys);
    case "fp batch_inv rejects a zero element" (fun () ->
        Alcotest.check_raises "div0" Division_by_zero (fun () ->
            ignore (mont_batch_inv [| Fp.one; Fp.zero; Fp.of_int fp 7 |])));
    case "fp batch_inv of the empty array" (fun () ->
        check Alcotest.int "empty" 0 (Array.length (mont_batch_inv [||])));
    qcheck ~count:50 "mont batch_inv = pointwise inv"
      QCheck2.Gen.(list_size (int_range 1 8) gen_el)
      (fun xs ->
        let xs = List.filter (fun x -> not (Fp.is_zero x)) xs in
        let ms = Array.of_list (List.map (Fp.Mont.enter fp) xs) in
        let ys = Fp.Mont.batch_inv fp ms in
        Array.for_all2
          (fun m y -> Fp.Mont.equal (Fp.Mont.inv fp m) y)
          ms ys);
    case "mont batch_inv rejects a zero element" (fun () ->
        Alcotest.check_raises "div0" Division_by_zero (fun () ->
            ignore (Fp.Mont.batch_inv fp [| Fp.Mont.zero fp |])));
    qcheck ~count:60 "lazy add/sub feed mul like strict add/sub"
      (QCheck2.Gen.quad gen_el gen_el gen_el gen_el)
      (fun (a, b, c, d) ->
        let m = Fp.Mont.enter fp in
        let ma = m a and mb = m b and mc = m c and md = m d in
        (* Lazy sums are only ever consumed by mul/sqr; compare that
           whole pattern against the strict path. *)
        let lazy_prod =
          Fp.Mont.mul fp (Fp.Mont.add_lazy fp ma mb) (Fp.Mont.sub_lazy fp mc md)
        in
        let strict_prod =
          Fp.Mont.mul fp (Fp.Mont.add fp ma mb) (Fp.Mont.sub fp mc md)
        in
        let lazy_sqr = Fp.Mont.sqr fp (Fp.Mont.add_lazy fp ma mb) in
        let strict_sqr = Fp.Mont.sqr fp (Fp.Mont.add fp ma mb) in
        Fp.Mont.equal lazy_prod strict_prod
        && Fp.Mont.equal lazy_sqr strict_sqr);
  ]

let property_tests =
  let open Util in
  [
    qcheck "fp add/mul distributive" (QCheck2.Gen.triple gen_el gen_el gen_el)
      (fun (a, b, c) ->
        Fp.equal (Fp.mul fp a (Fp.add fp b c))
          (Fp.add fp (Fp.mul fp a b) (Fp.mul fp a c)));
    qcheck "fp inverse law" gen_el (fun a ->
        Fp.is_zero a || Fp.equal Fp.one (Fp.mul fp a (Fp.inv fp a)));
    qcheck "fp sqrt of square exists" gen_el (fun a ->
        match Fp.sqrt fp (Fp.sqr fp a) with
        | Some y -> Fp.equal y a || Fp.equal y (Fp.neg fp a)
        | None -> false);
    qcheck "fp2 mul commutative" (QCheck2.Gen.pair gen_el2 gen_el2)
      (fun (x, y) -> Fp2.equal (Fp2.mul fp x y) (Fp2.mul fp y x));
    qcheck "fp2 mul associative" (QCheck2.Gen.triple gen_el2 gen_el2 gen_el2)
      (fun (x, y, z) ->
        Fp2.equal (Fp2.mul fp x (Fp2.mul fp y z)) (Fp2.mul fp (Fp2.mul fp x y) z));
    qcheck "fp2 sqr = mul self" gen_el2 (fun x ->
        Fp2.equal (Fp2.sqr fp x) (Fp2.mul fp x x));
    qcheck "fp2 inverse law" gen_el2 (fun x ->
        Fp2.equal x Reference.fp2_zero || Fp2.equal Fp2.one (Fp2.mul fp x (fp2_inv x)));
    qcheck "fp2 norm = x * conj(x)" gen_el2 (fun x ->
        Fp2.equal
          (Fp2.make (Fp2.norm fp x) Fp.zero)
          (Fp2.mul fp x (fp2_conj x)));
  ]

(* The Montgomery-resident mirrors must agree with the Barrett-domain
   reference arithmetic on every operation. *)
let mont_tests =
  let open Util in
  [
    qcheck "fp mont enter/leave round trip" gen_el (fun a ->
        Fp.equal a (Fp.Mont.leave fp (Fp.Mont.enter fp a)));
    qcheck "fp mont mul/add/sub/inv mirror Fp"
      (QCheck2.Gen.pair gen_el gen_el) (fun (a, b) ->
        let am = Fp.Mont.enter fp a and bm = Fp.Mont.enter fp b in
        let out = Fp.Mont.leave fp in
        Fp.equal (out (Fp.Mont.mul fp am bm)) (Fp.mul fp a b)
        && Fp.equal (out (Fp.Mont.add fp am bm)) (Fp.add fp a b)
        && Fp.equal (out (Fp.Mont.sub fp am bm)) (Fp.sub fp a b)
        && Fp.equal (out (Fp.Mont.sqr fp am)) (Fp.sqr fp a)
        && (Fp.is_zero a
           || Fp.equal (out (Fp.Mont.inv fp am)) (Fp.inv fp a)));
    qcheck "fp2 mont mul/sqr/conj/inv/pow mirror Fp2"
      (QCheck2.Gen.pair gen_el2 gen_el2) (fun (x, y) ->
        let xm = Fp2.Mont.enter fp x and ym = Fp2.Mont.enter fp y in
        let out = Fp2.Mont.leave fp in
        Fp2.equal (out (Fp2.Mont.mul fp xm ym)) (Fp2.mul fp x y)
        && Fp2.equal (out (Fp2.Mont.sqr fp xm)) (Fp2.sqr fp x)
        && Fp2.equal (out (Fp2.Mont.conj fp xm)) (Reference.fp2_conj fp x)
        && Fp2.equal
             (out (Fp2.Mont.pow fp xm (Nat.of_int 13)))
             (Reference.fp2_pow fp x (Nat.of_int 13))
        && (Fp2.equal x Reference.fp2_zero
           || Fp2.equal (out (Fp2.Mont.inv fp xm)) (Reference.fp2_inv fp x)));
    case "fp mont constants and of_int" (fun () ->
        check nat "one" Nat.one (Fp.Mont.leave fp (Fp.Mont.one fp));
        check nat "zero" Nat.zero (Fp.Mont.leave fp (Fp.Mont.zero fp));
        check nat "of_int -1" (Nat.sub p Nat.one)
          (Fp.Mont.leave fp (Fp.Mont.of_int fp (-1)));
        check Alcotest.bool "is_zero" true (Fp.Mont.is_zero (Fp.Mont.zero fp));
        check Alcotest.bool "equal" true
          (Fp.Mont.equal (Fp.Mont.one fp) (Fp.Mont.of_int fp 1)));
  ]

let suite = unit_tests @ batch_and_lazy_tests @ property_tests @ mont_tests
