open Sc_bignum
open Sc_field

(* A fixed 3-mod-4 prime for most tests. *)
let p = Util.nat_of_decimal "2147483647" (* 2^31 - 1, = 3 mod 4 *)
let fp = Fp.create p

let nat = Alcotest.testable Nat.pp Nat.equal
let fp_el = Alcotest.testable Util.pp_el Fp.equal
let fp2_el = Alcotest.testable Util.pp_fp2 Fp2.equal
let to_nat = Fp.to_nat fp
let fp2_conj = Fp2.conj fp
let fp2_inv = Fp2.inv fp

(* The Legendre symbol (a|p) by Euler's criterion, a^((p-1)/2) mod p. *)
let legendre a =
  let r = Montgomery.pow (Montgomery.create p) a (Nat.shift_right p 1) in
  if Nat.is_zero r then 0 else if Nat.equal r Nat.one then 1 else -1

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
        check nat "-1" (Nat.sub p Nat.one) (to_nat (Fp.of_int fp (-1)));
        check nat "-p = 0" Nat.zero (to_nat (Fp.of_int fp (-2147483647))));
    case "inv of zero raises" (fun () ->
        Alcotest.check_raises "div0" Division_by_zero (fun () ->
            ignore (Fp.inv fp (Fp.zero fp))));
    case "legendre of squares" (fun () ->
        for i = 2 to 20 do
          let sq = to_nat (Fp.sqr fp (Fp.of_int fp i)) in
          Alcotest.(check int) (Printf.sprintf "%d^2 is QR" i) 1 (legendre sq)
        done);
    case "legendre multiplicativity" (fun () ->
        (* (ab|p) = (a|p)(b|p) *)
        let pairs = [ 2, 3; 5, 7; 11, 13; 6, 35 ] in
        List.iter
          (fun (a, b) ->
            let la = legendre (Nat.of_int a) in
            let lb = legendre (Nat.of_int b) in
            let ab = Fp.mul fp (Fp.of_int fp a) (Fp.of_int fp b) in
            let lab = legendre (to_nat ab) in
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
          if legendre (Nat.of_int i) = -1 then i else find (i + 1)
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
        let i = Fp2.make (Fp.zero fp) (Fp.one fp) in
        check fp2_el "i*i" (Fp2.make (Fp.of_int fp (-1)) (Fp.zero fp)) (Fp2.mul fp i i));
    case "fp2 inverse" (fun () ->
        let x = Fp2.make (Fp.of_int fp 3) (Fp.of_int fp 4) in
        check fp2_el "x * x^-1" (Fp2.one fp) (Fp2.mul fp x (fp2_inv x)));
    case "fp2 inv of zero raises" (fun () ->
        Alcotest.check_raises "div0" Division_by_zero (fun () ->
            ignore (fp2_inv (Fp2.make (Fp.zero fp) (Fp.zero fp)))));
    case "fp2 norm is multiplicative" (fun () ->
        let x = Fp2.make (Fp.of_int fp 3) (Fp.of_int fp 4) in
        let y = Fp2.make (Fp.of_int fp 5) (Fp.of_int fp 12) in
        check fp_el "N(xy) = N(x)N(y)"
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
   by Fermat ("fp" cases) and by the extended Euclidean
   [Nat.inv_mod] on naturals ("mont" cases), plus the lazy-reduction
   adds/subs that the Karatsuba Fp2 multiplier feeds into mul. *)
let batch_and_lazy_tests =
  let open Util in
  [
    qcheck ~count:50 "fp batch_inv = pointwise inv"
      QCheck2.Gen.(list_size (int_range 0 8) gen_el)
      (fun xs ->
        let xs = Array.of_list xs in
        if Array.exists Fp.is_zero xs then true
        else
          let ys = Fp.batch_inv fp xs in
          Array.for_all2 (fun x y -> Fp.equal (Fp.inv fp x) y) xs ys);
    case "fp batch_inv rejects a zero element" (fun () ->
        Alcotest.check_raises "div0" Division_by_zero (fun () ->
            ignore (Fp.batch_inv fp [| Fp.one fp; Fp.zero fp; Fp.of_int fp 7 |])));
    case "fp batch_inv of the empty array" (fun () ->
        check Alcotest.int "empty" 0 (Array.length (Fp.batch_inv fp [||])));
    qcheck ~count:50 "mont batch_inv = pointwise inv"
      QCheck2.Gen.(list_size (int_range 1 8) gen_el)
      (fun xs ->
        let xs = Array.of_list (List.filter (fun x -> not (Fp.is_zero x)) xs) in
        Array.for_all2
          (fun x y -> Nat.equal (Nat.inv_mod (to_nat x) p) (to_nat y))
          xs (Fp.batch_inv fp xs));
    case "mont batch_inv rejects a zero element" (fun () ->
        Alcotest.check_raises "div0" Division_by_zero (fun () ->
            ignore (Fp.batch_inv fp [| Fp.zero fp |])));
    qcheck ~count:60 "lazy add/sub feed mul like strict add/sub"
      (QCheck2.Gen.quad gen_el gen_el gen_el gen_el)
      (fun (a, b, c, d) ->
        (* Lazy sums are only ever consumed by mul/sqr; compare that
           whole pattern against the strict path. *)
        let lazy_prod = Fp.mul fp (Fp.add_lazy fp a b) (Fp.sub_lazy fp c d) in
        let strict_prod = Fp.mul fp (Fp.add fp a b) (Fp.sub fp c d) in
        let lazy_sqr = Fp.sqr fp (Fp.add_lazy fp a b) in
        let strict_sqr = Fp.sqr fp (Fp.add fp a b) in
        Fp.equal lazy_prod strict_prod && Fp.equal lazy_sqr strict_sqr);
  ]

let property_tests =
  let open Util in
  [
    qcheck "fp add/mul distributive" (QCheck2.Gen.triple gen_el gen_el gen_el)
      (fun (a, b, c) ->
        Fp.equal (Fp.mul fp a (Fp.add fp b c))
          (Fp.add fp (Fp.mul fp a b) (Fp.mul fp a c)));
    qcheck "fp inverse law" gen_el (fun a ->
        Fp.is_zero a || Fp.equal (Fp.one fp) (Fp.mul fp a (Fp.inv fp a)));
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
        Fp2.is_zero x || Fp2.equal (Fp2.one fp) (Fp2.mul fp x (fp2_inv x)));
    qcheck "fp2 norm = x * conj(x)" gen_el2 (fun x ->
        Fp2.equal
          (Fp2.make (Fp2.norm fp x) (Fp.zero fp))
          (Fp2.mul fp x (fp2_conj x)));
  ]

(* The Montgomery-resident field against canonical naturals reduced
   by division: F_p through [Reference.Nat_mod] and [Nat.inv_mod], and
   schoolbook F_p² through [Reference.Nat2].  [of_nat] enters the
   Montgomery domain and [to_nat] leaves it.  "= Modular" names the
   Barrett oracle the case was written against. *)
let mont_tests =
  let open Util in
  [
    qcheck "fp mont enter/leave round trip"
      QCheck2.Gen.(string_size ~gen:char (int_range 0 12))
      (fun bytes ->
        let x = Nat.of_bytes_be bytes in
        Nat.equal (to_nat (Fp.of_nat fp x)) (Nat.rem x p));
    qcheck "fp mul/add/sub/sqr/inv = Modular"
      (QCheck2.Gen.pair gen_el gen_el) (fun (a, b) ->
        let an = to_nat a and bn = to_nat b in
        let mirrors op nat_op = Nat.equal (to_nat op) nat_op in
        let module N = Reference.Nat_mod in
        mirrors (Fp.mul fp a b) (N.mul p an bn)
        && mirrors (Fp.add fp a b) (N.add p an bn)
        && mirrors (Fp.sub fp a b) (N.sub p an bn)
        && mirrors (Fp.sqr fp a) (N.mul p an an)
        && (Fp.is_zero a || mirrors (Fp.inv fp a) (Nat.inv_mod an p)));
    qcheck "fp2 mul/sqr/conj/inv/pow = Nat2"
      (QCheck2.Gen.pair gen_el2 gen_el2) (fun (x, y) ->
        let module N = Reference.Nat2 in
        let xn = N.of_fp2 fp x and yn = N.of_fp2 fp y in
        let mirrors op nat_op = Fp2.equal op (N.to_fp2 fp nat_op) in
        mirrors (Fp2.mul fp x y) (N.mul p xn yn)
        && mirrors (Fp2.sqr fp x) (N.mul p xn xn)
        && mirrors (Fp2.conj fp x) (N.conj p xn)
        && mirrors (Fp2.pow fp x (Nat.of_int 13)) (N.pow p xn (Nat.of_int 13))
        && (Fp2.is_zero x || mirrors (Fp2.inv fp x) (N.inv p xn)));
    case "fp mont constants and of_int" (fun () ->
        check nat "one" Nat.one (to_nat (Fp.one fp));
        check nat "zero" Nat.zero (to_nat (Fp.zero fp));
        check nat "of_int -1" (Nat.sub p Nat.one) (to_nat (Fp.of_int fp (-1)));
        check Alcotest.bool "is_zero" true (Fp.is_zero (Fp.zero fp));
        check Alcotest.bool "equal" true (Fp.equal (Fp.one fp) (Fp.of_int fp 1)));
  ]

(* The Nat boundary on the pairing primes.  [of_nat] of a value below
   p is one REDC by R² mod p; it must give the image a·R mod p that two
   divisions gave before, limb for limb. *)
let boundary_tests =
  let open Util in
  [
    case "of_nat = double-Nat.rem image, to_nat = x mod p (toy, small, mid)"
      (fun () ->
        List.iter
          (fun (name, prm) ->
            let p = (Lazy.force prm).Sc_pairing.Params.p in
            let fp = Fp.create p in
            let r_bits = Array.length (Nat.to_limbs p) * Nat.base_bits in
            let image x = Nat.rem (Nat.shift_left (Nat.rem x p) r_bits) p in
            let bs = fresh_bs ("fp-boundary/" ^ name) in
            let values =
              [ Nat.zero; Nat.one; Nat.sub p Nat.one; p;
                Nat.add (Nat.mul Nat.two p) (Nat.of_int 3) ]
              @ List.init 4 (fun _ -> Nat.random_below ~bytes_source:bs p)
              @ List.init 4 (fun _ -> Nat.random_below ~bytes_source:bs (Nat.mul p p))
            in
            List.iter
              (fun x ->
                let e = Fp.of_nat fp x in
                let limbs = (e :> int array) in
                check Alcotest.int (name ^ " width") (Array.length (Nat.to_limbs p))
                  (Array.length limbs);
                check nat (name ^ " aR mod p") (image x) (Nat.of_limbs limbs);
                check nat (name ^ " round trip") (Nat.rem x p) (Fp.to_nat fp e))
              values)
          Sc_pairing.Params.presets);
  ]

let suite =
  unit_tests @ batch_and_lazy_tests @ property_tests @ mont_tests @ boundary_tests
