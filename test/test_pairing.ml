open Sc_bignum
open Sc_ec
module Params = Sc_pairing.Params
module Tate = Sc_pairing.Tate
module Hash_g1 = Sc_pairing.Hash_g1

let prm = Lazy.force Util.toy_params
let g = prm.Params.g
let bs = Util.fresh_bs "pairing-tests"
let gt = Alcotest.testable Util.pp_fp2 Tate.gt_equal

let gen_scalar =
  let open QCheck2.Gen in
  let* bytes = string_size ~gen:char (return 16) in
  return (Nat.add Nat.one (Nat.rem (Nat.of_bytes_be bytes) (Nat.sub prm.Params.q Nat.two)))

let unit_tests =
  let open Util in
  [
    case "parameter structure" (fun () ->
        check Alcotest.bool "p = 3 mod 4" true (Nat.rem_int prm.Params.p 4 = 3);
        check Alcotest.bool "p+1 = c*q" true
          (Nat.equal (Nat.add prm.Params.p Nat.one)
             (Nat.mul prm.Params.cofactor prm.Params.q));
        check Alcotest.bool "generator in subgroup" true
          (Params.in_subgroup prm g));
    case "non-degeneracy: e(G,G) != 1" (fun () ->
        check Alcotest.bool "nondegen" false
          (Tate.gt_is_one (Tate.pairing prm g g)));
    case "pairing with infinity is 1" (fun () ->
        check gt "e(O,G)" Tate.gt_one (Tate.pairing prm Curve.infinity g);
        check gt "e(G,O)" Tate.gt_one (Tate.pairing prm g Curve.infinity));
    case "gt element has order q" (fun () ->
        let e = Tate.pairing prm g g in
        check gt "e^q = 1" Tate.gt_one (Tate.gt_pow prm e prm.Params.q);
        (* and not smaller obvious order *)
        check Alcotest.bool "e^2 != 1" false
          (Tate.gt_is_one (Tate.gt_pow prm e Nat.two)));
    case "symmetry: e(aG, bG) = e(bG, aG)" (fun () ->
        let a = Params.random_scalar prm ~bytes_source:bs in
        let b = Params.random_scalar prm ~bytes_source:bs in
        let pa = Curve.mul prm.Params.curve a g in
        let pb = Curve.mul prm.Params.curve b g in
        check gt "symmetric" (Tate.pairing prm pa pb) (Tate.pairing prm pb pa));
    case "known bilinearity identity e(2G,3G) = e(G,G)^6" (fun () ->
        let p2 = Curve.mul prm.Params.curve Nat.two g in
        let p3 = Curve.mul prm.Params.curve (Nat.of_int 3) g in
        check gt "2*3"
          (Tate.gt_pow prm (Tate.pairing prm g g) (Nat.of_int 6))
          (Tate.pairing prm p2 p3));
    case "gt inverse by conjugation" (fun () ->
        let e = Tate.pairing prm g g in
        check gt "e * conj(e) = 1" Tate.gt_one (Tate.gt_mul prm e (Tate.gt_inv prm e)));
    case "gt serialization round trip" (fun () ->
        let e = Tate.pairing prm g g in
        match Tate.gt_of_bytes prm (Tate.gt_to_bytes prm e) with
        | Some e' -> check gt "round trip" e e'
        | None -> Alcotest.fail "decode failed");
    case "gt_of_bytes rejects wrong length" (fun () ->
        check Alcotest.bool "short rejected" true
          (Tate.gt_of_bytes prm "abc" = None));
    case "hash_to_point deterministic, in subgroup, distinct" (fun () ->
        let h1 = Hash_g1.hash_to_point prm "msg-1" in
        let h1' = Hash_g1.hash_to_point prm "msg-1" in
        let h2 = Hash_g1.hash_to_point prm "msg-2" in
        check Alcotest.bool "deterministic" true (Util.point_equal h1 h1');
        check Alcotest.bool "distinct" false (Util.point_equal h1 h2);
        check Alcotest.bool "subgroup" true (Params.in_subgroup prm h1);
        check Alcotest.bool "not infinity" false (Curve.is_infinity h1));
    case "hash_to_scalar lands in [1, q)" (fun () ->
        for i = 0 to 30 do
          let s = Hash_g1.hash_to_scalar prm (string_of_int i) in
          if Nat.is_zero s || Nat.compare s prm.Params.q >= 0
          then Alcotest.fail "out of range"
        done);
    case "pairing of hashed points is non-degenerate" (fun () ->
        let h1 = Hash_g1.hash_to_point prm "a" in
        let h2 = Hash_g1.hash_to_point prm "b" in
        check Alcotest.bool "nontrivial" false
          (Tate.gt_is_one (Tate.pairing prm h1 h2)));
    case "pairing counter increments" (fun () ->
        Tate.reset_pairing_count ();
        ignore (Tate.pairing prm g g);
        ignore (Tate.pairing prm g g);
        check Alcotest.int "2 pairings" 2 (Tate.pairings_performed ()));
    case "generate with explicit bits_p" (fun () ->
        let drbg = Sc_hash.Drbg.create ~seed:"gen-test" in
        let p =
          Params.generate ~bits_p:96 ~bits_q:48
            ~bytes_source:(Sc_hash.Drbg.bytes_source drbg) ()
        in
        check Alcotest.int "p bits" 96 (Nat.bit_length p.Params.p);
        check Alcotest.int "q bits" 48 (Nat.bit_length p.Params.q);
        check Alcotest.bool "pairing works" false
          (Tate.gt_is_one (Tate.pairing p p.Params.g p.Params.g)));
    case "projective Miller loop matches affine reference" (fun () ->
        for i = 1 to 8 do
          let a = Params.random_scalar prm ~bytes_source:bs in
          let b = Params.random_scalar prm ~bytes_source:bs in
          let pa = Curve.mul prm.Params.curve a g in
          let pb = Curve.mul prm.Params.curve b g in
          if
            not
              (Tate.gt_equal (Tate.pairing prm pa pb)
                 (Reference.pairing_affine prm pa pb))
          then Alcotest.failf "mismatch at sample %d" i
        done;
        check gt "also at the generator" (Tate.pairing prm g g)
          (Reference.pairing_affine prm g g));
    case "of_hex validates structure" (fun () ->
        Alcotest.check_raises "bad cofactor"
          (Invalid_argument "Params: p + 1 <> cofactor * q") (fun () ->
            ignore
              (Params.of_hex ~p:(Nat.to_hex prm.Params.p)
                 ~q:(Nat.to_hex prm.Params.q) ~cofactor:"5" ~gx:"1" ~gy:"1")));
  ]

(* The Montgomery-domain projective hot path against the affine
   Barrett-domain oracle, on both parameter sets. *)
let cross_validation_tests =
  let open Util in
  let cross_check name prm n =
    case name (fun () ->
        let bs = fresh_bs ("cross-" ^ name) in
        let g = prm.Params.g in
        for i = 1 to n do
          let a = Params.random_scalar prm ~bytes_source:bs in
          let b = Params.random_scalar prm ~bytes_source:bs in
          let pa = Curve.mul prm.Params.curve a g in
          let pb = Curve.mul prm.Params.curve b g in
          if
            not
              (Tate.gt_equal (Tate.pairing prm pa pb)
                 (Reference.pairing_affine prm pa pb))
          then Alcotest.failf "mismatch at sample %d" i
        done)
  in
  [
    cross_check "montgomery projective = affine oracle, 50 pairs (toy)" prm 50;
    cross_check "montgomery projective = affine oracle, 50 pairs (small)"
      (Lazy.force Params.small) 50;
  ]

let multi_pairing_tests =
  let open Util in
  [
    case "multi_pairing equals the product of pairings" (fun () ->
        let pairs =
          List.init 4 (fun _ ->
              let a = Params.random_scalar prm ~bytes_source:bs in
              let b = Params.random_scalar prm ~bytes_source:bs in
              ( Curve.mul prm.Params.curve a g,
                Curve.mul prm.Params.curve b g ))
        in
        let product =
          List.fold_left
            (fun acc (p, q) -> Tate.gt_mul prm acc (Tate.pairing prm p q))
            Tate.gt_one pairs
        in
        check gt "product" product (Tate.multi_pairing prm pairs));
    case "multi_pairing bilinearity: [(aP,Q);(P,bQ)] = e(P,Q)^(a+b)" (fun () ->
        let a = Params.random_scalar prm ~bytes_source:bs in
        let b = Params.random_scalar prm ~bytes_source:bs in
        let p = Curve.mul prm.Params.curve (Nat.of_int 5) g in
        let q = Curve.mul prm.Params.curve (Nat.of_int 7) g in
        let pa = Curve.mul prm.Params.curve a p in
        let qb = Curve.mul prm.Params.curve b q in
        check gt "e(aP,Q)*e(P,bQ)"
          (Tate.gt_pow prm (Tate.pairing prm p q)
             (Nat.rem (Nat.add a b) prm.Params.q))
          (Tate.multi_pairing prm [ pa, q; p, qb ]));
    case "multi_pairing of the empty list is one" (fun () ->
        check gt "empty" Tate.gt_one (Tate.multi_pairing prm []));
    case "multi_pairing skips infinity pairs" (fun () ->
        check gt "with infinity"
          (Tate.pairing prm g g)
          (Tate.multi_pairing prm
             [ g, g; Curve.infinity, g; g, Curve.infinity ]));
    case "multi_pairing counts as one pairing" (fun () ->
        Tate.reset_pairing_count ();
        ignore (Tate.multi_pairing prm [ g, g; g, g; g, g ]);
        check Alcotest.int "one" 1 (Tate.pairings_performed ());
        Tate.reset_pairing_count ();
        ignore (Tate.multi_pairing prm [ Curve.infinity, g ]);
        check Alcotest.int "all-skipped counts zero" 0
          (Tate.pairings_performed ()));
    case "gt_pow counts on pairing.gt_pow, not as a pairing" (fun () ->
        let e = Tate.pairing prm g g in
        let c0 = Sc_telemetry.Telemetry.counter_value "pairing.gt_pow" in
        let p0 = Tate.pairings_performed () in
        ignore (Tate.gt_pow prm e Nat.two);
        ignore (Tate.gt_pow prm e Nat.zero);
        check Alcotest.int "two exponentiations" 2
          (Sc_telemetry.Telemetry.counter_value "pairing.gt_pow" - c0);
        check Alcotest.int "no pairing" p0 (Tate.pairings_performed ()));
    case "gt_multi_exp rejects a non-unitary base" (fun () ->
        let two = Sc_field.Fp2.make (Sc_field.Fp.of_int prm.Params.fp 2) Sc_field.Fp.zero in
        Alcotest.check_raises "raises"
          (Invalid_argument "Tate.gt_multi_exp: base not unitary") (fun () ->
            ignore (Tate.gt_multi_exp prm [ two, Nat.one ])));
    case "gt_inv inverts non-unitary elements too" (fun () ->
        (* 2 + 0i is not unitary; the guarded gt_inv must still return
           a true inverse rather than the conjugate. *)
        let two = Sc_field.Fp2.make (Sc_field.Fp.of_int prm.Params.fp 2) Sc_field.Fp.zero in
        check gt "2 * 2^-1 = 1" Tate.gt_one
          (Tate.gt_mul prm two (Tate.gt_inv prm two)));
  ]

let property_tests =
  let open Util in
  [
    qcheck ~count:15 "bilinearity e(aG,bG) = e(G,G)^(ab)"
      (QCheck2.Gen.pair gen_scalar gen_scalar) (fun (a, b) ->
        let pa = Curve.mul prm.Params.curve a g in
        let pb = Curve.mul prm.Params.curve b g in
        let lhs = Tate.pairing prm pa pb in
        let rhs =
          Tate.gt_pow prm (Tate.pairing prm g g)
            (Nat.rem (Nat.mul a b) prm.Params.q)
        in
        Tate.gt_equal lhs rhs);
    qcheck ~count:15 "left linearity e(aG,Q) = e(G,Q)^a" gen_scalar (fun a ->
        let pa = Curve.mul prm.Params.curve a g in
        let h = Hash_g1.hash_to_point prm "fixed" in
        Tate.gt_equal (Tate.pairing prm pa h)
          (Tate.gt_pow prm (Tate.pairing prm g h) a));
    qcheck ~count:40 "gt_pow (Montgomery) = Fp2.pow (Barrett), any F_p2 element"
      QCheck2.Gen.(
        triple (string_size ~gen:char (return 32))
          (string_size ~gen:char (return 32))
          (string_size ~gen:char (int_range 0 40)))
      (fun (re, im, e) ->
        let module Fp = Sc_field.Fp in
        let module Fp2 = Sc_field.Fp2 in
        let fp = prm.Params.fp in
        let el s = Fp.of_nat fp (Nat.rem (Nat.of_bytes_be s) prm.Params.p) in
        let a = Fp2.make (el re) (el im) in
        let e = Nat.of_bytes_be e in
        Tate.gt_equal (Tate.gt_pow prm a e) (Reference.fp2_pow fp a e));
    qcheck ~count:40 "gt_in_group = unitary and a^q = 1, any F_p2 element"
      QCheck2.Gen.(
        triple (string_size ~gen:char (return 32))
          (string_size ~gen:char (return 32))
          (int_range 0 3))
      (fun (re, im, shape) ->
        let module Fp = Sc_field.Fp in
        let module Fp2 = Sc_field.Fp2 in
        let fp = prm.Params.fp in
        let el s = Fp.of_nat fp (Nat.rem (Nat.of_bytes_be s) prm.Params.p) in
        let a = Fp2.make (el re) (el im) in
        (* Raw, unitary (conj(a)/a), in GT (unitary^cofactor), and GT
           times −1. *)
        let a =
          if Fp2.equal a Reference.fp2_zero || shape = 0 then a
          else
            let u = Fp2.mul fp (Fp2.conj fp a) (Fp2.inv fp a) in
            match shape with
            | 1 -> u
            | 2 -> Reference.fp2_pow fp u prm.Params.cofactor
            | _ ->
              let v = Reference.fp2_pow fp u prm.Params.cofactor in
              Fp2.make (Fp.neg fp v.re) (Fp.neg fp v.im)
        in
        Tate.gt_in_group prm a
        = (Fp.equal (Fp2.norm fp a) Fp.one
          && Tate.gt_is_one (Tate.gt_pow prm a prm.Params.q)));
    qcheck ~count:15 "gt_multi_exp = product of gt_pow"
      QCheck2.Gen.(list_size (int_range 0 6) (pair gen_scalar (string_size ~gen:char (int_range 0 20))))
      (fun terms ->
        let e = Tate.pairing prm g g in
        let terms =
          List.map (fun (a, x) -> Tate.gt_pow prm e a, Nat.of_bytes_be x) terms
        in
        Tate.gt_equal (Tate.gt_multi_exp prm terms)
          (List.fold_left
             (fun acc (b, x) -> Tate.gt_mul prm acc (Tate.gt_pow prm b x))
             Tate.gt_one terms));
    qcheck ~count:15 "gt_pow additive in exponent"
      (QCheck2.Gen.pair gen_scalar gen_scalar) (fun (a, b) ->
        let e = Tate.pairing prm g g in
        Tate.gt_equal
          (Tate.gt_mul prm (Tate.gt_pow prm e a) (Tate.gt_pow prm e b))
          (Tate.gt_pow prm e (Nat.rem (Nat.add a b) prm.Params.q)));
  ]

(* Fixed-base precomputation: replayed line tables against the live
   Miller loop, the hit/miss bookkeeping of the per-Params caches, and
   their behaviour under concurrent forcing from several domains. *)
let precomp_tests =
  let open Util in
  let module Telemetry = Sc_telemetry.Telemetry in
  let equiv name prm n =
    case name (fun () ->
        let bs = fresh_bs ("pairing-precomp-" ^ name) in
        let g = prm.Params.g in
        let pc = Tate.precompute prm g in
        for i = 1 to n do
          let a = Params.random_scalar prm ~bytes_source:bs in
          let pa = Curve.mul prm.Params.curve a g in
          if
            not
              (Tate.gt_equal
                 (Tate.pairing_precomp prm pa pc)
                 (Tate.pairing prm pa g))
          then Alcotest.failf "mismatch at sample %d" i
        done)
  in
  [
    equiv "pairing_precomp = pairing, random first args (toy)" prm 20;
    equiv "pairing_precomp = pairing, random first args (small)"
      (Lazy.force Params.small) 6;
    case "pairing_precomp with infinity argument is 1" (fun () ->
        let pc = Tate.precompute prm g in
        check gt "e(O, g)" Tate.gt_one
          (Tate.pairing_precomp prm Curve.infinity pc));
    case "multi_pairing_precomp equals multi_pairing" (fun () ->
        let terms =
          List.init 4 (fun _ ->
              let a = Params.random_scalar prm ~bytes_source:bs in
              let b = Params.random_scalar prm ~bytes_source:bs in
              ( Curve.mul prm.Params.curve a g,
                Curve.mul prm.Params.curve b g ))
        in
        check gt "product"
          (Tate.multi_pairing prm terms)
          (Tate.multi_pairing_precomp prm
             (List.map (fun (x, y) -> x, Tate.precomp_for prm y) terms)));
    case "precomp caches count one miss then hits" (fun () ->
        let bs = fresh_bs "precomp-counters" in
        let fresh =
          Curve.mul prm.Params.curve
            (Params.random_scalar prm ~bytes_source:bs)
            g
        in
        let h0 = Telemetry.counter_value "pairing.precomp.hit" in
        let m0 = Telemetry.counter_value "pairing.precomp.miss" in
        let pc1 = Tate.precomp_for prm fresh in
        let pc2 = Tate.precomp_for prm fresh in
        check Alcotest.int "one miss"
          (m0 + 1)
          (Telemetry.counter_value "pairing.precomp.miss");
        check Alcotest.int "one hit"
          (h0 + 1)
          (Telemetry.counter_value "pairing.precomp.hit");
        check Alcotest.bool "hit returns the cached table" true (pc1 == pc2));
    case "pairing_precomp rejects tables from another parameter set"
      (fun () ->
        let small = Lazy.force Params.small in
        let pc = Tate.precompute prm g in
        Alcotest.check_raises "mismatch"
          (Invalid_argument
             "Tate.pairing_precomp: precomp from a different parameter set")
          (fun () ->
            ignore (Tate.pairing_precomp small small.Params.g pc)));
    case "precomp_for caches are domain-race safe" (fun () ->
        let bs = fresh_bs "precomp-race" in
        let pts =
          List.init 6 (fun _ ->
              Curve.mul prm.Params.curve
                (Params.random_scalar prm ~bytes_source:bs)
                g)
        in
        let m0 = Telemetry.counter_value "pairing.precomp.miss" in
        let work () =
          List.map
            (fun pt -> Sc_pairing.Params.precomp_for prm pt, Tate.precomp_for prm pt)
            pts
        in
        let others = List.init 3 (fun _ -> Domain.spawn work) in
        let mine = work () in
        let results = mine :: List.map Domain.join others in
        List.iter
          (fun r ->
            List.iter2
              (fun (c1, l1) (c2, l2) ->
                check Alcotest.bool "same comb table" true (c1 == c2);
                check Alcotest.bool "same line table" true (l1 == l2))
              mine r)
          results;
        (* Double-check locking: each point computed exactly once per
           cache, no matter how many domains raced on it. *)
        check Alcotest.int "each point computed once per cache"
          (2 * List.length pts)
          (Telemetry.counter_value "pairing.precomp.miss" - m0));
  ]

(* The signer's fixed-base GT comb against square-and-multiply, on both
   preset sizes: random exponents below q, the extremes, and the
   exponents whose set bit sits at the bottom or top of a comb row. *)
let comb_tests =
  let open Util in
  let module Fp = Sc_field.Fp in
  let module Fp2 = Sc_field.Fp2 in
  List.concat_map
    (fun (name, params) ->
      let prm = Lazy.force params in
      let q = prm.Params.q in
      let cols = (Nat.bit_length q + 3) / 4 in
      let pow2 i = Nat.shift_left Nat.one i in
      let agrees a e =
        Tate.gt_equal (Tate.gt_comb_exp prm (Tate.gt_comb prm a) e) (Tate.gt_pow prm a e)
      in
      let base = Tate.pairing prm prm.Params.g (Hash_g1.hash_to_point prm "comb") in
      [
        qcheck ~count:20 ("gt_comb_exp = gt_pow, random e < q (" ^ name ^ ")")
          QCheck2.Gen.(
            pair
              (pair (string_size ~gen:char (return 32)) (string_size ~gen:char (return 32)))
              (string_size ~gen:char (return 32)))
          (fun ((re, im), e) ->
            let el s = Fp.of_nat prm.Params.fp (Nat.of_bytes_be s) in
            agrees (Fp2.make (el re) (el im)) (Nat.rem (Nat.of_bytes_be e) q)
            && agrees base (Nat.rem (Nat.of_bytes_be e) q));
        case ("gt_comb_exp = gt_pow at 0, 1, q-1 and every row edge (" ^ name ^ ")")
          (fun () ->
            let edges =
              [ Nat.zero; Nat.one; Nat.sub q Nat.one; Nat.sub (pow2 (4 * cols)) Nat.one ]
              @ List.concat_map
                  (fun k -> [ pow2 (k * cols); pow2 ((k * cols) + cols - 1) ])
                  [ 0; 1; 2; 3 ]
            in
            List.iter
              (fun e -> check Alcotest.bool (Nat.to_hex e) true (agrees base e))
              edges;
            Alcotest.check_raises "exponent wider than the table"
              (Invalid_argument "Tate.gt_comb_exp: exponent wider than the comb")
              (fun () ->
                ignore (Tate.gt_comb_exp prm (Tate.gt_comb prm base) (pow2 (4 * cols)))));
      ])
    [ "toy", Params.toy; "small", Params.small ]
  @ [
      case "comb builds and exponentiations count apart from gt_pow" (fun () ->
          let module Telemetry = Sc_telemetry.Telemetry in
          let v = Telemetry.counter_value in
          let b0 = v "pairing.gt_comb_build" and x0 = v "pairing.gt_comb_exp" in
          let g0 = v "pairing.gt_pow" and p0 = Tate.pairings_performed () in
          let comb = Tate.gt_comb prm (Tate.pairing prm g g) in
          let p1 = Tate.pairings_performed () in
          ignore (Tate.gt_comb_exp prm comb Nat.two);
          ignore (Tate.gt_comb_exp prm comb Nat.zero);
          check Alcotest.int "builds" 1 (v "pairing.gt_comb_build" - b0);
          check Alcotest.int "exponentiations" 2 (v "pairing.gt_comb_exp" - x0);
          check Alcotest.int "gt_pow" 0 (v "pairing.gt_pow" - g0);
          check Alcotest.int "no pairing beyond the base" 1 (p1 - p0);
          check Alcotest.int "none after it" p1 (Tate.pairings_performed ()));
    ]

let suite =
  unit_tests @ cross_validation_tests @ multi_pairing_tests @ precomp_tests
  @ property_tests @ comb_tests
