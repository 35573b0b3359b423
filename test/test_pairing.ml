open Sc_bignum
open Sc_ec
module Params = Sc_pairing.Params
module Tate = Sc_pairing.Tate
module Hash_g1 = Sc_pairing.Hash_g1
module Fp2 = Sc_field.Fp2

let prm = Lazy.force Util.toy_params
let g = prm.Params.g
let bs = Util.fresh_bs "pairing-tests"
let gt = Alcotest.testable Util.pp_fp2 Fp2.equal

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
          (Fp2.equal (Tate.gt_one prm) (Tate.pairing prm g g)));
    case "pairing with infinity is 1" (fun () ->
        check gt "e(O,G)" (Tate.gt_one prm) (Tate.pairing prm Curve.Infinity g);
        check gt "e(G,O)" (Tate.gt_one prm) (Tate.pairing prm g Curve.Infinity));
    case "gt element has order q" (fun () ->
        let e = Tate.pairing prm g g in
        check gt "e^q = 1" (Tate.gt_one prm) (Tate.gt_pow prm e prm.Params.q);
        (* and not smaller obvious order *)
        check Alcotest.bool "e^2 != 1" false
          (Fp2.equal (Tate.gt_one prm) (Tate.gt_pow prm e Nat.two)));
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
          (Fp2.equal (Tate.gt_one prm) (Tate.pairing prm h1 h2)));
    case "pairing counter increments" (fun () ->
        let p0 = Tate.pairings_performed () in
        ignore (Tate.pairing prm g g);
        ignore (Tate.pairing prm g g);
        check Alcotest.int "2 pairings" 2 (Tate.pairings_performed () - p0));
    case "generate with explicit bits_p" (fun () ->
        let drbg = Sc_hash.Drbg.create ~seed:"gen-test" in
        let p =
          Params.generate ~bits_p:96 ~bits_q:48
            ~bytes_source:(Sc_hash.Drbg.bytes_source drbg) ()
        in
        check Alcotest.int "p bits" 96 (Nat.bit_length p.Params.p);
        check Alcotest.int "q bits" 48 (Nat.bit_length p.Params.q);
        check Alcotest.bool "pairing works" false
          (Fp2.equal (Tate.gt_one p) (Tate.pairing p p.Params.g p.Params.g)));
    case "projective Miller loop matches affine reference" (fun () ->
        for i = 1 to 8 do
          let a = Params.random_scalar prm ~bytes_source:bs in
          let b = Params.random_scalar prm ~bytes_source:bs in
          let pa = Curve.mul prm.Params.curve a g in
          let pb = Curve.mul prm.Params.curve b g in
          if
            not
              (Fp2.equal (Tate.pairing prm pa pb)
                 (Reference.pairing_affine prm pa pb))
          then Alcotest.failf "mismatch at sample %d" i
        done;
        check gt "also at the generator" (Tate.pairing prm g g)
          (Reference.pairing_affine prm g g));
  ]

(* The replayed line tables against the affine Barrett-domain oracle,
   on both parameter sets, in and off the order-q subgroup. *)
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
              (Fp2.equal (Tate.pairing prm pa pb)
                 (Reference.pairing_affine prm pa pb))
          then Alcotest.failf "mismatch at sample %d" i
        done)
  in
  let off_subgroup name prm n =
    case name (fun () ->
        let bs = fresh_bs ("cross-off-subgroup" ^ name) in
        for i = 1 to n do
          let x = Curve.random prm.Params.curve ~bytes_source:bs in
          let y =
            Curve.mul prm.Params.curve
              (Params.random_scalar prm ~bytes_source:bs)
              prm.Params.g
          in
          List.iter
            (fun (p, q) ->
              if
                not
                  (Fp2.equal (Tate.pairing prm p q)
                     (Reference.pairing_affine prm p q))
              then Alcotest.failf "mismatch at sample %d" i)
            [ x, y; y, x ]
        done)
  in
  [
    cross_check "replayed line tables = affine oracle, 50 pairs (toy)" prm 50;
    cross_check "replayed line tables = affine oracle, 50 pairs (small)"
      (Lazy.force Params.small) 50;
    (* A point of E(F_p) off the order-q subgroup makes ê(P, Q) and
       ê(Q, P) differ, so these cases fail if the replay takes the
       wrong argument as its loop base; on the subgroup ê is symmetric
       and no other case can tell.  Small's NAF of q ends in −1 (the
       loop's last chord runs through −P), toy's in +1. *)
    off_subgroup "off-subgroup points = affine oracle, both orders (small)"
      (Lazy.force Params.small) 8;
    off_subgroup "off-subgroup points = affine oracle, both orders (toy)" prm 16;
    case "line tables: one line per NAF digit, bar the vertical ones" (fun () ->
        (* (NAF length − 1) tangents and (NAF weight − 2) chords: the
           top digit starts the loop and the last chord is vertical. *)
        List.iter
          (fun (name, prm, last) ->
            let prm = Lazy.force prm in
            let naf = Nat.wnaf ~width:2 prm.Params.q in
            let len = Array.length naf in
            let weight = Array.fold_left (fun w d -> if d <> 0 then w + 1 else w) 0 naf in
            check Alcotest.int (name ^ ": last NAF digit") last naf.(0);
            let pc = Tate.precompute prm prm.Params.g in
            check Alcotest.int (name ^ ": lines") (len - 1 + weight - 2)
              pc.Sc_pairing.Miller.lines;
            check Alcotest.int (name ^ ": entries") (len - 1)
              (Array.length pc.Sc_pairing.Miller.entries);
            let l0 = Sc_telemetry.Telemetry.counter_value "pairing.lines" in
            ignore (Tate.pairing_precomp prm prm.Params.g pc);
            check Alcotest.int (name ^ ": replayed lines") pc.Sc_pairing.Miller.lines
              (Sc_telemetry.Telemetry.counter_value "pairing.lines" - l0))
          [ "toy", Util.toy_params, 1; "small", Params.small, -1; "mid", Params.mid, 1 ]);
  ]

(* The uncached multi-pairing: Π ê(P_i, Q_i) over fresh P_i tables. *)
let multi_pairing prm pairs =
  Tate.multi_pairing_precomp prm
    (List.map (fun (p, q) -> q, Tate.precompute prm p) pairs)

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
            (fun acc (p, q) -> Fp2.mul prm.Params.fp acc (Tate.pairing prm p q))
            (Tate.gt_one prm) pairs
        in
        check gt "product" product (multi_pairing prm pairs));
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
          (multi_pairing prm [ pa, q; p, qb ]));
    case "multi_pairing of the empty list is one" (fun () ->
        check gt "empty" (Tate.gt_one prm) (multi_pairing prm []));
    case "multi_pairing skips infinity pairs" (fun () ->
        check gt "with infinity"
          (Tate.pairing prm g g)
          (multi_pairing prm
             [ g, g; Curve.Infinity, g; g, Curve.Infinity ]));
    case "multi_pairing counts as one pairing" (fun () ->
        let p0 = Tate.pairings_performed () in
        ignore (multi_pairing prm [ g, g; g, g; g, g ]);
        check Alcotest.int "one" 1 (Tate.pairings_performed () - p0);
        let p0 = Tate.pairings_performed () in
        ignore (multi_pairing prm [ Curve.Infinity, g ]);
        check Alcotest.int "all-skipped counts zero" 0
          (Tate.pairings_performed () - p0));
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
        let two = Fp2.make (Sc_field.Fp.of_int prm.Params.fp 2) (Sc_field.Fp.zero prm.Params.fp) in
        Alcotest.check_raises "raises"
          (Invalid_argument "Tate.gt_multi_exp: base not unitary") (fun () ->
            ignore (Tate.gt_multi_exp prm [ two, Nat.one ])));
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
        Fp2.equal lhs rhs);
    qcheck ~count:15 "left linearity e(aG,Q) = e(G,Q)^a" gen_scalar (fun a ->
        let pa = Curve.mul prm.Params.curve a g in
        let h = Hash_g1.hash_to_point prm "fixed" in
        Fp2.equal (Tate.pairing prm pa h)
          (Tate.gt_pow prm (Tate.pairing prm g h) a));
    qcheck ~count:40 "gt_pow (Montgomery) = Fp2.pow (Barrett), any F_p2 element"
      QCheck2.Gen.(
        triple (string_size ~gen:char (return 32))
          (string_size ~gen:char (return 32))
          (string_size ~gen:char (int_range 0 40)))
      (fun (re, im, e) ->
        let module Fp = Sc_field.Fp in
        let fp = prm.Params.fp in
        let el s = Fp.of_nat fp (Nat.rem (Nat.of_bytes_be s) prm.Params.p) in
        let a = Fp2.make (el re) (el im) in
        let e = Nat.of_bytes_be e in
        Fp2.equal (Tate.gt_pow prm a e) (Reference.fp2_pow fp a e));
    qcheck ~count:40 "gt_in_group = unitary and a^q = 1, any F_p2 element"
      QCheck2.Gen.(
        triple (string_size ~gen:char (return 32))
          (string_size ~gen:char (return 32))
          (int_range 0 3))
      (fun (re, im, shape) ->
        let module Fp = Sc_field.Fp in
        let fp = prm.Params.fp in
        let el s = Fp.of_nat fp (Nat.rem (Nat.of_bytes_be s) prm.Params.p) in
        let a = Fp2.make (el re) (el im) in
        (* Raw, unitary (conj(a)/a), in GT (unitary^cofactor), and GT
           times −1. *)
        let a =
          if Fp2.is_zero a || shape = 0 then a
          else
            let u = Fp2.mul fp (Reference.fp2_conj fp a) (Reference.fp2_inv fp a) in
            match shape with
            | 1 -> u
            | 2 -> Reference.fp2_pow fp u prm.Params.cofactor
            | _ ->
              let v = Reference.fp2_pow fp u prm.Params.cofactor in
              Fp2.make (Fp.neg fp v.re) (Fp.neg fp v.im)
        in
        Tate.gt_in_group prm a
        = (Fp.equal (Fp2.norm fp a) (Fp.one fp)
          && Fp2.equal (Tate.gt_one prm) (Tate.gt_pow prm a prm.Params.q)));
    qcheck ~count:15 "gt_multi_exp = product of gt_pow"
      QCheck2.Gen.(list_size (int_range 0 6) (pair gen_scalar (string_size ~gen:char (int_range 0 20))))
      (fun terms ->
        let e = Tate.pairing prm g g in
        let terms =
          List.map (fun (a, x) -> Tate.gt_pow prm e a, Nat.of_bytes_be x) terms
        in
        Fp2.equal (Tate.gt_multi_exp prm terms)
          (List.fold_left
             (fun acc (b, x) -> Fp2.mul prm.Params.fp acc (Tate.gt_pow prm b x))
             (Tate.gt_one prm) terms));
    qcheck ~count:15 "gt_pow additive in exponent"
      (QCheck2.Gen.pair gen_scalar gen_scalar) (fun (a, b) ->
        let e = Tate.pairing prm g g in
        Fp2.equal
          (Fp2.mul prm.Params.fp (Tate.gt_pow prm e a) (Tate.gt_pow prm e b))
          (Tate.gt_pow prm e (Nat.rem (Nat.add a b) prm.Params.q)));
  ]

(* Fixed-base precomputation: a cached table against the uncached
   pairing with its arguments swapped, the hit/miss bookkeeping of the
   per-Params caches, and their behaviour under concurrent forcing
   from several domains. *)
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
              (Fp2.equal
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
        check gt "e(O, g)" (Tate.gt_one prm)
          (Tate.pairing_precomp prm Curve.Infinity pc));
    case "multi_pairing_precomp equals multi_pairing" (fun () ->
        let terms =
          List.init 4 (fun _ ->
              let a = Params.random_scalar prm ~bytes_source:bs in
              let b = Params.random_scalar prm ~bytes_source:bs in
              ( Curve.mul prm.Params.curve a g,
                Curve.mul prm.Params.curve b g ))
        in
        check gt "product"
          (multi_pairing prm terms)
          (Tate.multi_pairing_precomp prm
             (List.map (fun (x, y) -> x, Tate.precomp_for prm y) terms)));
    case "pairing equality checks = gt_equal of the value, counters included"
      (fun () ->
        (* 1-3 terms, finite or with an infinity point or base, against
           the honest product, 1, 0, a random F_p² element (almost
           surely not unitary), a non-unitary multiple of the product
           and the product off by the order-2 unitary element −1. *)
        let module Telemetry = Sc_telemetry.Telemetry in
        let module Fp = Sc_field.Fp in
        let bs = fresh_bs "pairing-equal" in
        let fp = prm.Params.fp and curve = prm.Params.curve in
        let counters =
          [ "pairing.count"; "pairing.single"; "pairing.multi";
            "pairing.multi_terms"; "pairing.final_expo" ]
        in
        let counted f =
          let before = List.map Telemetry.counter_value counters in
          let r = f () in
          r, List.map2 (fun c b -> Telemetry.counter_value c - b) counters before
        in
        let pc_inf = Tate.precompute prm Curve.Infinity in
        let term k =
          let pt () = Curve.random curve ~bytes_source:bs in
          match k mod 4 with
          | 0 -> Curve.Infinity, Tate.precompute prm (pt ())
          | 1 -> pt (), pc_inf
          | _ -> pt (), Tate.precompute prm (pt ())
        in
        let minus_one = Fp2.make (Fp.neg fp (Fp.one fp)) (Fp.zero fp) in
        let targets value =
          [
            "honest", value;
            "one", (Tate.gt_one prm);
            "zero", Fp2.make (Fp.zero fp) (Fp.zero fp);
            ( "random",
              Fp2.make (Fp.random fp ~bytes_source:bs)
                (Fp.random fp ~bytes_source:bs) );
            "non-unitary", Fp2.mul fp value (Fp2.make (Fp.of_int fp 2) (Fp.zero fp));
            "off by torsion", Fp2.mul fp value minus_one;
          ]
        in
        for i = 0 to 23 do
          let n = 1 + (i mod 3) in
          let terms = List.init n (fun j -> term (i + j + (i / 3))) in
          let value, c_value =
            counted (fun () -> Tate.multi_pairing_precomp prm terms)
          in
          List.iter
            (fun (name, t) ->
              let ok, c_ok =
                counted (fun () -> Tate.multi_pairing_precomp_equal prm terms t)
              in
              check Alcotest.bool (Printf.sprintf "%d terms, %s" n name)
                (Fp2.equal value t) ok;
              check Alcotest.(list int)
                (Printf.sprintf "%d terms, %s counters" n name)
                c_value c_ok)
            (targets value);
        done);
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
        Fp2.equal (Tate.gt_comb_exp prm (Tate.gt_comb prm a) e) (Tate.gt_pow prm a e)
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
