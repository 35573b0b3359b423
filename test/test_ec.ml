open Sc_bignum
open Sc_field
open Sc_ec

(* Small curve with known structure: y² = x³ + x over F_23 (23 = 3 mod
   4, supersingular, #E = 24), plus the toy pairing curve for scale. *)
let p23 = Fp.create (Nat.of_int 23)
let c23 = Curve.create p23 ~a:Fp.one ~b:Fp.zero

let point = Util.point

let all_points c fp pmax =
  (* Brute-force enumeration of an affine curve over a tiny field. *)
  let pts = ref [ Curve.infinity ] in
  for x = 0 to pmax - 1 do
    for y = 0 to pmax - 1 do
      let pt = Curve.Affine (Fp.of_int fp x, Fp.of_int fp y) in
      if Curve.on_curve c pt then pts := pt :: !pts
    done
  done;
  !pts

let unit_tests =
  let open Util in
  [
    case "create rejects singular curve" (fun () ->
        Alcotest.check_raises "singular"
          (Invalid_argument "Curve.create: singular curve") (fun () ->
            ignore (Curve.create p23 ~a:Fp.zero ~b:Fp.zero)));
    case "group order of y^2 = x^3 + x over F_23 is 24" (fun () ->
        Alcotest.(check int) "order" 24 (List.length (all_points c23 p23 23)));
    case "every point has order dividing 24" (fun () ->
        List.iter
          (fun pt -> Alcotest.(check point) "24P = O" Curve.infinity
              (Curve.mul c23 (Nat.of_int 24) pt))
          (all_points c23 p23 23));
    case "identity laws" (fun () ->
        let pt = Curve.Affine (Fp.of_int p23 9, Fp.of_int p23 5) in
        Alcotest.(check bool) "on curve" true (Curve.on_curve c23 pt);
        Alcotest.(check point) "P + O" pt (Curve.add c23 pt Curve.infinity);
        Alcotest.(check point) "O + P" pt (Curve.add c23 Curve.infinity pt);
        Alcotest.(check point) "P - P" Curve.infinity
          (Curve.add c23 pt (Curve.neg c23 pt)));
    case "doubling point with y=0 gives infinity" (fun () ->
        (* (0,0) is a 2-torsion point of y² = x³ + x. *)
        let two_torsion = Curve.Affine (Fp.zero, Fp.zero) in
        Alcotest.(check bool) "on curve" true (Curve.on_curve c23 two_torsion);
        Alcotest.(check point) "2P = O" Curve.infinity
          (Curve.add c23 two_torsion two_torsion));
    case "scalar multiplication matches repeated addition" (fun () ->
        let pt = Curve.Affine (Fp.of_int p23 9, Fp.of_int p23 5) in
        let rec rep k acc = if k = 0 then acc else rep (k - 1) (Curve.add c23 acc pt) in
        for k = 0 to 30 do
          Alcotest.(check point)
            (Printf.sprintf "%dP" k)
            (rep k Curve.infinity)
            (Curve.mul c23 (Nat.of_int k) pt)
        done);
    case "negative scalar" (fun () ->
        let pt = Curve.Affine (Fp.of_int p23 9, Fp.of_int p23 5) in
        (* 24P = O on this curve, so 21P = -3P. *)
        Alcotest.(check point) "-3P"
          (Curve.neg c23 (Curve.mul c23 (Nat.of_int 3) pt))
          (Curve.mul c23 (Nat.of_int 21) pt));
    case "serialization round trip" (fun () ->
        let prm = Lazy.force Util.toy_params in
        let g = prm.Sc_pairing.Params.g in
        let c = prm.Sc_pairing.Params.curve in
        Alcotest.(check (option point)) "g" (Some g)
          (Curve.of_bytes c (Curve.to_bytes c g));
        Alcotest.(check (option point)) "infinity" (Some Curve.infinity)
          (Curve.of_bytes c (Curve.to_bytes c Curve.infinity)));
    case "of_bytes rejects off-curve point" (fun () ->
        let prm = Lazy.force Util.toy_params in
        let c = prm.Sc_pairing.Params.curve in
        let n = (Nat.bit_length prm.Sc_pairing.Params.p + 7) / 8 in
        let junk = "\x04" ^ String.make (2 * n) '\x05' in
        Alcotest.(check (option point)) "rejected" None (Curve.of_bytes c junk));
    case "of_bytes rejects wrong length" (fun () ->
        let prm = Lazy.force Util.toy_params in
        let c = prm.Sc_pairing.Params.curve in
        Alcotest.(check (option point)) "short" None (Curve.of_bytes c "\x04\x01"));
    case "lift_x produces on-curve points" (fun () ->
        let found = ref 0 in
        for x = 0 to 22 do
          match Curve.lift_x c23 (Fp.of_int p23 x) with
          | Some pt ->
            incr found;
            Alcotest.(check bool) "on curve" true (Curve.on_curve c23 pt)
          | None -> ()
        done;
        Alcotest.(check bool) "some x lift" true (!found > 5));
    case "random points lie on curve" (fun () ->
        let prm = Lazy.force Util.toy_params in
        let bs = Util.fresh_bs "ec-random" in
        for _ = 1 to 10 do
          let pt = Curve.random prm.Sc_pairing.Params.curve ~bytes_source:bs in
          Alcotest.(check bool) "on curve" true
            (Curve.on_curve prm.Sc_pairing.Params.curve pt)
        done);
  ]

let precomp_tests =
  let open Util in
  let prm = Lazy.force Util.toy_params in
  let curve = prm.Sc_pairing.Params.curve in
  let g = prm.Sc_pairing.Params.g in
  let q = prm.Sc_pairing.Params.q in
  [
    case "precomputed fixed-base matches the ladder" (fun () ->
        let pc = Curve.precompute curve ~bits:(Nat.bit_length q) g in
        let bs = Util.fresh_bs "pc" in
        for _ = 1 to 25 do
          let s = Sc_pairing.Params.random_scalar prm ~bytes_source:bs in
          if not (Util.point_equal (Curve.mul curve s g) (Curve.mul_precomp curve pc s))
          then Alcotest.fail "mismatch"
        done;
        Alcotest.(check point) "zero scalar" Curve.infinity
          (Curve.mul_precomp curve pc Nat.zero));
    case "precomp rejects out-of-range scalars" (fun () ->
        let pc = Curve.precompute curve ~bits:8 g in
        Alcotest.check_raises "too large"
          (Invalid_argument "Curve.mul_precomp: scalar exceeds precomputed range")
          (fun () -> ignore (Curve.mul_precomp curve pc (Nat.of_int 256))));
    case "batched fixed-base multiply = per-scalar multiplies, Infinity included"
      (fun () ->
        let pc = Curve.precompute curve ~bits:(Nat.bit_length q) g in
        let bs = Util.fresh_bs "pc-batch" in
        let ks =
          Array.append
            [| Nat.zero; Nat.one; q; Nat.sub q Nat.one; Nat.zero |]
            (Array.init 11 (fun _ ->
                 Sc_pairing.Params.random_scalar prm ~bytes_source:bs))
        in
        let got = Curve.mul_precomp_batch curve pc ks in
        Array.iteri
          (fun i k ->
            Alcotest.(check point) (Printf.sprintf "scalar %d" i)
              (Curve.mul curve k g) got.(i))
          ks;
        Alcotest.(check point) "q·G" Curve.infinity got.(2);
        Alcotest.(check int) "empty batch" 0
          (Array.length (Curve.mul_precomp_batch curve pc [||]));
        Alcotest.check_raises "one scalar out of range"
          (Invalid_argument "Curve.mul_precomp: scalar exceeds precomputed range")
          (fun () ->
            ignore
              (Curve.mul_precomp_batch curve pc
                 [| Nat.one; Nat.shift_left Nat.one (Nat.bit_length q) |])));
    case "batched fixed-base multiply on every point of F_23" (fun () ->
        (* Small-order bases reach O inside the comb tables and inside
           the batch, which the shared inversion must skip. *)
        let ks = Array.init 30 Nat.of_int in
        List.iter
          (fun pt ->
            let pc = Curve.precompute c23 ~bits:5 pt in
            Array.iteri
              (fun k r ->
                Alcotest.(check point) (Printf.sprintf "%dP" k)
                  (Reference.mul_naive c23 (Nat.of_int k) pt) r)
              (Curve.mul_precomp_batch c23 pc ks))
          (all_points c23 p23 23));
    case "Params.mul_g equals Curve.mul on the generator" (fun () ->
        let bs = Util.fresh_bs "mulg" in
        for _ = 1 to 15 do
          let s = Sc_pairing.Params.random_scalar prm ~bytes_source:bs in
          if not (Util.point_equal (Sc_pairing.Params.mul_g prm s) (Curve.mul curve s g))
          then Alcotest.fail "mismatch"
        done);
  ]

(* The wNAF path behind Curve.mul and the comb behind Curve.mul_precomp
   against the double-and-add reference, including scalars past the
   group order and the small-order points of the F_23 curve that force
   the 2-torsion / mid-chain-infinity fallbacks. *)
let wnaf_tests =
  let open Util in
  let equiv name prm n =
    case name (fun () ->
        let curve = prm.Sc_pairing.Params.curve in
        let g = prm.Sc_pairing.Params.g in
        let bs = Util.fresh_bs ("wnaf-" ^ name) in
        for i = 1 to n do
          let a = Sc_pairing.Params.random_scalar prm ~bytes_source:bs in
          let pt = Reference.mul_naive curve a g in
          (* 20 raw bytes: exercises scalars well past q. *)
          let s = Nat.of_bytes_be (bs 20) in
          if
            not
              (Util.point_equal (Curve.mul curve s pt) (Reference.mul_naive curve s pt))
          then Alcotest.failf "mismatch at sample %d" i
        done)
  in
  [
    equiv "wNAF mul = double-and-add, scalars past q (toy)"
      (Lazy.force Util.toy_params) 25;
    equiv "wNAF mul = double-and-add (small)"
      (Lazy.force Sc_pairing.Params.small) 8;
    case "wNAF agrees on every point of F_23 (small-order fallbacks)"
      (fun () ->
        List.iter
          (fun pt ->
            for k = 0 to 30 do
              Alcotest.(check point)
                (Printf.sprintf "%dP" k)
                (Reference.mul_naive c23 (Nat.of_int k) pt)
                (Curve.mul c23 (Nat.of_int k) pt)
            done)
          (all_points c23 p23 23));
    case "msm = sum of double-and-add terms on every point of F_23"
      (fun () ->
        let pts = Array.of_list (all_points c23 p23 23) in
        let n = Array.length pts in
        for i = 0 to 60 do
          let terms =
            List.init (1 + (i mod 5)) (fun j ->
                Nat.of_int ((i * 7) + (j * 13)), pts.(((i * 5) + (j * 11)) mod n))
          in
          Alcotest.(check point)
            (Printf.sprintf "case %d" i)
            (List.fold_left
               (fun acc (k, pt) -> Curve.add c23 acc (Reference.mul_naive c23 k pt))
               Curve.infinity terms)
            (Curve.msm c23 terms)
        done);
    case "msm of wide scalars = sum of double-and-add (toy)" (fun () ->
        let prm = Lazy.force Util.toy_params in
        let curve = prm.Sc_pairing.Params.curve in
        let bs = Util.fresh_bs "msm-toy" in
        for i = 1 to 10 do
          let terms =
            List.init i (fun _ ->
                Nat.of_bytes_be (bs 12), Curve.random curve ~bytes_source:bs)
          in
          let terms = (Nat.zero, Curve.random curve ~bytes_source:bs) :: (Nat.one, Curve.infinity) :: terms in
          if
            not
              (Util.point_equal (Curve.msm curve terms)
                 (List.fold_left
                    (fun acc (k, pt) -> Curve.add curve acc (Reference.mul_naive curve k pt))
                    Curve.infinity terms))
          then Alcotest.failf "mismatch at %d terms" i
        done;
        Alcotest.(check point) "empty" Curve.infinity (Curve.msm curve []));
    case "comb precomp = double-and-add on the generator" (fun () ->
        let prm = Lazy.force Util.toy_params in
        let curve = prm.Sc_pairing.Params.curve in
        let g = prm.Sc_pairing.Params.g in
        let q = prm.Sc_pairing.Params.q in
        let pc = Curve.precompute curve ~bits:(Nat.bit_length q) g in
        let bs = Util.fresh_bs "comb-naive" in
        for _ = 1 to 20 do
          let s = Sc_pairing.Params.random_scalar prm ~bytes_source:bs in
          if
            not
              (Util.point_equal
                 (Curve.mul_precomp curve pc s)
                 (Reference.mul_naive curve s g))
          then Alcotest.fail "mismatch"
        done);
  ]

let property_tests =
  let open Util in
  let prm = Lazy.force Util.toy_params in
  let curve = prm.Sc_pairing.Params.curve in
  let g = prm.Sc_pairing.Params.g in
  let q = prm.Sc_pairing.Params.q in
  let gen_scalar =
    let open QCheck2.Gen in
    let* bytes = string_size ~gen:char (return 16) in
    return (Nat.rem (Nat.of_bytes_be bytes) q)
  in
  [
    qcheck ~count:30 "(a+b)G = aG + bG" (QCheck2.Gen.pair gen_scalar gen_scalar)
      (fun (a, b) ->
        Util.point_equal
          (Curve.mul curve (Nat.rem (Nat.add a b) q) g)
          (Curve.add curve (Curve.mul curve a g) (Curve.mul curve b g)));
    qcheck ~count:20 "(ab)G = a(bG)" (QCheck2.Gen.pair gen_scalar gen_scalar)
      (fun (a, b) ->
        Util.point_equal
          (Curve.mul curve (Nat.rem (Nat.mul a b) q) g)
          (Curve.mul curve a (Curve.mul curve b g)));
    qcheck ~count:30 "qG = O kills any subgroup point" gen_scalar (fun a ->
        Curve.is_infinity (Curve.mul curve q (Curve.mul curve a g)));
    qcheck ~count:30 "mul result stays on curve" gen_scalar (fun a ->
        Curve.on_curve curve (Curve.mul curve a g));
    qcheck ~count:30 "serialization round trip" gen_scalar (fun a ->
        let pt = Curve.mul curve a g in
        match Curve.of_bytes curve (Curve.to_bytes curve pt) with
        | Some pt' -> Util.point_equal pt pt'
        | None -> false);
  ]

let suite = unit_tests @ precomp_tests @ wnaf_tests @ property_tests
