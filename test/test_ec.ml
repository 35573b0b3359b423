open Sc_bignum
open Sc_field
open Sc_ec

(* Small curve with known structure: y² = x³ + x over F_23 (23 = 3 mod
   4, supersingular, #E = 24), plus the toy pairing curve for scale. *)
let p23 = Fp.create (Nat.of_int 23)
let c23 = Curve.create p23

let point = Util.point

let all_points c fp pmax =
  (* Brute-force enumeration of an affine curve over a tiny field. *)
  let pts = ref [ Curve.Infinity ] in
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
    case "Fp.create rejects an even modulus" (fun () ->
        (* y² = x³ + x has discriminant −64: singular in characteristic
           2 only, whose field has no Montgomery form and so no [Fp]. *)
        List.iter
          (fun m ->
            Alcotest.check_raises (Printf.sprintf "F_%d" m)
              (Invalid_argument "Montgomery.create: modulus must be odd and >= 3")
              (fun () -> ignore (Fp.create (Nat.of_int m))))
          [ 2; 4; 24 ]);
    case "group order of y^2 = x^3 + x over F_23 is 24" (fun () ->
        Alcotest.(check int) "order" 24 (List.length (all_points c23 p23 23)));
    case "every point has order dividing 24" (fun () ->
        List.iter
          (fun pt -> Alcotest.(check point) "24P = O" Curve.Infinity
              (Curve.mul c23 (Nat.of_int 24) pt))
          (all_points c23 p23 23));
    case "identity laws" (fun () ->
        let pt = Curve.Affine (Fp.of_int p23 9, Fp.of_int p23 5) in
        Alcotest.(check bool) "on curve" true (Curve.on_curve c23 pt);
        Alcotest.(check point) "P + O" pt (Reference.add p23 pt Curve.Infinity);
        Alcotest.(check point) "O + P" pt (Reference.add p23 Curve.Infinity pt);
        Alcotest.(check point) "P - P" Curve.Infinity
          (Reference.add p23 pt (Curve.neg c23 pt)));
    case "doubling point with y=0 gives infinity" (fun () ->
        (* (0,0) is a 2-torsion point of y² = x³ + x. *)
        let two_torsion = Curve.Affine (Fp.zero p23, Fp.zero p23) in
        Alcotest.(check bool) "on curve" true (Curve.on_curve c23 two_torsion);
        Alcotest.(check point) "2P = O" Curve.Infinity
          (Reference.add p23 two_torsion two_torsion));
    case "scalar multiplication matches repeated addition" (fun () ->
        let pt = Curve.Affine (Fp.of_int p23 9, Fp.of_int p23 5) in
        let rec rep k acc = if k = 0 then acc else rep (k - 1) (Reference.add p23 acc pt) in
        for k = 0 to 30 do
          Alcotest.(check point)
            (Printf.sprintf "%dP" k)
            (rep k Curve.Infinity)
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
        Alcotest.(check (option point)) "infinity" (Some Curve.Infinity)
          (Curve.of_bytes c (Curve.to_bytes c Curve.Infinity)));
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
  let curve = prm.Sc_pairing.Params.curve and fp = prm.Sc_pairing.Params.fp in
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
        Alcotest.(check point) "zero scalar" Curve.Infinity
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
        Alcotest.(check point) "q·G" Curve.Infinity got.(2);
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
                  (Reference.mul_naive p23 (Nat.of_int k) pt) r)
              (Curve.mul_precomp_batch c23 pc ks))
          (all_points c23 p23 23));
    case "fused U + k·B = Curve.add U (mul_precomp k), O and doubling included"
      (fun () ->
        (* Mixed bases in one batch, start points with and without a
           cofactor component, and the two cases the comb's mixed
           addition must catch: U = −k·B (sum O) and U = k·B
           (doubling). *)
        let bs = Util.fresh_bs "pc-fused" in
        let h = Curve.random curve ~bytes_source:bs in
        let pcs = [| Curve.precompute curve ~bits:(Nat.bit_length q) g;
                     Curve.precompute curve ~bits:(Nat.bit_length q) h |] in
        let bases = [| g; h |] in
        let rows =
          List.concat
            (List.init 8 (fun i ->
                 let b = i mod 2 in
                 let k = Sc_pairing.Params.random_scalar prm ~bytes_source:bs in
                 let kb = Curve.mul curve k bases.(b) in
                 [
                   Curve.random curve ~bytes_source:bs, b, k;
                   Curve.mul curve (Nat.of_bytes_be (bs 8)) g, b, k;
                   Curve.neg curve kb, b, k;
                   kb, b, k;
                   Curve.Infinity, b, k;
                   Curve.random curve ~bytes_source:bs, b, Nat.zero;
                 ]))
          (* A one-window scalar: the comb's only addition meets U
             itself, or its negation. *)
          @ (let five = Nat.of_int 5 in
             let p5 = Curve.mul curve five g in
             [ p5, 0, five; Curve.neg curve p5, 0, five ])
        in
        let got =
          Curve.add_mul_precomp_batch curve
            (Array.of_list (List.map (fun (u, b, k) -> u, pcs.(b), k) rows))
        in
        List.iteri
          (fun i (u, b, k) ->
            Alcotest.(check point) (Printf.sprintf "row %d" i)
              (Reference.add fp u (Curve.mul_precomp curve pcs.(b) k))
              got.(i))
          rows;
        Alcotest.(check point) "U = -k·B gives O" Curve.Infinity got.(2);
        Alcotest.check_raises "one scalar out of range"
          (Invalid_argument "Curve.mul_precomp: scalar exceeds precomputed range")
          (fun () ->
            ignore
              (Curve.add_mul_precomp_batch curve
                 [| g, pcs.(0), Nat.shift_left Nat.one (Nat.bit_length q) |])));
    case "fused U + k·P on every pair of points of F_23" (fun () ->
        let pts = all_points c23 p23 23 in
        List.iter
          (fun base ->
            let pc = Curve.precompute c23 ~bits:5 base in
            let rows =
              Array.of_list
                (List.concat_map
                   (fun u -> List.init 25 (fun k -> u, pc, Nat.of_int k))
                   pts)
            in
            Array.iteri
              (fun i r ->
                let u, _, k = rows.(i) in
                Alcotest.(check point) (Printf.sprintf "row %d" i)
                  (Reference.add p23 u (Reference.mul_naive p23 k base)) r)
              (Curve.add_mul_precomp_batch c23 rows))
          pts);
    case "msm ~fixed = msm plus the fixed-base multiples" (fun () ->
        let bs = Util.fresh_bs "msm-fixed" in
        let h = Curve.random curve ~bytes_source:bs in
        let pc_g = Curve.precompute curve ~bits:(Nat.bit_length q) g in
        let pc_h = Curve.precompute curve ~bits:(Nat.bit_length q) h in
        let scalar () = Sc_pairing.Params.random_scalar prm ~bytes_source:bs in
        let sum terms fixed =
          List.fold_left
            (fun acc (pc, k) -> Reference.add fp acc (Curve.mul_precomp curve pc k))
            (Curve.msm curve terms) fixed
        in
        for i = 0 to 5 do
          let terms =
            List.init i (fun _ ->
                Nat.of_bytes_be (bs 8), Curve.random curve ~bytes_source:bs)
          in
          let fixed = [ pc_g, scalar (); pc_h, scalar () ] in
          Alcotest.(check point) (Printf.sprintf "%d terms" i)
            (sum terms fixed) (Curve.msm curve ~fixed terms)
        done;
        (* The fixed part cancels the ladder's: the sum is O. *)
        let k = scalar () in
        Alcotest.(check point) "cancelling" Curve.Infinity
          (Curve.msm curve ~fixed:[ pc_g, k ]
             [ Nat.sub q Nat.one, Curve.mul curve k g ]);
        Alcotest.(check point) "fixed only" (Curve.mul curve k g)
          (Curve.msm curve ~fixed:[ pc_g, k ] []));
    case "Params.mul_g equals Curve.mul on the generator" (fun () ->
        let bs = Util.fresh_bs "mulg" in
        for _ = 1 to 15 do
          let s = Sc_pairing.Params.random_scalar prm ~bytes_source:bs in
          if not (Util.point_equal (Sc_pairing.Params.mul_g prm s) (Curve.mul curve s g))
          then Alcotest.fail "mismatch"
        done);
  ]

(* The signed comb recodes each nibble plus the carry from below into
   a digit in [−8, 7], and the last carry into one extra window.  These
   scalars put the carry everywhere: all nibbles 0xF (2^bits − 1
   carries into the extra window), all 0x8 (every digit −8), 0x7 and
   0x8 alternating (the carry flips a 7 into −8 and back), and q − 1,
   1 and 0.  Every entry point of the comb against the ladder. *)
let signed_comb_tests =
  let open Util in
  let carry_heavy name prm =
    case (Printf.sprintf "signed comb, %s: carry-heavy scalars = ladder" name)
      (fun () ->
        let curve = prm.Sc_pairing.Params.curve and fp = prm.Sc_pairing.Params.fp in
        let q = prm.Sc_pairing.Params.q in
        let bits = Nat.bit_length q in
        let n = bits / 4 in
        let bs = Util.fresh_bs ("signed-comb-" ^ name) in
        (* A base off the order-q subgroup, so no multiple wraps to a
           shorter scalar. *)
        let base = Curve.random curve ~bytes_source:bs in
        let pc = Curve.precompute curve ~bits base in
        let repeat unit len =
          Util.nat_of_hex
            (String.init len (fun i -> unit.[i mod String.length unit]))
        in
        let ks =
          Array.of_list
            (Nat.sub (Nat.shift_left Nat.one bits) Nat.one
            :: Nat.sub q Nat.one :: Nat.one :: Nat.zero
            :: List.concat_map
                 (fun unit -> List.map (repeat unit) [ 1; 2; n - 1; n ])
                 [ "f"; "8"; "78"; "87" ])
        in
        let expected = Array.map (fun k -> Curve.mul curve k base) ks in
        Array.iteri
          (fun i k ->
            Alcotest.(check point) (Printf.sprintf "mul_precomp %d" i)
              expected.(i) (Curve.mul_precomp curve pc k))
          ks;
        Array.iteri
          (fun i r ->
            Alcotest.(check point) (Printf.sprintf "mul_precomp_batch %d" i)
              expected.(i) r)
          (Curve.mul_precomp_batch curve pc ks);
        (* Start points met by the first, negative digit: U = ±B with
           k = 0xF (digit −1) and U = ±8·B with k = 8 (digit −8) make
           that mixed addition a doubling or O. *)
        let rows =
          Array.append
            (Array.map (fun k -> Curve.random curve ~bytes_source:bs, k) ks)
            (Array.of_list
               (List.concat_map
                  (fun d ->
                    let db = Curve.mul curve (Nat.of_int d) base in
                    let k = Nat.of_int (16 - d) in
                    [ db, k; Curve.neg curve db, k ])
                  [ 1; 8 ]))
        in
        Array.iteri
          (fun i r ->
            let u, k = rows.(i) in
            Alcotest.(check point) (Printf.sprintf "add_mul_precomp_batch %d" i)
              (Reference.add fp u (Curve.mul curve k base)) r)
          (Curve.add_mul_precomp_batch curve
             (Array.map (fun (u, k) -> u, pc, k) rows));
        let k2 = Nat.of_bytes_be (bs 8) and p2 = Curve.random curve ~bytes_source:bs in
        Array.iteri
          (fun i k ->
            Alcotest.(check point) (Printf.sprintf "msm ~fixed %d" i)
              (Reference.add fp expected.(i) (Curve.mul curve k2 p2))
              (Curve.msm curve ~fixed:[ pc, k ] [ k2, p2 ]);
            Alcotest.(check point) (Printf.sprintf "msm ~fixed only %d" i)
              expected.(i) (Curve.msm curve ~fixed:[ pc, k ] []))
          ks)
  in
  [
    carry_heavy "toy" (Lazy.force Util.toy_params);
    carry_heavy "small" (Lazy.force Sc_pairing.Params.small);
    case "a small comb table holds fewer than 5,000 words" (fun () ->
        (* 8 signed entries per window, not 15 unsigned ones: about
           4,100 words on small, 7,648 with the unsigned table. *)
        let prm = Lazy.force Sc_pairing.Params.small in
        let pc =
          Curve.precompute prm.Sc_pairing.Params.curve
            ~bits:(Nat.bit_length prm.Sc_pairing.Params.q)
            prm.Sc_pairing.Params.g
        in
        let words = Obj.reachable_words (Obj.repr pc) in
        if words >= 5000 then Alcotest.failf "%d reachable words" words);
  ]

(* The ladder behind Curve.mul and the comb behind Curve.mul_precomp
   against the double-and-add reference, including scalars past the
   group order, points off the order-q subgroup, and the small-order
   points of the F_23 curve: (0, 0), points of order 4 and 8, and the
   scalars where k·P = O or (k+1)·P = O, which the ladder's y recovery
   cannot divide by. *)
let scalar_of_bits bs bits =
  if bits = 1 then Nat.one
  else Nat.add (Nat.shift_left Nat.one (bits - 1)) (Nat.random ~bytes_source:bs ~bits:(bits - 1))

let ladder_tests =
  let open Util in
  let equiv name prm n =
    case name (fun () ->
        let curve = prm.Sc_pairing.Params.curve and fp = prm.Sc_pairing.Params.fp in
        let g = prm.Sc_pairing.Params.g in
        let bs = Util.fresh_bs ("wnaf-" ^ name) in
        for i = 1 to n do
          let a = Sc_pairing.Params.random_scalar prm ~bytes_source:bs in
          let pt = Reference.mul_naive fp a g in
          (* 20 raw bytes: exercises scalars well past q. *)
          let s = Nat.of_bytes_be (bs 20) in
          if
            not
              (Util.point_equal (Curve.mul curve s pt) (Reference.mul_naive fp s pt))
          then Alcotest.failf "mismatch at sample %d" i
        done)
  in
  let off_subgroup name prm n =
    case name (fun () ->
        let curve = prm.Sc_pairing.Params.curve and fp = prm.Sc_pairing.Params.fp in
        let bs = Util.fresh_bs ("ladder-off-" ^ name) in
        for i = 0 to n - 1 do
          let pt = Curve.random curve ~bytes_source:bs in
          let bits = 1 + (i * 37 mod 160) in
          let s = scalar_of_bits bs bits in
          if
            not
              (Util.point_equal (Curve.mul curve s pt) (Reference.mul_naive fp s pt))
          then Alcotest.failf "mismatch at a %d-bit scalar" bits
        done)
  in
  let subgroup_oracle name prm n =
    case name (fun () ->
        let curve = prm.Sc_pairing.Params.curve and fp = prm.Sc_pairing.Params.fp in
        let q = prm.Sc_pairing.Params.q in
        let bs = Util.fresh_bs ("in-subgroup-" ^ name) in
        let naive pt =
          Curve.on_curve curve pt && Curve.is_infinity (Reference.mul_naive fp q pt)
        in
        let cases =
          Curve.Infinity
          :: Curve.Affine (Fp.zero fp, Fp.zero fp)
          :: List.concat
               (List.init n (fun _ ->
                    let r = Curve.random curve ~bytes_source:bs in
                    let p =
                      Sc_pairing.Params.mul_g prm
                        (Sc_pairing.Params.random_scalar prm ~bytes_source:bs)
                    in
                    (* q·R has order dividing the cofactor: a torsion
                       shift that leaves p's subgroup component alone. *)
                    [ r; p; Reference.add fp p (Curve.mul curve q r) ]))
        in
        let members = List.filter naive cases in
        if List.length members < n + 1 then Alcotest.fail "too few subgroup points";
        List.iteri
          (fun i pt ->
            Alcotest.(check bool) (Printf.sprintf "case %d" i) (naive pt)
              (Sc_pairing.Params.in_subgroup prm pt))
          cases)
  in
  [
    (* The three "wNAF" names predate the ladder, which replaced the
       windowed-NAF path behind Curve.mul; the cases are unchanged
       apart from k <= 48 on F_23. *)
    equiv "wNAF mul = double-and-add, scalars past q (toy)"
      (Lazy.force Util.toy_params) 25;
    equiv "wNAF mul = double-and-add (small)"
      (Lazy.force Sc_pairing.Params.small) 8;
    case "wNAF agrees on every point of F_23 (small-order fallbacks)"
      (fun () ->
        List.iter
          (fun pt ->
            for k = 0 to 48 do
              Alcotest.(check point)
                (Printf.sprintf "%dP" k)
                (Reference.mul_naive p23 (Nat.of_int k) pt)
                (Curve.mul c23 (Nat.of_int k) pt)
            done)
          (all_points c23 p23 23));
    off_subgroup "ladder mul = double-and-add off the subgroup, 1-160 bits (toy)"
      (Lazy.force Util.toy_params) 24;
    off_subgroup "ladder mul = double-and-add off the subgroup, 1-160 bits (small)"
      (Lazy.force Sc_pairing.Params.small) 10;
    subgroup_oracle "in_subgroup = (q·P = O), torsion-shifted points (toy)"
      (Lazy.force Util.toy_params) 8;
    subgroup_oracle "in_subgroup = (q·P = O), torsion-shifted points (small)"
      (Lazy.force Sc_pairing.Params.small) 4;
    case "ladder allocation depends on the scalar's bit length only" (fun () ->
        (* Three 112-bit scalars: 2^111, whose ladder swaps twice;
           alternating bits, which swap at every step; and all ones.
           A branch on the bits or on the swaps would allocate
           differently. *)
        let prm = Lazy.force Sc_pairing.Params.small in
        let curve = prm.Sc_pairing.Params.curve in
        let pt = Curve.random curve ~bytes_source:(Util.fresh_bs "ladder-words") in
        let words k =
          ignore (Curve.mul curve k pt);
          let before = Gc.minor_words () in
          ignore (Curve.mul curve k pt);
          Gc.minor_words () -. before
        in
        let sparse = Nat.shift_left Nat.one 111 in
        let alternating = Util.nat_of_hex (String.make 28 'a') in
        let dense = Nat.sub (Nat.shift_left Nat.one 112) Nat.one in
        Alcotest.(check (float 0.)) "minor words, alternating" (words sparse)
          (words alternating);
        Alcotest.(check (float 0.)) "minor words, all ones" (words sparse) (words dense);
        Alcotest.(check bool) "longer scalars cost more" true
          (words (Nat.shift_left Nat.one 140) > words dense));
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
               (fun acc (k, pt) -> Reference.add p23 acc (Reference.mul_naive p23 k pt))
               Curve.Infinity terms)
            (Curve.msm c23 terms)
        done);
    case "msm of wide scalars = sum of double-and-add (toy)" (fun () ->
        let prm = Lazy.force Util.toy_params in
        let curve = prm.Sc_pairing.Params.curve and fp = prm.Sc_pairing.Params.fp in
        let bs = Util.fresh_bs "msm-toy" in
        for i = 1 to 10 do
          let terms =
            List.init i (fun _ ->
                Nat.of_bytes_be (bs 12), Curve.random curve ~bytes_source:bs)
          in
          let terms = (Nat.zero, Curve.random curve ~bytes_source:bs) :: (Nat.one, Curve.Infinity) :: terms in
          if
            not
              (Util.point_equal (Curve.msm curve terms)
                 (List.fold_left
                    (fun acc (k, pt) -> Reference.add fp acc (Reference.mul_naive fp k pt))
                    Curve.Infinity terms))
          then Alcotest.failf "mismatch at %d terms" i
        done;
        Alcotest.(check point) "empty" Curve.Infinity (Curve.msm curve []));
    case "comb precomp = double-and-add on the generator" (fun () ->
        let prm = Lazy.force Util.toy_params in
        let curve = prm.Sc_pairing.Params.curve and fp = prm.Sc_pairing.Params.fp in
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
                 (Reference.mul_naive fp s g))
          then Alcotest.fail "mismatch"
        done);
  ]

let property_tests =
  let open Util in
  let prm = Lazy.force Util.toy_params in
  let curve = prm.Sc_pairing.Params.curve and fp = prm.Sc_pairing.Params.fp in
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
          (Reference.add fp (Curve.mul curve a g) (Curve.mul curve b g)));
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

let suite = unit_tests @ precomp_tests @ ladder_tests @ property_tests @ signed_comb_tests
