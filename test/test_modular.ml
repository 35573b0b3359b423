open Sc_bignum

let nat = Alcotest.testable Nat.pp Nat.equal

let gen_mod =
  (* Moduli of assorted widths, always >= 2. *)
  let open QCheck2.Gen in
  let* bits = int_range 2 400 in
  let* bytes = string_size ~gen:char (return ((bits + 7) / 8)) in
  let m = Nat.of_bytes_be bytes in
  return (Nat.add m Nat.two)

let gen_nat_small =
  let open QCheck2.Gen in
  let* bytes = string_size ~gen:char (int_range 0 64) in
  return (Nat.of_bytes_be bytes)

let unit_tests =
  let open Util in
  [
    case "create rejects modulus < 2" (fun () ->
        Alcotest.check_raises "zero" (Invalid_argument "Modular.create: modulus < 2")
          (fun () -> ignore (Modular.create Nat.zero));
        Alcotest.check_raises "one" (Invalid_argument "Modular.create: modulus < 2")
          (fun () -> ignore (Modular.create Nat.one)));
    case "reduce idempotent and below modulus" (fun () ->
        let m = Util.nat_of_decimal "1000003" in
        let ctx = Modular.create m in
        let x = Util.nat_of_decimal "123456789123456789" in
        let r = Modular.reduce ctx x in
        check Alcotest.bool "below" true (Nat.compare r m < 0);
        check nat "idempotent" r (Modular.reduce ctx r));
    case "pow matches naive" (fun () ->
        let m = Nat.of_int 1009 in
        let ctx = Modular.create m in
        let naive b e =
          let rec go acc = function
            | 0 -> acc
            | k -> go (Nat.rem (Nat.mul acc b) m) (k - 1)
          in
          go Nat.one e
        in
        List.iter
          (fun (b, e) ->
            check nat
              (Printf.sprintf "%d^%d" b e)
              (naive (Nat.of_int b) e)
              (Modular.pow ctx (Nat.of_int b) (Nat.of_int e)))
          [ 2, 10; 3, 100; 1008, 57; 17, 0; 0, 5 ]);
    case "fermat little theorem" (fun () ->
        (* a^(p-1) = 1 mod p for prime p. *)
        let p = Util.nat_of_decimal "1000000007" in
        let ctx = Modular.create p in
        List.iter
          (fun a ->
            check nat "fermat" Nat.one
              (Modular.pow ctx (Nat.of_int a) (Nat.sub p Nat.one)))
          [ 2; 3; 65537; 999999999 ]);
    case "inverse times value is one" (fun () ->
        let p = Util.nat_of_decimal "32416190071" in
        let ctx = Modular.create p in
        let a = Util.nat_of_decimal "31415926535" in
        let ai = Modular.inv ctx a in
        check nat "a * a^-1" Nat.one (Modular.mul ctx a ai));
    case "inverse of non-coprime raises" (fun () ->
        let ctx = Modular.create (Nat.of_int 100) in
        Alcotest.check_raises "gcd != 1" Not_found (fun () ->
            ignore (Modular.inv ctx (Nat.of_int 10))));
    case "egcd bezout identity" (fun () ->
        let a = Util.nat_of_decimal "240" and b = Util.nat_of_decimal "46" in
        let g, x, y = Modular.egcd a b in
        check nat "gcd" (Nat.of_int 2) g;
        (* a·x − g = −(b·y) *)
        let ax = Signed.mul (Signed.of_nat a) x
        and by = Signed.mul (Signed.of_nat b) y in
        check Alcotest.int "bezout" 0
          (Signed.sign
             (Signed.sub (Signed.sub ax (Signed.of_nat g))
                (Signed.sub Signed.zero by))));
    case "of_signed maps negatives" (fun () ->
        let ctx = Modular.create (Nat.of_int 7) in
        let minus n = Signed.sub Signed.zero (Signed.of_nat (Nat.of_int n)) in
        check nat "-1 mod 7" (Nat.of_int 6) (Modular.of_signed ctx (minus 1));
        check nat "-15 mod 7" (Nat.of_int 6) (Modular.of_signed ctx (minus 15)))
  ]

let property_tests =
  let open Util in
  let with_ctx = QCheck2.Gen.pair gen_mod (QCheck2.Gen.pair gen_nat_small gen_nat_small) in
  [
    qcheck "barrett reduce = divmod rem" with_ctx (fun (m, (a, b)) ->
        let ctx = Modular.create m in
        let x = Nat.mul (Modular.reduce ctx a) (Modular.reduce ctx b) in
        Nat.equal (Modular.reduce ctx x) (Nat.rem x m));
    qcheck "add/sub inverse" with_ctx (fun (m, (a, b)) ->
        let ctx = Modular.create m in
        let a = Modular.reduce ctx a and b = Modular.reduce ctx b in
        Nat.equal a (Modular.sub ctx (Modular.add ctx a b) b));
    qcheck "neg is additive inverse" (QCheck2.Gen.pair gen_mod gen_nat_small)
      (fun (m, a) ->
        let ctx = Modular.create m in
        let a = Modular.reduce ctx a in
        Nat.is_zero (Modular.add ctx a (Modular.neg ctx a)));
    qcheck "mul homomorphic to Nat.mul" with_ctx (fun (m, (a, b)) ->
        let ctx = Modular.create m in
        Nat.equal
          (Modular.mul ctx (Modular.reduce ctx a) (Modular.reduce ctx b))
          (Nat.rem (Nat.mul a b) m));
    qcheck ~count:60 "pow adds exponents"
      QCheck2.Gen.(triple gen_mod gen_nat_small (pair (int_range 0 60) (int_range 0 60)))
      (fun (m, b, (e1, e2)) ->
        let ctx = Modular.create m in
        let b = Modular.reduce ctx b in
        Nat.equal
          (Modular.mul ctx
             (Modular.pow ctx b (Nat.of_int e1))
             (Modular.pow ctx b (Nat.of_int e2)))
          (Modular.pow ctx b (Nat.of_int (e1 + e2))));
    qcheck ~count:60 "egcd divides both"
      QCheck2.Gen.(pair gen_nat_small gen_nat_small)
      (fun (a, b) ->
        let g, _, _ = Modular.egcd a b in
        (Nat.is_zero a && Nat.is_zero b)
        || (Nat.is_zero (Nat.rem a g) && Nat.is_zero (Nat.rem b g)));
  ]

let gen_odd_mod =
  QCheck2.Gen.map
    (fun m -> if Nat.is_even m then Nat.add m Nat.one else m)
    gen_mod

let montgomery_tests =
  let open Util in
  [
    case "montgomery rejects even or tiny moduli" (fun () ->
        Alcotest.check_raises "even"
          (Invalid_argument "Montgomery.create: modulus must be odd and >= 3")
          (fun () -> ignore (Montgomery.create (Nat.of_int 10)));
        Alcotest.check_raises "one"
          (Invalid_argument "Montgomery.create: modulus must be odd and >= 3")
          (fun () -> ignore (Montgomery.create Nat.one)));
    case "montgomery round trip through the domain" (fun () ->
        let m = Util.nat_of_decimal "1000000007" in
        let ctx = Montgomery.create m in
        List.iter
          (fun v ->
            let v = Nat.of_int v in
            check nat "round trip" (Nat.rem v m)
              (Montgomery.of_mont ctx (Montgomery.to_mont ctx v)))
          [ 0; 1; 999999999; 123456789 ]);
    case "montgomery one is the domain image of 1" (fun () ->
        let m = Util.nat_of_decimal "32416190071" in
        let ctx = Montgomery.create m in
        check nat "one" Nat.one (Montgomery.of_mont ctx (Montgomery.one ctx)));
    case "montgomery pow known values" (fun () ->
        let m = Nat.of_int 1009 in
        let ctx = Montgomery.create m in
        check nat "2^10 mod 1009" (Nat.of_int 15)
          (Montgomery.pow ctx Nat.two (Nat.of_int 10));
        check nat "x^0" Nat.one (Montgomery.pow ctx (Nat.of_int 7) Nat.zero));
  ]

let montgomery_arith_tests =
  let open Util in
  [
    case "montgomery add/sub/neg/double at the edges (0, 1, p-1)" (fun () ->
        let p = Util.nat_of_decimal "1000000007" in
        let pm1 = Nat.sub p Nat.one in
        let ctx = Montgomery.create p in
        let m v = Montgomery.to_mont ctx v in
        let out v = Montgomery.of_mont ctx v in
        check nat "(p-1) + 1 = 0" Nat.zero
          (out (Montgomery.add ctx (m pm1) (m Nat.one)));
        check nat "(p-1) + (p-1) = p-2" (Nat.sub p Nat.two)
          (out (Montgomery.add ctx (m pm1) (m pm1)));
        check nat "0 - 1 = p-1" pm1
          (out (Montgomery.sub ctx (m Nat.zero) (m Nat.one)));
        check nat "neg 0 = 0" Nat.zero (out (Montgomery.neg ctx (m Nat.zero)));
        check nat "neg 1 = p-1" pm1 (out (Montgomery.neg ctx (m Nat.one)));
        check nat "neg (p-1) = 1" Nat.one (out (Montgomery.neg ctx (m pm1)));
        check nat "double (p-1) = p-2" (Nat.sub p Nat.two)
          (out (Montgomery.double ctx (m pm1)));
        check nat "double 0 = 0" Nat.zero
          (out (Montgomery.double ctx (m Nat.zero))));
    case "montgomery of_int, is_zero, equal" (fun () ->
        let ctx = Montgomery.create (Nat.of_int 1009) in
        check nat "of_int" (Nat.of_int 42)
          (Montgomery.of_mont ctx (Montgomery.of_int ctx 42));
        check nat "of_int reduces" (Nat.of_int 1)
          (Montgomery.of_mont ctx (Montgomery.of_int ctx 1010));
        check Alcotest.bool "zero is_zero" true
          (Montgomery.is_zero (Montgomery.zero ctx));
        check Alcotest.bool "one not is_zero" false
          (Montgomery.is_zero (Montgomery.one ctx));
        check Alcotest.bool "equal canonical" true
          (Montgomery.equal (Montgomery.of_int ctx 1010) (Montgomery.of_int ctx 1));
        check Alcotest.bool "distinct" false
          (Montgomery.equal (Montgomery.of_int ctx 1) (Montgomery.of_int ctx 2)));
    case "montgomery inv at the edges and against mul" (fun () ->
        let p = Util.nat_of_decimal "32416190071" in
        let pm1 = Nat.sub p Nat.one in
        let ctx = Montgomery.create p in
        let m v = Montgomery.to_mont ctx v in
        check nat "inv 1 = 1" Nat.one
          (Montgomery.of_mont ctx (Montgomery.inv ctx (m Nat.one)));
        (* p-1 is its own inverse: (p-1)^2 = 1 mod p. *)
        check nat "inv (p-1) = p-1" pm1
          (Montgomery.of_mont ctx (Montgomery.inv ctx (m pm1)));
        let a = m (Util.nat_of_decimal "31415926535") in
        check nat "a * inv a = 1" Nat.one
          (Montgomery.of_mont ctx (Montgomery.mul ctx a (Montgomery.inv ctx a)));
        Alcotest.check_raises "inv 0" Not_found (fun () ->
            ignore (Montgomery.inv ctx (m Nat.zero))));
  ]

let montgomery_property_tests =
  let open Util in
  [
    qcheck ~count:80 "montgomery mul == barrett mul"
      (QCheck2.Gen.triple gen_odd_mod gen_nat_small gen_nat_small)
      (fun (m, a, b) ->
        let mc = Montgomery.create m and mo = Modular.create m in
        Nat.equal
          (Montgomery.of_mont mc
             (Montgomery.mul mc (Montgomery.to_mont mc a) (Montgomery.to_mont mc b)))
          (Modular.mul mo (Modular.reduce mo a) (Modular.reduce mo b)));
    qcheck ~count:40 "montgomery pow == barrett pow"
      (QCheck2.Gen.triple gen_odd_mod gen_nat_small
         (QCheck2.Gen.int_range 0 200))
      (fun (m, b, e) ->
        let mc = Montgomery.create m and mo = Modular.create m in
        Nat.equal (Montgomery.pow mc b (Nat.of_int e))
          (Modular.pow mo b (Nat.of_int e)));
    qcheck ~count:80 "montgomery add/sub/neg/double == barrett"
      (QCheck2.Gen.triple gen_odd_mod gen_nat_small gen_nat_small)
      (fun (m, a, b) ->
        let mc = Montgomery.create m and mo = Modular.create m in
        let am = Montgomery.to_mont mc a and bm = Montgomery.to_mont mc b in
        let ar = Modular.reduce mo a and br = Modular.reduce mo b in
        let out = Montgomery.of_mont mc in
        Nat.equal (out (Montgomery.add mc am bm)) (Modular.add mo ar br)
        && Nat.equal (out (Montgomery.sub mc am bm)) (Modular.sub mo ar br)
        && Nat.equal (out (Montgomery.neg mc am)) (Modular.neg mo ar)
        && Nat.equal (out (Montgomery.double mc am)) (Modular.add mo ar ar));
    qcheck ~count:40 "montgomery inv: a * inv a = 1 when coprime"
      (QCheck2.Gen.pair gen_odd_mod gen_nat_small)
      (fun (m, a) ->
        let mc = Montgomery.create m in
        let am = Montgomery.to_mont mc a in
        match Montgomery.inv mc am with
        | ai -> Nat.is_one (Montgomery.of_mont mc (Montgomery.mul mc am ai))
        | exception Not_found ->
          let g, _, _ = Modular.egcd (Nat.rem a m) m in
          not (Nat.is_one g));
  ]

let jacobi_tests =
  let open Util in
  [
    case "jacobi rejects even modulus" (fun () ->
        Alcotest.check_raises "even"
          (Invalid_argument "Modular.jacobi: modulus must be odd and positive")
          (fun () -> ignore (Modular.jacobi Nat.one (Nat.of_int 8))));
    case "jacobi known small values" (fun () ->
        (* (a|7) for a = 0..6: 0,1,1,-1,1,-1,-1 *)
        List.iteri
          (fun a expected ->
            check Alcotest.int
              (Printf.sprintf "(%d|7)" a)
              expected
              (Modular.jacobi (Nat.of_int a) (Nat.of_int 7)))
          [ 0; 1; 1; -1; 1; -1; -1 ]);
    case "jacobi of composite: (2|15) = 1 though 2 is not a QR" (fun () ->
        check Alcotest.int "(2|15)" 1 (Modular.jacobi Nat.two (Nat.of_int 15)));
    case "jacobi equals euler criterion on a prime" (fun () ->
        let p = Util.nat_of_decimal "1000000007" in
        let ctx = Modular.create p in
        let e = Nat.shift_right (Nat.sub p Nat.one) 1 in
        let bs = Util.fresh_bs "jacobi" in
        for _ = 1 to 60 do
          let a = Nat.random_below ~bytes_source:bs p in
          let euler =
            if Nat.is_zero a then 0
            else if Nat.is_one (Modular.pow ctx a e) then 1
            else -1
          in
          if Modular.jacobi a p <> euler then
            Alcotest.failf "mismatch at %s" (Util.nat_to_decimal a)
        done);
    case "jacobi multiplicativity in the numerator" (fun () ->
        let n = Nat.of_int 1009 in
        List.iter
          (fun (a, b) ->
            check Alcotest.int "mult"
              (Modular.jacobi (Nat.of_int a) n * Modular.jacobi (Nat.of_int b) n)
              (Modular.jacobi (Nat.of_int (a * b)) n))
          [ 2, 3; 5, 7; 10, 100; 17, 59 ]);
  ]

(* Lazy (redundant-representation) add/sub and batch inversion across
   moduli of assorted widths — including the narrow ones where
   16m > B^k forces the strict fallback inside add_lazy/sub_lazy. *)
let montgomery_lazy_tests =
  let open Util in
  [
    qcheck ~count:80 "lazy add/sub feed mul like strict, any odd modulus"
      (QCheck2.Gen.pair gen_mod (QCheck2.Gen.pair gen_nat_small gen_nat_small))
      (fun (m, (a, b)) ->
        let m = if Nat.is_even m then Nat.add m Nat.one else m in
        if Nat.compare m (Nat.of_int 3) < 0 then true
        else
          let ctx = Montgomery.create m in
          let ma = Montgomery.to_mont ctx (Nat.rem a m) in
          let mb = Montgomery.to_mont ctx (Nat.rem b m) in
          let lhs =
            Montgomery.mul ctx
              (Montgomery.add_lazy ctx ma mb)
              (Montgomery.sub_lazy ctx ma mb)
          in
          let rhs =
            Montgomery.mul ctx (Montgomery.add ctx ma mb)
              (Montgomery.sub ctx ma mb)
          in
          Nat.equal (Montgomery.of_mont ctx lhs) (Montgomery.of_mont ctx rhs));
    qcheck ~count:40 "montgomery batch_inv = pointwise inv"
      (QCheck2.Gen.pair gen_mod
         QCheck2.Gen.(list_size (int_range 1 6) gen_nat_small))
      (fun (m, vs) ->
        let m = if Nat.is_even m then Nat.add m Nat.one else m in
        if Nat.compare m (Nat.of_int 3) < 0 then true
        else
          let ctx = Montgomery.create m in
          let xs =
            List.filter_map
              (fun v ->
                let r = Nat.rem v m in
                if Nat.is_zero r then None
                else Some (Montgomery.to_mont ctx r))
              vs
          in
          let xs = Array.of_list xs in
          (* m may be composite: batch_inv must raise exactly when some
             element has no inverse, and agree pointwise otherwise. *)
          (match Montgomery.batch_inv ctx ~inv:(Montgomery.inv ctx) xs with
          | ys ->
            Array.for_all2
              (fun x y ->
                Nat.equal
                  (Montgomery.of_mont ctx (Montgomery.inv ctx x))
                  (Montgomery.of_mont ctx y))
              xs ys
          | exception Not_found ->
            Array.exists
              (fun x ->
                match Montgomery.inv ctx x with
                | _ -> false
                | exception Not_found -> true)
              xs));
    case "montgomery batch_inv rejects a zero element" (fun () ->
        let ctx = Montgomery.create (Nat.of_int 1009) in
        Alcotest.check_raises "zero" Not_found (fun () ->
            ignore
              (Montgomery.batch_inv ctx ~inv:(Montgomery.inv ctx)
                 [| Montgomery.one ctx; Montgomery.zero ctx |])));
  ]

(* Edge values for the multiply kernel.  Random bytes rarely give a
   limb of B-1, so this generator builds the worst cases on purpose:
   moduli whose limbs are all B-1 (the largest column sums [mul] can
   see) and the widest moduli that still have [lazy_ok] (every limb
   B-1 under a top limb of 2^22-1), for 1 to 24 limbs; operands 0, 1,
   R mod m and m-1; and, where [lazy_ok] holds, the redundant values
   2m-2, 4m-4 and 4m-2 that lazy add/sub chains produce.  Operands are
   named by the raw limb value they hold, so the residue they stand
   for is raw·R^-1 mod m whichever way they were built. *)
type edge_operand = Zero | Raw_one | Domain_one | Minus_one | Lazy_2m | Lazy_4m | Lazy_sub

let edge_name = function
  | Zero -> "0"
  | Raw_one -> "1"
  | Domain_one -> "R mod m"
  | Minus_one -> "m-1"
  | Lazy_2m -> "2m-2"
  | Lazy_4m -> "4m-4"
  | Lazy_sub -> "4m-2"

let edge_modulus ~lazy_headroom k =
  let bits = (k * Nat.base_bits) - if lazy_headroom then 4 else 0 in
  Nat.sub (Nat.shift_left Nat.one bits) Nat.one

let gen_edge =
  let open QCheck2.Gen in
  let* k = int_range 1 24 in
  let* lazy_headroom = bool in
  let ops =
    [ Zero; Raw_one; Domain_one; Minus_one ]
    @ if lazy_headroom then [ Lazy_2m; Lazy_4m; Lazy_sub ] else []
  in
  let* a = oneofl ops in
  let* b = oneofl ops in
  return (k, lazy_headroom, a, b)

let print_edge (k, lazy_headroom, a, b) =
  Printf.sprintf "k=%d %s a=%s b=%s" k
    (if lazy_headroom then "headroom" else "all B-1")
    (edge_name a) (edge_name b)

(* Builds the operand through the public API and returns it with the
   raw value it holds. *)
let edge_value ctx mo ~r_inv m op =
  let raw x = Montgomery.to_mont ctx (Modular.mul mo x r_inv) in
  let mm1 = Nat.sub m Nat.one in
  let two_m_2 = Montgomery.add_lazy ctx (raw mm1) (raw mm1) in
  match op with
  | Zero -> Montgomery.zero ctx, Nat.zero
  | Raw_one -> raw Nat.one, Nat.one
  | Domain_one -> Montgomery.one ctx, Modular.reduce mo (Nat.shift_left Nat.one (Nat.num_limbs m * Nat.base_bits))
  | Minus_one -> raw mm1, mm1
  | Lazy_2m -> two_m_2, Nat.add mm1 mm1
  | Lazy_4m -> Montgomery.add_lazy ctx two_m_2 two_m_2, Nat.sub (Nat.shift_left m 2) (Nat.of_int 4)
  | Lazy_sub ->
    Montgomery.sub_lazy ctx two_m_2 (Montgomery.zero ctx), Nat.sub (Nat.shift_left m 2) Nat.two

(* [mul] of raw values x, y must be the canonical x·y·R^-1 mod m:
   leaving the domain gives x·y·R^-2, and the limbs equal those of
   [to_mont] of that residue. *)
let edge_mul_ok m a b =
  let ctx = Montgomery.create m and mo = Modular.create m in
  let r = Modular.reduce mo (Nat.shift_left Nat.one (Nat.num_limbs m * Nat.base_bits)) in
  let r_inv = Modular.inv mo r in
  let x, xv = edge_value ctx mo ~r_inv m a in
  let y, yv = edge_value ctx mo ~r_inv m b in
  let expected =
    Modular.mul mo
      (Modular.mul mo (Modular.reduce mo xv) (Modular.reduce mo yv))
      (Modular.sqr mo r_inv)
  in
  let z = Montgomery.mul ctx x y in
  Nat.equal (Montgomery.of_mont ctx z) expected
  && Montgomery.equal z (Montgomery.to_mont ctx expected)

let kernel_edge_tests =
  let open Util in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~print:print_edge
         ~name:"montgomery mul == Modular.mul on edge moduli and operands"
         gen_edge (fun (k, lazy_headroom, a, b) ->
           edge_mul_ok (edge_modulus ~lazy_headroom k) a b));
    case "montgomery mul at the 256-limb bound, every limb B-1" (fun () ->
        let m = edge_modulus ~lazy_headroom:false 256 in
        List.iter
          (fun (a, b) ->
            check Alcotest.bool
              (edge_name a ^ " * " ^ edge_name b)
              true (edge_mul_ok m a b))
          [ Minus_one, Minus_one; Minus_one, Domain_one; Raw_one, Minus_one ]);
    case "montgomery rejects a 7000-bit modulus" (fun () ->
        Alcotest.check_raises "7000 bits"
          (Invalid_argument "Montgomery.create: modulus wider than 256 limbs")
          (fun () ->
            ignore
              (Montgomery.create
                 (Nat.sub (Nat.shift_left Nat.one 7000) Nat.one))));
  ]

(* Fermat inversion on the pairing primes against the egcd reference. *)
let fermat_inversion_tests =
  let open Util in
  let module Fp = Sc_field.Fp in
  let module Params = Sc_pairing.Params in
  List.map
    (fun (name, params) ->
      case ("fermat Fp.inv / Mont.inv / batch_inv == Modular.inv on " ^ name)
        (fun () ->
          let p = (Lazy.force params).Params.p in
          let fp = Fp.create p and mo = Modular.create p in
          let bs = fresh_bs ("fermat/" ^ name) in
          let xs =
            [ Nat.one; Nat.two; Nat.sub p Nat.one; Nat.sub p Nat.two;
              Nat.shift_right (Nat.add p Nat.one) 1 ]
            @ List.init 6 (fun _ ->
                  Nat.add Nat.one (Nat.random_below ~bytes_source:bs (Nat.sub p Nat.one)))
          in
          let expected = List.map (Modular.inv mo) xs in
          List.iter2
            (fun x e ->
              check nat "Fp.inv" e (Fp.inv fp x);
              check nat "Fp.Mont.inv" e
                (Fp.Mont.leave fp (Fp.Mont.inv fp (Fp.Mont.enter fp x))))
            xs expected;
          let xa = Array.of_list xs in
          check (Alcotest.list nat) "Fp.batch_inv" expected
            (Array.to_list (Fp.batch_inv fp xa));
          check (Alcotest.list nat) "Fp.Mont.batch_inv" expected
            (Array.to_list
               (Array.map (Fp.Mont.leave fp)
                  (Fp.Mont.batch_inv fp (Array.map (Fp.Mont.enter fp) xa))));
          Alcotest.check_raises "Fp.inv 0" Division_by_zero (fun () ->
              ignore (Fp.inv fp Fp.zero));
          Alcotest.check_raises "Fp.Mont.inv 0" Division_by_zero (fun () ->
              ignore (Fp.Mont.inv fp (Fp.Mont.zero fp)));
          Alcotest.check_raises "Fp.Mont.batch_inv with 0" Division_by_zero
            (fun () ->
              ignore
                (Fp.Mont.batch_inv fp [| Fp.Mont.one fp; Fp.Mont.zero fp |]))))
    [ "toy", Params.toy; "small", Params.small; "mid", Params.mid ]

(* The comb's constant-time table read against a plain index, on the
   5-limb small-parameter prime. *)
let select_tests =
  let open Util in
  [
    case "masked select = direct index, every index of 1-, 2-, 16-entry tables"
      (fun () ->
        let p = (Lazy.force Sc_pairing.Params.small).Sc_pairing.Params.p in
        let ctx = Montgomery.create p in
        let bs = fresh_bs "montgomery-select" in
        List.iter
          (fun n ->
            let entries =
              Array.init n (fun _ ->
                  Montgomery.to_mont ctx (Nat.random_below ~bytes_source:bs p))
            in
            let t = Montgomery.table entries in
            Array.iteri
              (fun i e ->
                check nat
                  (Printf.sprintf "entry %d of %d" i n)
                  (Montgomery.of_mont ctx e)
                  (Montgomery.of_mont ctx (Montgomery.select t i)))
              entries)
          [ 1; 2; 16 ]);
  ]

let suite =
  unit_tests @ property_tests @ montgomery_tests @ montgomery_arith_tests
  @ montgomery_lazy_tests @ montgomery_property_tests @ jacobi_tests
  @ kernel_edge_tests @ fermat_inversion_tests @ select_tests
