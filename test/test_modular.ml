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

let gen_odd_mod =
  QCheck2.Gen.map
    (fun m -> if Nat.is_even m then Nat.add m Nat.one else m)
    gen_mod

(* b^e mod m by e multiplications. *)
let naive_pow m b e =
  let rec go acc = function
    | 0 -> Nat.rem acc m
    | k -> go (Reference.Nat_mod.mul m acc b) (k - 1)
  in
  go Nat.one e

let unit_tests =
  let open Util in
  [
    case "create rejects modulus < 2" (fun () ->
        Alcotest.check_raises "zero" (Invalid_argument "Nat.inv_mod: modulus < 2")
          (fun () -> ignore (Nat.inv_mod Nat.one Nat.zero));
        Alcotest.check_raises "one" (Invalid_argument "Nat.inv_mod: modulus < 2")
          (fun () -> ignore (Nat.inv_mod Nat.one Nat.one)));
    case "reduce idempotent and below modulus" (fun () ->
        (* [to_mont] takes any natural and reduces it. *)
        let m = Util.nat_of_decimal "1000003" in
        let ctx = Montgomery.create m in
        let x = Util.nat_of_decimal "123456789123456789" in
        let r = Montgomery.of_mont ctx (Montgomery.to_mont ctx x) in
        check Alcotest.bool "below" true (Nat.compare r m < 0);
        check nat "x mod m" (Nat.rem x m) r;
        check nat "idempotent" r (Montgomery.of_mont ctx (Montgomery.to_mont ctx r)));
    case "pow matches naive" (fun () ->
        let m = Nat.of_int 1009 in
        let ctx = Montgomery.create m in
        List.iter
          (fun (b, e) ->
            check nat
              (Printf.sprintf "%d^%d" b e)
              (naive_pow m (Nat.of_int b) e)
              (Montgomery.pow ctx (Nat.of_int b) (Nat.of_int e)))
          [ 2, 10; 3, 100; 1008, 57; 17, 0; 0, 5 ]);
    case "fermat little theorem" (fun () ->
        (* a^(p-1) = 1 mod p for prime p. *)
        let p = Util.nat_of_decimal "1000000007" in
        let ctx = Montgomery.create p in
        List.iter
          (fun a ->
            check nat "fermat" Nat.one
              (Montgomery.pow ctx (Nat.of_int a) (Nat.sub p Nat.one)))
          [ 2; 3; 65537; 999999999 ]);
    case "inverse times value is one" (fun () ->
        let p = Util.nat_of_decimal "32416190071" in
        let a = Util.nat_of_decimal "31415926535" in
        let ai = Nat.inv_mod a p in
        check Alcotest.bool "below p" true (Nat.compare ai p < 0);
        check nat "a * a^-1" Nat.one (Reference.Nat_mod.mul p a ai);
        (* a is reduced first *)
        check nat "(a + p)^-1" ai (Nat.inv_mod (Nat.add a p) p));
    case "inverse of non-coprime raises" (fun () ->
        Alcotest.check_raises "gcd != 1" Not_found (fun () ->
            ignore (Nat.inv_mod (Nat.of_int 10) (Nat.of_int 100)));
        Alcotest.check_raises "zero" Not_found (fun () ->
            ignore (Nat.inv_mod (Nat.of_int 100) (Nat.of_int 100))));
  ]

(* The ring laws of the Montgomery domain over odd moduli of assorted
   widths. *)
let property_tests =
  let open Util in
  let with_ctx = QCheck2.Gen.pair gen_odd_mod (QCheck2.Gen.pair gen_nat_small gen_nat_small) in
  [
    qcheck "add/sub inverse" with_ctx (fun (m, (a, b)) ->
        let ctx = Montgomery.create m in
        let a = Montgomery.to_mont ctx a and b = Montgomery.to_mont ctx b in
        Montgomery.equal a (Montgomery.sub ctx (Montgomery.add ctx a b) b));
    qcheck "neg is additive inverse" (QCheck2.Gen.pair gen_odd_mod gen_nat_small)
      (fun (m, a) ->
        let ctx = Montgomery.create m in
        let a = Montgomery.to_mont ctx a in
        Montgomery.is_zero (Montgomery.add ctx a (Montgomery.neg ctx a)));
    qcheck "mul homomorphic to Nat.mul" with_ctx (fun (m, (a, b)) ->
        let ctx = Montgomery.create m in
        let a' = Montgomery.to_mont ctx a and b' = Montgomery.to_mont ctx b in
        Nat.equal
          (Montgomery.of_mont ctx (Montgomery.mul ctx a' b'))
          (Nat.rem (Nat.mul a b) m)
        && Nat.equal
             (Montgomery.of_mont ctx (Montgomery.sqr ctx a'))
             (Nat.rem (Nat.mul a a) m));
    qcheck ~count:60 "pow adds exponents"
      QCheck2.Gen.(triple gen_odd_mod gen_nat_small (pair (int_range 0 60) (int_range 0 60)))
      (fun (m, b, (e1, e2)) ->
        let ctx = Montgomery.create m in
        let pow e = Montgomery.pow ctx b (Nat.of_int e) in
        Nat.equal (Reference.Nat_mod.mul m (pow e1) (pow e2)) (pow (e1 + e2)));
  ]

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
        (* The Montgomery-domain inverse is Fermat's, over a prime. *)
        let module Fp = Sc_field.Fp in
        let p = Util.nat_of_decimal "32416190071" in
        let pm1 = Nat.sub p Nat.one in
        let fp = Fp.create p in
        let m v = Fp.of_nat fp v in
        let inv v = Fp.to_nat fp (Fp.inv fp (m v)) in
        check nat "inv 1 = 1" Nat.one (inv Nat.one);
        (* p-1 is its own inverse: (p-1)^2 = 1 mod p. *)
        check nat "inv (p-1) = p-1" pm1 (inv pm1);
        let a = m (Util.nat_of_decimal "31415926535") in
        check nat "a * inv a = 1" Nat.one
          (Fp.to_nat fp (Fp.mul fp a (Fp.inv fp a)));
        Alcotest.check_raises "inv 0" Division_by_zero (fun () ->
            ignore (inv Nat.zero)));
  ]

(* The Montgomery kernel against canonical naturals reduced by
   division ([Reference.Nat_mod]); the names keep the Barrett oracle
   they were written against. *)
let montgomery_property_tests =
  let open Util in
  let module N = Reference.Nat_mod in
  [
    qcheck ~count:80 "montgomery mul == barrett mul"
      (QCheck2.Gen.triple gen_odd_mod gen_nat_small gen_nat_small)
      (fun (m, a, b) ->
        let mc = Montgomery.create m in
        Nat.equal
          (Montgomery.of_mont mc
             (Montgomery.mul mc (Montgomery.to_mont mc a) (Montgomery.to_mont mc b)))
          (N.mul m (Nat.rem a m) (Nat.rem b m)));
    qcheck ~count:40 "montgomery pow == barrett pow"
      (QCheck2.Gen.triple gen_odd_mod gen_nat_small
         (QCheck2.Gen.int_range 0 200))
      (fun (m, b, e) ->
        let mc = Montgomery.create m in
        Nat.equal (Montgomery.pow mc b (Nat.of_int e)) (naive_pow m b e));
    qcheck ~count:80 "montgomery add/sub/neg/double == barrett"
      (QCheck2.Gen.triple gen_odd_mod gen_nat_small gen_nat_small)
      (fun (m, a, b) ->
        let mc = Montgomery.create m in
        let am = Montgomery.to_mont mc a and bm = Montgomery.to_mont mc b in
        let ar = Nat.rem a m and br = Nat.rem b m in
        let out = Montgomery.of_mont mc in
        Nat.equal (out (Montgomery.add mc am bm)) (N.add m ar br)
        && Nat.equal (out (Montgomery.sub mc am bm)) (N.sub m ar br)
        && Nat.equal (out (Montgomery.neg mc am)) (N.neg m ar)
        && Nat.equal (out (Montgomery.double mc am)) (N.add m ar ar));
  ]

(* An inverse inside the Montgomery domain of any odd modulus, by the
   extended Euclid of [Nat.inv_mod]: what batch inversion over a
   possibly composite modulus is checked against.  Raises [Not_found]
   when the argument has no inverse. *)
let egcd_inv ctx m x =
  Montgomery.to_mont ctx (Nat.inv_mod (Montgomery.of_mont ctx x) m)

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
          let inv = egcd_inv ctx m in
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
          (match Montgomery.batch_inv ctx ~inv xs with
          | ys ->
            Array.for_all2
              (fun x y ->
                Nat.equal
                  (Montgomery.of_mont ctx (inv x))
                  (Montgomery.of_mont ctx y))
              xs ys
          | exception Not_found ->
            Array.exists
              (fun x ->
                match inv x with
                | _ -> false
                | exception Not_found -> true)
              xs));
    case "montgomery batch_inv rejects a zero element" (fun () ->
        let ctx = Montgomery.create (Nat.of_int 1009) in
        Alcotest.check_raises "zero" Not_found (fun () ->
            ignore
              (Montgomery.batch_inv ctx ~inv:(egcd_inv ctx (Nat.of_int 1009))
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

(* R = B^k for the k-limb modulus m. *)
let domain_r m = Nat.shift_left Nat.one (Array.length (Nat.to_limbs m) * Nat.base_bits)

(* Builds the operand through the public API and returns it with the
   raw value it holds. *)
let edge_value ctx ~r_inv m op =
  let raw x = Montgomery.to_mont ctx (Reference.Nat_mod.mul m x r_inv) in
  let mm1 = Nat.sub m Nat.one in
  let two_m_2 = Montgomery.add_lazy ctx (raw mm1) (raw mm1) in
  match op with
  | Zero -> Montgomery.zero ctx, Nat.zero
  | Raw_one -> raw Nat.one, Nat.one
  | Domain_one -> Montgomery.one ctx, Nat.rem (domain_r m) m
  | Minus_one -> raw mm1, mm1
  | Lazy_2m -> two_m_2, Nat.add mm1 mm1
  | Lazy_4m -> Montgomery.add_lazy ctx two_m_2 two_m_2, Nat.sub (Nat.shift_left m 2) (Nat.of_int 4)
  | Lazy_sub ->
    Montgomery.sub_lazy ctx two_m_2 (Montgomery.zero ctx), Nat.sub (Nat.shift_left m 2) Nat.two

(* [mul] of raw values x, y must be the canonical x·y·R^-1 mod m:
   leaving the domain gives x·y·R^-2, and the limbs equal those of
   [to_mont] of that residue. *)
let edge_mul_ok m a b =
  let module N = Reference.Nat_mod in
  let ctx = Montgomery.create m in
  let r_inv = Nat.inv_mod (domain_r m) m in
  let x, xv = edge_value ctx ~r_inv m a in
  let y, yv = edge_value ctx ~r_inv m b in
  let expected = N.mul m (N.mul m (Nat.rem xv m) (Nat.rem yv m)) (N.mul m r_inv r_inv) in
  let z = Montgomery.mul ctx x y in
  Nat.equal (Montgomery.of_mont ctx z) expected
  && Montgomery.equal z (Montgomery.to_mont ctx expected)

let kernel_edge_tests =
  let open Util in
  [
    (* The name keeps the Barrett oracle it was written against. *)
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

(* Every kernel against the Nat oracle, on the raw limb values it
   reads and returns: [mul] and [sqr] are REDC ([Reference.redc]),
   [add]/[sub] the residue of the sum or difference, and
   [add_lazy]/[sub_lazy] the unreduced a + b and a + 2m − b wherever
   the modulus leaves lazy headroom (16m <= B^k), else [add]/[sub].
   Residues are random or the edges 0, 1 and m − 1; an operand is a
   residue a, a once-lazy sum a + b below 2m, or the lazy difference
   (a + a) − (b + b) + 2m below 4m, the most a multiplication may be
   given.  Each preset width runs an odd modulus of its prime's bit
   length, the all-(B−1) modulus B^k − 1 (whose sums carry out of the
   top limb) and 2^(26k−4) − 1, the widest with headroom; 7 limbs has
   no generated kernel and takes the loop. *)
type residue = Edge of int | Random of string

type operand = residue * residue * int (* a, b and the shape 0, 1 or 2 *)

let gen_operand =
  let open QCheck2.Gen in
  let residue =
    oneof
      [
        map (fun e -> Edge e) (int_range 0 2);
        map (fun s -> Random s) (string_size ~gen:char (return 90));
      ]
  in
  triple residue residue (int_range 0 2)

let kernels = [ "mul"; "sqr"; "add"; "sub"; "add_lazy"; "sub_lazy" ]

let kernel_holds kernel m ((x : operand), (y : operand)) =
  let module N = Reference.Nat_mod in
  let ctx = Montgomery.create m in
  let r_inv = Nat.inv_mod (domain_r m) m in
  let lazy_ok = Nat.bit_length m + 4 <= Array.length (Nat.to_limbs m) * Nat.base_bits in
  let residue = function
    | Edge 0 -> Nat.zero
    | Edge 1 -> Nat.one
    | Edge _ -> Nat.sub m Nat.one
    | Random s -> Nat.rem (Nat.of_bytes_be s) m
  in
  let enter v = Montgomery.to_mont ctx (N.mul m v r_inv) in
  let raw (z : Montgomery.mont) = Nat.of_limbs (z :> int array) in
  (* A shape above [bound] is capped at it. *)
  let operand ~bound (a, b, shape) =
    let a = enter (residue a) and b = enter (residue b) in
    match min shape bound with
    | 0 -> a
    | 1 -> Montgomery.add_lazy ctx a b
    | _ -> Montgomery.sub_lazy ctx (Montgomery.add_lazy ctx a a) (Montgomery.add_lazy ctx b b)
  in
  let bound = match kernel with "mul" | "sqr" -> 2 | "add_lazy" | "sub_lazy" -> 1 | _ -> 0 in
  let x = operand ~bound x and y = operand ~bound y in
  let xv = raw x and yv = raw y in
  let got, want =
    match kernel with
    | "mul" -> Montgomery.mul ctx x y, Reference.redc m xv yv
    | "sqr" -> Montgomery.sqr ctx x, Reference.redc m xv xv
    | "add" -> Montgomery.add ctx x y, N.add m xv yv
    | "sub" -> Montgomery.sub ctx x y, N.sub m xv yv
    | "add_lazy" ->
      Montgomery.add_lazy ctx x y, if lazy_ok then Nat.add xv yv else N.add m xv yv
    | _ ->
      ( Montgomery.sub_lazy ctx x y,
        if lazy_ok then Nat.sub (Nat.add xv (Nat.add m m)) yv else N.sub m xv yv )
  in
  Nat.equal (raw got) want

let kernel_tests =
  let open Util in
  (* A fixed odd modulus of the given bit length, the all-(B−1) one
     and the widest with headroom, at the width that length needs.
     Not the presets' primes: finding those runs Miller–Rabin on the
     kernels under test, which never ends when they are wrong. *)
  let moduli bits =
    let k = (bits + Nat.base_bits - 1) / Nat.base_bits in
    let bs = fresh_bs (Printf.sprintf "kernel-modulus/%d" bits) in
    let top = Nat.shift_left Nat.one (bits - 1) in
    let low = Nat.shift_left (Nat.random ~bytes_source:bs ~bits:(bits - 2)) 1 in
    [
      Nat.add (Nat.add top low) Nat.one;
      Nat.sub (Nat.shift_left Nat.one (k * Nat.base_bits)) Nat.one;
      edge_modulus ~lazy_headroom:true k;
    ]
  in
  (* No shrinking: a 90-byte residue shrinks for minutes; the printer
     names the failing case instead. *)
  let gen = QCheck2.Gen.(no_shrink (triple (int_range 0 2) gen_operand gen_operand)) in
  let print (i, x, y) =
    let residue = function
      | Edge e -> Printf.sprintf "edge %d" e
      | Random s -> Printf.sprintf "%S" s
    in
    let operand (a, b, shape) =
      Printf.sprintf "(%s, %s, shape %d)" (residue a) (residue b) shape
    in
    Printf.sprintf "modulus %d, x = %s, y = %s" i (operand x) (operand y)
  in
  let qcheck name prop =
    QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:100 ~print ~name gen prop)
  in
  (* The presets' p: 71 bits (toy, k = 3), 119 (small, k = 5), 512
     (mid, k = 20). *)
  List.concat_map
    (fun (name, bits) ->
      let moduli = lazy (moduli bits) in
      List.map
        (fun kernel ->
          qcheck
            (Printf.sprintf "kernel %s = Nat oracle, %s widths" kernel name)
            (fun (i, x, y) -> kernel_holds kernel (List.nth (Lazy.force moduli) i) (x, y)))
        kernels)
    [ "toy", 71; "small", 119; "mid", 512 ]
  @ [
      (let moduli = lazy (moduli 181) in
       qcheck "kernels = Nat oracle at 7 limbs (the loop)" (fun (i, x, y) ->
           List.for_all
             (fun kernel -> kernel_holds kernel (List.nth (Lazy.force moduli) i) (x, y))
             kernels));
    ]

(* Fermat inversion on the pairing primes against the extended Euclid. *)
let fermat_inversion_tests =
  let open Util in
  let module Fp = Sc_field.Fp in
  let module Params = Sc_pairing.Params in
  List.map
    (fun (name, params) ->
      case ("fermat Fp.inv / Mont.inv / batch_inv == Nat.inv_mod on " ^ name)
        (fun () ->
          let p = (Lazy.force params).Params.p in
          let fp = Fp.create p in
          let bs = fresh_bs ("fermat/" ^ name) in
          let xs =
            [ Nat.one; Nat.two; Nat.sub p Nat.one; Nat.sub p Nat.two;
              Nat.shift_right (Nat.add p Nat.one) 1 ]
            @ List.init 6 (fun _ ->
                  Nat.add Nat.one (Nat.random_below ~bytes_source:bs (Nat.sub p Nat.one)))
          in
          let expected = List.map (fun x -> Nat.inv_mod x p) xs in
          (* The kernel's own Fermat ladder, under [Fp.inv]. *)
          let mont = Montgomery.create p in
          let pm2 = Nat.sub p Nat.two in
          List.iter2
            (fun x e ->
              check nat "Fp.inv" e (Fp.to_nat fp (Fp.inv fp (Fp.of_nat fp x)));
              check nat "Montgomery.pow_mont x (p-2)" e
                (Montgomery.of_mont mont
                   (Montgomery.pow_mont mont (Montgomery.to_mont mont x) pm2)))
            xs expected;
          let xa = Array.map (Fp.of_nat fp) (Array.of_list xs) in
          check (Alcotest.list nat) "Fp.batch_inv" expected
            (Array.to_list (Array.map (Fp.to_nat fp) (Fp.batch_inv fp xa)));
          Alcotest.check_raises "Fp.inv 0" Division_by_zero (fun () ->
              ignore (Fp.inv fp (Fp.zero fp)));
          Alcotest.check_raises "Fp.batch_inv with 0" Division_by_zero
            (fun () -> ignore (Fp.batch_inv fp [| Fp.one fp; Fp.zero fp |]))))
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

(* The kernel on the three pairing primes: k = 3, 5 and 20 limbs. *)
let pairing_primes =
  List.map
    (fun (name, prm) -> name, (Lazy.force prm).Sc_pairing.Params.p)
    Sc_pairing.Params.presets

let kernel_shape_tests =
  let open Util in
  [
    case "montgomery mul/add/double allocate only their result (toy, small, mid)"
      (fun () ->
        List.iter
          (fun (name, p) ->
            let ctx = Montgomery.create p in
            let bs = fresh_bs ("montgomery-words/" ^ name) in
            let el () = Montgomery.to_mont ctx (Nat.random_below ~bytes_source:bs p) in
            let a = el () and b = el () in
            let words f =
              ignore (f ());
              let before = Gc.minor_words () in
              ignore (f ());
              Gc.minor_words () -. before
            in
            let k1 = float_of_int (Array.length (Nat.to_limbs p) + 1) in
            List.iter
              (fun (op, f) ->
                check (Alcotest.float 0.) (Printf.sprintf "%s words, %s" op name) k1
                  (words f))
              [
                "mul", (fun () -> Montgomery.mul ctx a b);
                "add", (fun () -> Montgomery.add ctx a b);
                "double", (fun () -> Montgomery.double ctx a);
              ])
          pairing_primes);
    case "montgomery rejects an operand of another context's width" (fun () ->
        let ctx name = Montgomery.create (List.assoc name pairing_primes) in
        let small = ctx "small" and mid = ctx "mid" in
        let width_error =
          Invalid_argument "Montgomery: operand of another context's width"
        in
        List.iter
          (fun (c, c') ->
            let a = Montgomery.one c and foreign = Montgomery.one c' in
            List.iter
              (fun (op, f) ->
                Alcotest.check_raises op width_error (fun () -> ignore (f ())))
              [
                "mul, first", (fun () -> Montgomery.mul c foreign a);
                "mul, second", (fun () -> Montgomery.mul c a foreign);
                "sqr", (fun () -> Montgomery.sqr c foreign);
                "add, first", (fun () -> Montgomery.add c foreign a);
                "add, second", (fun () -> Montgomery.add c a foreign);
                "sub, first", (fun () -> Montgomery.sub c foreign a);
                "sub, second", (fun () -> Montgomery.sub c a foreign);
              ])
          [ mid, small; small, mid ]);
  ]

let suite =
  unit_tests @ property_tests @ montgomery_tests @ montgomery_arith_tests
  @ montgomery_lazy_tests @ montgomery_property_tests @ kernel_edge_tests
  @ kernel_tests @ fermat_inversion_tests @ select_tests @ kernel_shape_tests
