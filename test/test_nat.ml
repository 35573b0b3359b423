open Sc_bignum

let nat = Alcotest.testable Nat.pp Nat.equal

(* A QCheck generator for naturals of up to ~600 bits, biased toward
   interesting shapes (zero, one, powers of two, dense values). *)
let gen_nat =
  let open QCheck2.Gen in
  let dense =
    let* nbits = int_range 1 600 in
    let* bytes = string_size ~gen:char (return ((nbits + 7) / 8)) in
    return (Nat.shift_right (Nat.of_bytes_be bytes) (8 * ((nbits + 7) / 8) - nbits))
  in
  frequency
    [
      1, return Nat.zero;
      1, return Nat.one;
      2, map Nat.of_int (int_range 0 max_int);
      2, map (fun k -> Nat.shift_left Nat.one k) (int_range 0 400);
      10, dense;
    ]

let gen_pos = QCheck2.Gen.(map (fun n -> Nat.add n Nat.one) gen_nat)

let unit_tests =
  let open Util in
  [
    case "zero and one" (fun () ->
        check Alcotest.bool "zero is zero" true (Nat.is_zero Nat.zero);
        check nat "one is 1" (Nat.of_int 1) Nat.one;
        check nat "0 + 0 = 0" Nat.zero (Nat.add Nat.zero Nat.zero);
        check nat "1 * 0 = 0" Nat.zero (Nat.mul Nat.one Nat.zero));
    case "of_int round-trips through to_int" (fun () ->
        List.iter
          (fun n ->
            check Alcotest.int "round trip" n (Nat.to_int_exn (Nat.of_int n)))
          [ 0; 1; 2; 42; 0xFFFF; (1 lsl 26) - 1; 1 lsl 26; 1 lsl 52; max_int ]);
    case "of_int rejects negatives" (fun () ->
        Alcotest.check_raises "negative" (Invalid_argument "Nat.of_int: negative")
          (fun () -> ignore (Nat.of_int (-1))));
    case "decimal round trip" (fun () ->
        let s = "123456789012345678901234567890123456789" in
        check Alcotest.string "decimal" s (Util.nat_to_decimal (Util.nat_of_decimal s)));
    case "hex round trip" (fun () ->
        let s = "deadbeef0123456789abcdef" in
        check Alcotest.string "hex" s (Nat.to_hex (Util.nat_of_hex s));
        check Alcotest.string "0x prefix accepted" s
          (Nat.to_hex (Util.nat_of_hex ("0x" ^ s))));
    case "known multiplication" (fun () ->
        let a = Util.nat_of_decimal "123456789012345678901234567890" in
        let b = Util.nat_of_decimal "987654321098765432109876543210" in
        check Alcotest.string "product"
          "121932631137021795226185032733622923332237463801111263526900"
          (Util.nat_to_decimal (Nat.mul a b)));
    case "sub underflow raises" (fun () ->
        Alcotest.check_raises "underflow"
          (Invalid_argument "Nat.sub: negative result") (fun () ->
            ignore (Nat.sub Nat.one Nat.two)));
    case "division by zero raises" (fun () ->
        Alcotest.check_raises "div0" Division_by_zero (fun () ->
            ignore (Nat.rem Nat.one Nat.zero)));
    case "divmod single-limb divisor" (fun () ->
        let a = Util.nat_of_decimal "123456789012345678901" in
        let q, r = Reference.divmod a (Nat.of_int 97) in
        check nat "reconstruct" a (Nat.add (Nat.mul q (Nat.of_int 97)) r);
        check nat "rem" r (Nat.rem a (Nat.of_int 97)));
    case "divmod Knuth add-back edge" (fun () ->
        (* Divisor with high limb exactly base/2 exercises the qhat
           correction paths. *)
        let b = Nat.shift_left Nat.one 511 in
        let a = Nat.sub (Nat.shift_left Nat.one 1023) Nat.one in
        check nat "(2^1023 - 1) mod 2^511" (Nat.sub b Nat.one) (Nat.rem a b);
        let a = Nat.sub (Nat.shift_left Nat.one 1023) b in
        check nat "(2^1023 - 2^511) mod 2^511" Nat.zero (Nat.rem a b));
    case "shift left/right inverse" (fun () ->
        let a = Util.nat_of_decimal "98765432109876543210" in
        check nat "shift" a (Nat.shift_right (Nat.shift_left a 131) 131));
    case "bit_length" (fun () ->
        check Alcotest.int "bit_length 0" 0 (Nat.bit_length Nat.zero);
        check Alcotest.int "bit_length 1" 1 (Nat.bit_length Nat.one);
        check Alcotest.int "bit_length 2^100" 101
          (Nat.bit_length (Nat.shift_left Nat.one 100)));
    case "test_bit" (fun () ->
        let v = Nat.of_int 0b1010010 in
        List.iteri
          (fun i expected ->
            check Alcotest.bool (Printf.sprintf "bit %d" i) expected
              (Nat.test_bit v i))
          [ false; true; false; false; true; false; true; false ]);
    case "bytes big-endian round trip with padding" (fun () ->
        let a = Util.nat_of_hex "0102030405" in
        let b = Nat.to_bytes_be ~len:8 a in
        check Alcotest.int "padded length" 8 (String.length b);
        check nat "round trip" a (Nat.of_bytes_be b));
    case "to_bytes_be rejects too-small len" (fun () ->
        Alcotest.check_raises "too small"
          (Invalid_argument "Nat.to_bytes_be: value too large for len")
          (fun () -> ignore (Nat.to_bytes_be ~len:1 (Nat.of_int 65536))));
    case "karatsuba threshold crossing" (fun () ->
        (* Multiply numbers straddling the Karatsuba cutoff and check
           against a same-value schoolbook product via distributivity. *)
        let big = Nat.random ~bytes_source:(Util.fresh_bs "kara") ~bits:2000 in
        let split = Nat.shift_right big 1000 in
        let low = Nat.sub big (Nat.shift_left split 1000) in
        (* big = split·2^1000 + low; square both ways *)
        let direct = Nat.mul big big in
        let s2 = Nat.shift_left (Nat.mul split split) 2000 in
        let cross = Nat.shift_left (Nat.mul split low) 1001 in
        let l2 = Nat.mul low low in
        check nat "(a+b)^2 = a^2+2ab+b^2" direct (Nat.add (Nat.add s2 cross) l2));
    case "random_below stays below" (fun () ->
        let bound = Util.nat_of_decimal "1000000000000000000000000" in
        for _ = 1 to 50 do
          let r = Nat.random_below ~bytes_source:Util.bs bound in
          Alcotest.(check bool) "below" true (Nat.compare r bound < 0)
        done);
  ]

let property_tests =
  let open Util in
  let two = QCheck2.Gen.pair gen_nat gen_nat in
  let three = QCheck2.Gen.triple gen_nat gen_nat gen_nat in
  [
    qcheck "add commutative" two (fun (a, b) ->
        Nat.equal (Nat.add a b) (Nat.add b a));
    qcheck "add associative" three (fun (a, b, c) ->
        Nat.equal (Nat.add a (Nat.add b c)) (Nat.add (Nat.add a b) c));
    qcheck "mul commutative" two (fun (a, b) ->
        Nat.equal (Nat.mul a b) (Nat.mul b a));
    qcheck ~count:50 "mul associative" three (fun (a, b, c) ->
        Nat.equal (Nat.mul a (Nat.mul b c)) (Nat.mul (Nat.mul a b) c));
    qcheck "mul distributes over add" three (fun (a, b, c) ->
        Nat.equal (Nat.mul a (Nat.add b c)) (Nat.add (Nat.mul a b) (Nat.mul a c)));
    qcheck "sub inverts add" two (fun (a, b) ->
        Nat.equal (Nat.sub (Nat.add a b) b) a);
    qcheck "divmod reconstructs" (QCheck2.Gen.pair gen_nat gen_pos)
      (fun (a, b) ->
        let q, r = Reference.divmod a b in
        Nat.equal a (Nat.add (Nat.mul q b) r)
        && Nat.compare r b < 0
        && Nat.equal r (Nat.rem a b));
    qcheck "compare consistent with sub" two (fun (a, b) ->
        match Nat.compare a b with
        | 0 -> Nat.equal a b
        | c when c > 0 -> Nat.equal (Nat.add (Nat.sub a b) b) a
        | _ -> Nat.equal (Nat.add (Nat.sub b a) a) b);
    qcheck "decimal round trip" gen_nat (fun a ->
        Nat.equal a (Util.nat_of_decimal (Util.nat_to_decimal a)));
    qcheck "hex round trip" gen_nat (fun a ->
        Nat.equal a (Util.nat_of_hex (Nat.to_hex a)));
    qcheck "bytes round trip" gen_nat (fun a ->
        Nat.equal a (Nat.of_bytes_be (Nat.to_bytes_be a)));
    qcheck "shift_left k = mul 2^k"
      QCheck2.Gen.(pair gen_nat (int_range 0 200))
      (fun (a, k) ->
        (* 2^k by doubling, with no shift *)
        let rec pow2 k = if k = 0 then Nat.one else let h = pow2 (k - 1) in Nat.add h h in
        Nat.equal (Nat.shift_left a k) (Nat.mul a (pow2 k)));
    qcheck "bit_length bounds value" gen_pos (fun a ->
        let n = Nat.bit_length a in
        Nat.compare a (Nat.shift_left Nat.one n) < 0
        && Nat.compare a (Nat.shift_left Nat.one (n - 1)) >= 0);
    qcheck "sqr = mul self" gen_nat (fun a -> Nat.equal (Nat.sqr a) (Nat.mul a a));
    qcheck "wnaf: odd bounded non-adjacent digits summing to the input"
      QCheck2.Gen.(pair gen_nat (int_range 2 6))
      (fun (a, w) ->
        let ds = Nat.wnaf ~width:w a in
        let n = Array.length ds in
        let value =
          Array.fold_right
            (fun d (pos, neg) ->
              let pos = Nat.shift_left pos 1 and neg = Nat.shift_left neg 1 in
              if d >= 0 then Nat.add pos (Nat.of_int d), neg
              else pos, Nat.add neg (Nat.of_int (-d)))
            ds (Nat.zero, Nat.zero)
        in
        let ok_digit i d =
          d = 0
          || d land 1 = 1
             && abs d < 1 lsl (w - 1)
             && Array.for_all (( = ) 0) (Array.sub ds (i + 1) (min (w - 1) (n - i - 1)))
        in
        Nat.equal (Nat.sub (fst value) (snd value)) a
        && n <= Nat.bit_length a + 1
        && (n = 0 || ds.(n - 1) <> 0)
        && Array.for_all Fun.id (Array.mapi ok_digit ds));
  ]

let suite = unit_tests @ property_tests
