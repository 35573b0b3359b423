(* Little-endian limbs in native ints.  Base 2^26 keeps limb products
   (< 2^52) and a full column of carries well inside the 63-bit native
   range, so the schoolbook loops below never overflow. *)

let base_bits = 26
let base = 1 lsl base_bits
let limb_mask = base - 1

type t = int array

let zero : t = [||]
let one : t = [| 1 |]
let two : t = [| 2 |]

let is_zero a = Array.length a = 0
let is_one a = Array.length a = 1 && a.(0) = 1
let is_even a = Array.length a = 0 || a.(0) land 1 = 0

(* Strip high zero limbs; every constructor must return through here. *)
let normalize (a : int array) : t =
  let n = Array.length a in
  let rec top i = if i >= 0 && a.(i) = 0 then top (i - 1) else i in
  let hi = top (n - 1) in
  if hi = n - 1 then a else Array.sub a 0 (hi + 1)

let of_int n =
  if n < 0 then invalid_arg "Nat.of_int: negative";
  if n = 0 then zero
  else begin
    let rec count acc n = if n = 0 then acc else count (acc + 1) (n lsr base_bits) in
    let len = count 0 n in
    let a = Array.make len 0 in
    let rec fill i n =
      if n <> 0 then begin
        a.(i) <- n land limb_mask;
        fill (i + 1) (n lsr base_bits)
      end
    in
    fill 0 n;
    a
  end

let to_int_opt a =
  let n = Array.length a in
  if n = 0 then Some 0
  else begin
    let rec width acc v = if v = 0 then acc else width (acc + 1) (v lsr 1) in
    let bits = ((n - 1) * base_bits) + width 0 a.(n - 1) in
    if bits > 62 then None
    else begin
      let acc = ref 0 in
      for i = n - 1 downto 0 do
        acc := (!acc lsl base_bits) lor a.(i)
      done;
      Some !acc
    end
  end

let to_int_exn a =
  match to_int_opt a with
  | Some i -> i
  | None -> failwith "Nat.to_int_exn: out of int range"

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let equal a b = compare a b = 0

let add a b =
  let la = Array.length a and lb = Array.length b in
  let lo, hi, llo, lhi = if la <= lb then a, b, la, lb else b, a, lb, la in
  let r = Array.make (lhi + 1) 0 in
  let carry = ref 0 in
  for i = 0 to llo - 1 do
    let s = lo.(i) + hi.(i) + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr base_bits
  done;
  for i = llo to lhi - 1 do
    let s = hi.(i) + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr base_bits
  done;
  r.(lhi) <- !carry;
  normalize r

let sub a b =
  if compare a b < 0 then invalid_arg "Nat.sub: negative result";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let bi = if i < lb then b.(i) else 0 in
    let d = a.(i) - bi - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  normalize r

let add_int a k =
  if k < 0 then sub a (of_int (-k)) else add a (of_int k)

let mul_school a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let p = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- p land limb_mask;
          carry := p lsr base_bits
        done;
        r.(i + lb) <- r.(i + lb) + !carry
      end
    done;
    normalize r
  end

let karatsuba_threshold = 24

(* Split a number at limb index [k] into (low, high). *)
let split_at a k =
  let la = Array.length a in
  if la <= k then a, zero
  else normalize (Array.sub a 0 k), normalize (Array.sub a k (la - k))

let shift_limbs a k =
  if is_zero a || k = 0 then a
  else begin
    let la = Array.length a in
    let r = Array.make (la + k) 0 in
    Array.blit a 0 r k la;
    r
  end

let rec mul a b =
  let la = Array.length a and lb = Array.length b in
  if la < karatsuba_threshold || lb < karatsuba_threshold then mul_school a b
  else begin
    let k = (max la lb + 1) / 2 in
    let a0, a1 = split_at a k and b0, b1 = split_at b k in
    let z0 = mul a0 b0 in
    let z2 = mul a1 b1 in
    let z1 = sub (mul (add a0 a1) (add b0 b1)) (add z0 z2) in
    add z0 (add (shift_limbs z1 k) (shift_limbs z2 (2 * k)))
  end

let sqr a = mul a a

let shift_left a bits =
  if bits < 0 then invalid_arg "Nat.shift_left";
  if bits = 0 || is_zero a then a
  else begin
    let limbs = bits / base_bits and rem_bits = bits mod base_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let v = (a.(i) lsl rem_bits) lor !carry in
      r.(i + limbs) <- v land limb_mask;
      carry := v lsr base_bits
    done;
    r.(la + limbs) <- !carry;
    normalize r
  end

let shift_right a bits =
  if bits < 0 then invalid_arg "Nat.shift_right";
  if bits = 0 || is_zero a then a
  else begin
    let limbs = bits / base_bits and rem_bits = bits mod base_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else begin
      let len = la - limbs in
      let r = Array.make len 0 in
      for i = 0 to len - 1 do
        let lo = a.(i + limbs) lsr rem_bits in
        let hi =
          if rem_bits = 0 || i + limbs + 1 >= la then 0
          else (a.(i + limbs + 1) lsl (base_bits - rem_bits)) land limb_mask
        in
        r.(i) <- lo lor hi
      done;
      normalize r
    end
  end

let bit_length a =
  let la = Array.length a in
  if la = 0 then 0
  else begin
    let rec width acc v = if v = 0 then acc else width (acc + 1) (v lsr 1) in
    ((la - 1) * base_bits) + width 0 a.(la - 1)
  end

let test_bit a i =
  let limb = i / base_bits and off = i mod base_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

(* Width-w NAF read straight off the bits, with a carry standing in
   for the additions and subtractions of the textbook recoding: at a
   position where the running value r = ⌊k/2^i⌋ + carry is odd, the
   digit is r mod 2^w taken into (−2^(w−1), 2^(w−1)), the next w − 1
   digits are zero, and a negative digit carries one into position
   i + w.  At an even position the carry passes on unchanged (bit i
   equals it). *)
let wnaf ~width k =
  if width < 2 || width > 20 then invalid_arg "Nat.wnaf: width";
  let n = bit_length k in
  let digits = Array.make (n + 1) 0 in
  let window i =
    let v = ref 0 in
    for j = width - 1 downto 0 do
      v := (!v lsl 1) lor (if test_bit k (i + j) then 1 else 0)
    done;
    !v
  in
  let full = 1 lsl width and half = 1 lsl (width - 1) in
  let rec go i carry =
    if i <= n then begin
      if (if test_bit k i then 1 else 0) = carry then go (i + 1) carry
      else begin
        let v = (window i + carry) land (full - 1) in
        let d = if v >= half then v - full else v in
        digits.(i) <- d;
        go (i + width) (if d < 0 then 1 else 0)
      end
    end
  in
  go 0 0;
  let len = ref (n + 1) in
  while !len > 0 && digits.(!len - 1) = 0 do
    decr len
  done;
  Array.sub digits 0 !len

(* Division by a single limb; returns (quotient, remainder). *)
let divmod_limb a d =
  if d = 0 then raise Division_by_zero;
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl base_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  normalize q, !r

(* Knuth Algorithm D (TAOCP vol. 2, 4.3.1) on 26-bit limbs.  The
   divisor is shifted so its top limb has the high bit set, which
   bounds the trial-quotient correction loop to at most two passes. *)
let divmod_knuth a b =
  let n = Array.length b in
  let shift =
    let rec width acc v = if v = 0 then acc else width (acc + 1) (v lsr 1) in
    base_bits - width 0 b.(n - 1)
  in
  let u_full = shift_left a shift in
  let v = shift_left b shift in
  let m = Array.length u_full - n in
  (* Working copy with one extra high limb. *)
  let u = Array.make (Array.length u_full + 1) 0 in
  Array.blit u_full 0 u 0 (Array.length u_full);
  let q = Array.make (m + 1) 0 in
  let vh = v.(n - 1) and vl = v.(n - 2) in
  for j = m downto 0 do
    let top = (u.(j + n) lsl base_bits) lor u.(j + n - 1) in
    let qhat = ref (top / vh) and rhat = ref (top mod vh) in
    let continue = ref true in
    while !continue do
      if !qhat >= base || !qhat * vl > (!rhat lsl base_bits) lor u.(j + n - 2)
      then begin
        decr qhat;
        rhat := !rhat + vh;
        if !rhat >= base then continue := false
      end
      else continue := false
    done;
    (* Multiply-subtract u[j..j+n] -= qhat * v. *)
    let carry = ref 0 and borrow = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * v.(i)) + !carry in
      carry := p lsr base_bits;
      let d = u.(i + j) - (p land limb_mask) - !borrow in
      if d < 0 then begin
        u.(i + j) <- d + base;
        borrow := 1
      end else begin
        u.(i + j) <- d;
        borrow := 0
      end
    done;
    let d = u.(j + n) - !carry - !borrow in
    if d < 0 then begin
      (* qhat was one too large: add the divisor back. *)
      u.(j + n) <- (d + base) land limb_mask;
      decr qhat;
      let c = ref 0 in
      for i = 0 to n - 1 do
        let s = u.(i + j) + v.(i) + !c in
        u.(i + j) <- s land limb_mask;
        c := s lsr base_bits
      done;
      u.(j + n) <- (u.(j + n) + !c) land limb_mask
    end
    else u.(j + n) <- d;
    q.(j) <- !qhat
  done;
  let r = normalize (Array.sub u 0 n) in
  normalize q, shift_right r shift

let divmod a b =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then zero, a
  else if Array.length b = 1 then begin
    let q, r = divmod_limb a b.(0) in
    q, of_int r
  end
  else divmod_knuth a b

let rem a b = snd (divmod a b)

let rem_int a d =
  if d <= 0 then invalid_arg "Nat.rem_int: non-positive divisor";
  if d < base then snd (divmod_limb a d)
  else to_int_exn (rem a (of_int d))

(* Extended Euclid on (m, a mod m).  The coefficients of a beside
   consecutive remainders alternate in sign and stay below m, so only
   their magnitudes are kept: [pos] says whether the one beside [r1]
   is positive, and a negative one ends as m minus its magnitude. *)
let inv_mod a m =
  if compare m two < 0 then invalid_arg "Nat.inv_mod: modulus < 2";
  let rec go r0 u0 r1 u1 pos =
    if is_zero r1 then begin
      if not (is_one r0) then raise Not_found;
      if pos then sub m u0 else u0
    end
    else begin
      let q, r2 = divmod r0 r1 in
      go r1 u1 r2 (add u0 (mul q u1)) (not pos)
    end
  in
  go m zero (rem a m) one true

let to_hex a =
  if is_zero a then "0"
  else begin
    let nibbles = (bit_length a + 3) / 4 in
    let buf = Buffer.create nibbles in
    for i = nibbles - 1 downto 0 do
      let limb = (i * 4) / base_bits and off = (i * 4) mod base_bits in
      let v =
        let lo = a.(limb) lsr off in
        let hi =
          if off > base_bits - 4 && limb + 1 < Array.length a
          then a.(limb + 1) lsl (base_bits - off)
          else 0
        in
        (lo lor hi) land 0xF
      in
      Buffer.add_char buf "0123456789abcdef".[v]
    done;
    (* Strip a possible leading zero nibble. *)
    let s = Buffer.contents buf in
    if String.length s > 1 && s.[0] = '0'
    then String.sub s 1 (String.length s - 1)
    else s
  end

let to_decimal a =
  if is_zero a then "0"
  else begin
    (* Peel 7 decimal digits at a time (10^7 < 2^26 is a valid limb
       divisor). *)
    let chunk = 10_000_000 in
    let rec peel acc a =
      if is_zero a then acc
      else begin
        let q, r = divmod_limb a chunk in
        peel ((q, r) :: acc) q
      end
    in
    match peel [] a with
    | [] -> "0"
    | (_, first) :: rest ->
      let buf = Buffer.create 32 in
      Buffer.add_string buf (string_of_int first);
      List.iter (fun (_, r) -> Buffer.add_string buf (Printf.sprintf "%07d" r)) rest;
      Buffer.contents buf
  end

let of_bytes_be s =
  let acc = ref zero in
  String.iter (fun c -> acc := add_int (shift_left !acc 8) (Char.code c)) s;
  !acc

let to_bytes_be ?len a =
  let needed = (bit_length a + 7) / 8 in
  let needed = max needed 1 in
  let out_len =
    match len with
    | None -> needed
    | Some l ->
      if l < needed then invalid_arg "Nat.to_bytes_be: value too large for len";
      l
  in
  let b = Bytes.make out_len '\000' in
  let rec fill a i =
    if not (is_zero a) && i >= 0 then begin
      Bytes.set b i (Char.chr (a.(0) land 0xFF));
      fill (shift_right a 8) (i - 1)
    end
  in
  fill a (out_len - 1);
  Bytes.to_string b

let random ~bytes_source ~bits =
  if bits <= 0 then zero
  else begin
    let nbytes = (bits + 7) / 8 in
    let s = bytes_source nbytes in
    let extra = (nbytes * 8) - bits in
    shift_right (of_bytes_be s) extra
  end

let random_below ~bytes_source n =
  if is_zero n then invalid_arg "Nat.random_below: zero bound";
  let bits = bit_length n in
  let rec try_draw () =
    let candidate = random ~bytes_source ~bits in
    if compare candidate n < 0 then candidate else try_draw ()
  in
  try_draw ()

let to_limbs a = Array.copy a

let of_limbs limbs =
  Array.iter
    (fun l ->
      if l < 0 || l >= base then invalid_arg "Nat.of_limbs: limb out of range")
    limbs;
  normalize (Array.copy limbs)

let pp fmt a = Format.pp_print_string fmt (to_decimal a)
