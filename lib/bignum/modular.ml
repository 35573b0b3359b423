type ctx = {
  m : Nat.t;
  k : int; (* limb count of m *)
  mu : Nat.t; (* floor(B^(2k) / m), B = 2^26 *)
  bk1_bits : int; (* (k+1) * 26, for truncations mod B^(k+1) *)
}

let limb_bits = Nat.base_bits

let create m =
  if Nat.compare m Nat.two < 0 then invalid_arg "Modular.create: modulus < 2";
  let k = Nat.num_limbs m in
  let b2k = Nat.shift_left Nat.one (2 * k * limb_bits) in
  let mu = Nat.div b2k m in
  { m; k; mu; bk1_bits = (k + 1) * limb_bits }

(* Keep the low (k+1) limbs of [x]. *)
let trunc ctx x =
  let hi = Nat.shift_right x ctx.bk1_bits in
  if Nat.is_zero hi then x else Nat.sub x (Nat.shift_left hi ctx.bk1_bits)

let barrett ctx x =
  let q1 = Nat.shift_right x ((ctx.k - 1) * limb_bits) in
  let q3 = Nat.shift_right (Nat.mul q1 ctx.mu) ((ctx.k + 1) * limb_bits) in
  let r1 = trunc ctx x in
  let r2 = trunc ctx (Nat.mul q3 ctx.m) in
  let r =
    if Nat.compare r1 r2 >= 0 then Nat.sub r1 r2
    else Nat.sub (Nat.add r1 (Nat.shift_left Nat.one ctx.bk1_bits)) r2
  in
  let rec fixup r =
    if Nat.compare r ctx.m >= 0 then fixup (Nat.sub r ctx.m) else r
  in
  fixup r

let reduce ctx x =
  if Nat.compare x ctx.m < 0 then x
  else if Nat.num_limbs x <= 2 * ctx.k then barrett ctx x
  else Nat.rem x ctx.m

let add ctx a b =
  let s = Nat.add a b in
  if Nat.compare s ctx.m >= 0 then Nat.sub s ctx.m else s

let sub ctx a b =
  if Nat.compare a b >= 0 then Nat.sub a b else Nat.sub (Nat.add a ctx.m) b

let neg ctx a = if Nat.is_zero a then a else Nat.sub ctx.m a
let mul ctx a b = reduce ctx (Nat.mul a b)
let sqr ctx a = reduce ctx (Nat.sqr a)

let pow ctx b e =
  let b = reduce ctx b in
  let nbits = Nat.bit_length e in
  let rec go acc i =
    if i < 0 then acc
    else begin
      let acc = sqr ctx acc in
      let acc = if Nat.test_bit e i then mul ctx acc b else acc in
      go acc (i - 1)
    end
  in
  if nbits = 0 then reduce ctx Nat.one else go Nat.one (nbits - 1)

let egcd a b =
  (* Iterative extended Euclid maintaining r = a*x + b*y. *)
  let rec go r0 x0 y0 r1 x1 y1 =
    if Nat.is_zero r1 then r0, x0, y0
    else begin
      let q, r2 = Nat.divmod r0 r1 in
      let qs = Signed.of_nat q in
      let x2 = Signed.sub x0 (Signed.mul qs x1) in
      let y2 = Signed.sub y0 (Signed.mul qs y1) in
      go r1 x1 y1 r2 x2 y2
    end
  in
  go a Signed.one Signed.zero b Signed.zero Signed.one

let jacobi a n =
  if Nat.is_zero n || Nat.is_even n then
    invalid_arg "Modular.jacobi: modulus must be odd and positive";
  (* Binary Jacobi: strip twos using the (2|n) rule, then flip by
     quadratic reciprocity and reduce. *)
  let rec go a n acc =
    let a = Nat.rem a n in
    if Nat.is_zero a then if Nat.is_one n then acc else 0
    else begin
      let rec strip a acc =
        if Nat.is_even a then begin
          let acc =
            match Nat.rem_int n 8 with 3 | 5 -> -acc | _ -> acc
          in
          strip (Nat.shift_right a 1) acc
        end
        else a, acc
      in
      let a, acc = strip a acc in
      let acc =
        if Nat.rem_int a 4 = 3 && Nat.rem_int n 4 = 3 then -acc else acc
      in
      go n a acc
    end
  in
  go a n 1

let of_signed ctx s =
  let r = Nat.rem (Signed.abs s) ctx.m in
  if Signed.sign s < 0 then neg ctx r else r

let inv ctx a =
  let a = reduce ctx a in
  if Nat.is_zero a then raise Not_found;
  let g, x, _ = egcd a ctx.m in
  if not (Nat.is_one g) then raise Not_found;
  of_signed ctx x
