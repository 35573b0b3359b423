open Sc_bignum

type el = { re : Fp.el; im : Fp.el }

let check_ctx ctx =
  if Nat.rem_int (Fp.characteristic ctx) 4 <> 3
  then invalid_arg "Fp2: characteristic must be 3 mod 4 for i^2 = -1"

let one = { re = Fp.one; im = Fp.zero }
let make re im = { re; im }
let equal a b = Fp.equal a.re b.re && Fp.equal a.im b.im

(* (a + bi)(c + di) = (ac − bd) + (ad + bc)i, three base squarings or
   four multiplications; schoolbook is fine at our sizes. *)
let mul ctx a b =
  let ac = Fp.mul ctx a.re b.re and bd = Fp.mul ctx a.im b.im in
  let ad = Fp.mul ctx a.re b.im and bc = Fp.mul ctx a.im b.re in
  { re = Fp.sub ctx ac bd; im = Fp.add ctx ad bc }

(* (a + bi)² = (a−b)(a+b) + 2ab·i *)
let sqr ctx a =
  let re = Fp.mul ctx (Fp.sub ctx a.re a.im) (Fp.add ctx a.re a.im) in
  let im = Fp.double ctx (Fp.mul ctx a.re a.im) in
  { re; im }

let norm ctx a = Fp.add ctx (Fp.sqr ctx a.re) (Fp.sqr ctx a.im)

(* Montgomery-resident mirror of the arithmetic above, componentwise
   over Fp.Mont — the pairing layer runs its whole hot path here. *)
module Mont = struct
  module M = Fp.Mont

  type e = { re : M.e; im : M.e }

  let enter ctx (a : el) = { re = M.enter ctx a.re; im = M.enter ctx a.im }

  let leave ctx a : el = { re = M.leave ctx a.re; im = M.leave ctx a.im }
  let make re im = { re; im }
  let one ctx = { re = M.one ctx; im = M.zero ctx }
  let is_zero a = M.is_zero a.re && M.is_zero a.im

  (* Karatsuba over i² = -1: three base multiplications instead of
     four.  The two operand sums are lazy (< 2m each), which REDC
     absorbs; every multiplication output is canonical again, so the
     trailing subtractions stay strict. *)
  let mul ctx a b =
    let ac = M.mul ctx a.re b.re and bd = M.mul ctx a.im b.im in
    let t = M.mul ctx (M.add_lazy ctx a.re a.im) (M.add_lazy ctx b.re b.im) in
    { re = M.sub ctx ac bd; im = M.sub ctx (M.sub ctx t ac) bd }

  let sqr ctx a =
    let re = M.mul ctx (M.sub ctx a.re a.im) (M.add_lazy ctx a.re a.im) in
    let im = M.double ctx (M.mul ctx a.re a.im) in
    { re; im }

  let conj ctx a = { a with im = M.neg ctx a.im }
  let norm ctx a = M.add ctx (M.sqr ctx a.re) (M.sqr ctx a.im)

  type table = { res : M.table; ims : M.table }

  let table (entries : e array) =
    {
      res = M.table (Array.map (fun a -> a.re) entries);
      ims = M.table (Array.map (fun a -> a.im) entries);
    }

  let select t i = { re = M.select t.res i; im = M.select t.ims i }

  let inv ctx a =
    let n = norm ctx a in
    if M.is_zero n then raise Division_by_zero;
    let ninv = M.inv ctx n in
    { re = M.mul ctx a.re ninv; im = M.neg ctx (M.mul ctx a.im ninv) }

  let pow ctx b e =
    let nbits = Nat.bit_length e in
    let rec go acc i =
      if i < 0 then acc
      else begin
        let acc = sqr ctx acc in
        let acc = if Nat.test_bit e i then mul ctx acc b else acc in
        go acc (i - 1)
      end
    in
    if nbits = 0 then one ctx else go (one ctx) (nbits - 1)
end
