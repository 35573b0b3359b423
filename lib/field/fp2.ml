open Sc_bignum

type el = { re : Fp.el; im : Fp.el }

let check_ctx ctx =
  if Nat.rem_int (Fp.characteristic ctx) 4 <> 3
  then invalid_arg "Fp2: characteristic must be 3 mod 4 for i^2 = -1"

let make re im = { re; im }
let one ctx = { re = Fp.one ctx; im = Fp.zero ctx }
let equal a b = Fp.equal a.re b.re && Fp.equal a.im b.im
let is_zero a = Fp.is_zero a.re && Fp.is_zero a.im

(* Karatsuba over i² = -1: (a + bi)(c + di) = (ac − bd) + ((a+b)(c+d)
   − ac − bd)i, three base multiplications instead of four.  The two
   operand sums are lazy (< 2m each), which REDC absorbs; every
   multiplication output is canonical again, so the trailing
   subtractions stay strict. *)
let mul ctx a b =
  let ac = Fp.mul ctx a.re b.re and bd = Fp.mul ctx a.im b.im in
  let t = Fp.mul ctx (Fp.add_lazy ctx a.re a.im) (Fp.add_lazy ctx b.re b.im) in
  { re = Fp.sub ctx ac bd; im = Fp.sub ctx (Fp.sub ctx t ac) bd }

(* (a + bi)² = (a−b)(a+b) + 2ab·i *)
let sqr ctx a =
  let re = Fp.mul ctx (Fp.sub ctx a.re a.im) (Fp.add_lazy ctx a.re a.im) in
  let im = Fp.double ctx (Fp.mul ctx a.re a.im) in
  { re; im }

let conj ctx a = { a with im = Fp.neg ctx a.im }
let norm ctx a = Fp.add ctx (Fp.sqr ctx a.re) (Fp.sqr ctx a.im)

type table = { res : Fp.table; ims : Fp.table }

let table (entries : el array) =
  {
    res = Fp.table (Array.map (fun a -> a.re) entries);
    ims = Fp.table (Array.map (fun a -> a.im) entries);
  }

let select t i = { re = Fp.select t.res i; im = Fp.select t.ims i }

let inv ctx a =
  let n = norm ctx a in
  if Fp.is_zero n then raise Division_by_zero;
  let ninv = Fp.inv ctx n in
  { re = Fp.mul ctx a.re ninv; im = Fp.neg ctx (Fp.mul ctx a.im ninv) }

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
