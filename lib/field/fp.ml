open Sc_bignum
module M = Montgomery

type ctx = {
  mont : M.ctx;
  p : Nat.t;
  sqrt_exp : Nat.t option; (* (p+1)/4 when p ≡ 3 (mod 4) *)
  inv_exp : Nat.t; (* p-2: a^(p-2) = a^-1 for prime p (Fermat) *)
}

type el = M.mont

let create p =
  let mont = M.create p in
  let sqrt_exp =
    if Nat.rem_int p 4 = 3
    then Some (Nat.shift_right (Nat.add p Nat.one) 2)
    else None
  in
  { mont; p; sqrt_exp; inv_exp = Nat.sub p Nat.two }

let characteristic ctx = ctx.p
let zero ctx = M.zero ctx.mont
let one ctx = M.one ctx.mont
let of_nat ctx n = M.to_mont ctx.mont n
let to_nat ctx e = M.of_mont ctx.mont e

let of_int ctx n =
  if n >= 0 then M.of_int ctx.mont n else M.neg ctx.mont (M.of_int ctx.mont (-n))

let equal = M.equal
let is_zero = M.is_zero

(* Eta-expanded: without flambda, [let mul ctx = M.mul ctx.mont]
   builds a closure on every call. *)
let add ctx a b = M.add ctx.mont a b
let sub ctx a b = M.sub ctx.mont a b
let add_lazy ctx a b = M.add_lazy ctx.mont a b
let sub_lazy ctx a b = M.sub_lazy ctx.mont a b
let neg ctx a = M.neg ctx.mont a
let double ctx a = M.double ctx.mont a
let mul ctx a b = M.mul ctx.mont a b
let sqr ctx a = M.sqr ctx.mont a

(* Fermat: every inversion is one ladder with the public exponent p-2,
   so it branches on nothing derived from its argument. *)
let inv ctx a =
  if is_zero a then raise Division_by_zero else M.pow_mont ctx.mont a ctx.inv_exp

let batch_inv ctx xs =
  match M.batch_inv ctx.mont ~inv:(inv ctx) xs with
  | exception Not_found -> raise Division_by_zero
  | r -> r

let sqrt ctx a =
  match ctx.sqrt_exp with
  | None -> invalid_arg "Fp.sqrt: characteristic is not 3 mod 4"
  | Some e ->
    if is_zero a then Some a
    else begin
      let y = M.pow_mont ctx.mont a e in
      if equal (sqr ctx y) a then Some y else None
    end

let random ctx ~bytes_source = of_nat ctx (Nat.random_below ~bytes_source ctx.p)
let cswap = M.cswap

type table = M.table

let table = M.table
let select = M.select
