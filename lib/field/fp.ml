open Sc_bignum

type ctx = {
  modular : Modular.ctx;
  mont : Montgomery.ctx option; (* None for even characteristic *)
  p : Nat.t;
  sqrt_exp : Nat.t option; (* (p+1)/4 when p ≡ 3 (mod 4) *)
  inv_exp : Nat.t; (* p-2: a^(p-2) = a^-1 for prime p (Fermat) *)
}

type el = Nat.t

let create p =
  let modular = Modular.create p in
  let mont = if Nat.is_even p then None else Some (Montgomery.create p) in
  let sqrt_exp =
    if Nat.rem_int p 4 = 3
    then Some (Nat.shift_right (Nat.add p Nat.one) 2)
    else None
  in
  { modular; mont; p; sqrt_exp; inv_exp = Nat.sub p Nat.two }

let characteristic ctx = ctx.p
let zero = Nat.zero
let one = Nat.one
let of_nat ctx n = Modular.reduce ctx.modular n

let of_int ctx n =
  if n >= 0 then of_nat ctx (Nat.of_int n)
  else Modular.neg ctx.modular (of_nat ctx (Nat.of_int (-n)))

let to_nat e = e
let equal = Nat.equal
let is_zero = Nat.is_zero
let add ctx = Modular.add ctx.modular
let sub ctx = Modular.sub ctx.modular
let neg ctx = Modular.neg ctx.modular
let mul ctx = Modular.mul ctx.modular
let sqr ctx = Modular.sqr ctx.modular
let double ctx a = add ctx a a

(* Exponentiation runs in the Montgomery domain when the
   characteristic is odd (always, for prime fields in practice) —
   roughly twice as fast as the Barrett ladder. *)
let pow ctx b e =
  match ctx.mont with
  | Some mont -> Montgomery.pow mont b e
  | None -> Modular.pow ctx.modular b e

(* Fermat: every inversion is one ladder with the public exponent p-2,
   so it branches on nothing derived from its argument. *)
let inv ctx a = if is_zero a then raise Division_by_zero else pow ctx a ctx.inv_exp
let div ctx a b = mul ctx a (inv ctx b)

let sqrt ctx a =
  match ctx.sqrt_exp with
  | None -> invalid_arg "Fp.sqrt: characteristic is not 3 mod 4"
  | Some e ->
    if is_zero a then Some zero
    else begin
      let y = pow ctx a e in
      if equal (sqr ctx y) a then Some y else None
    end

let random ctx ~bytes_source = Nat.random_below ~bytes_source ctx.p

let mont_exn ctx =
  match ctx.mont with
  | Some m -> m
  | None -> invalid_arg "Fp.Mont: characteristic 2 has no Montgomery form"

module Mont = struct
  type e = Montgomery.mont

  let enter ctx a = Montgomery.to_mont (mont_exn ctx) a
  let leave ctx a = Montgomery.of_mont (mont_exn ctx) a
  let zero ctx = Montgomery.zero (mont_exn ctx)
  let one ctx = Montgomery.one (mont_exn ctx)

  let of_int ctx n =
    let m = mont_exn ctx in
    if n >= 0 then Montgomery.of_int m n
    else Montgomery.neg m (Montgomery.of_int m (-n))

  (* Eta-expanded: without flambda, [let mul ctx = Montgomery.mul m]
     builds a closure on every call. *)
  let add ctx a b = Montgomery.add (mont_exn ctx) a b
  let sub ctx a b = Montgomery.sub (mont_exn ctx) a b
  let add_lazy ctx a b = Montgomery.add_lazy (mont_exn ctx) a b
  let sub_lazy ctx a b = Montgomery.sub_lazy (mont_exn ctx) a b
  let neg ctx a = Montgomery.neg (mont_exn ctx) a
  let double ctx a = Montgomery.double (mont_exn ctx) a
  let mul ctx a b = Montgomery.mul (mont_exn ctx) a b
  let sqr ctx a = Montgomery.sqr (mont_exn ctx) a
  let is_zero = Montgomery.is_zero
  let equal = Montgomery.equal
  let cswap = Montgomery.cswap

  type table = Montgomery.table

  let table = Montgomery.table
  let select = Montgomery.select

  let inv ctx a =
    if Montgomery.is_zero a then raise Division_by_zero
    else Montgomery.pow_mont (mont_exn ctx) a ctx.inv_exp

  let batch_inv ctx xs =
    match Montgomery.batch_inv (mont_exn ctx) ~inv:(inv ctx) xs with
    | exception Not_found -> raise Division_by_zero
    | r -> r
end
