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

(* Montgomery's trick over canonical residues: one [inv] plus 3(n-1)
   multiplications instead of n inversions. *)
let batch_inv ctx (xs : el array) =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    Array.iter (fun x -> if is_zero x then raise Division_by_zero) xs;
    let prefix = Array.make n xs.(0) in
    for i = 1 to n - 1 do
      prefix.(i) <- mul ctx prefix.(i - 1) xs.(i)
    done;
    let acc = ref (inv ctx prefix.(n - 1)) in
    let out = Array.make n zero in
    for i = n - 1 downto 1 do
      out.(i) <- mul ctx !acc prefix.(i - 1);
      acc := mul ctx !acc xs.(i)
    done;
    out.(0) <- !acc;
    out
  end

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

  let add ctx = Montgomery.add (mont_exn ctx)
  let sub ctx = Montgomery.sub (mont_exn ctx)
  let add_lazy ctx = Montgomery.add_lazy (mont_exn ctx)
  let sub_lazy ctx = Montgomery.sub_lazy (mont_exn ctx)
  let neg ctx = Montgomery.neg (mont_exn ctx)
  let double ctx = Montgomery.double (mont_exn ctx)
  let mul ctx = Montgomery.mul (mont_exn ctx)
  let sqr ctx = Montgomery.sqr (mont_exn ctx)
  let is_zero = Montgomery.is_zero
  let equal = Montgomery.equal

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
