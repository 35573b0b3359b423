type t = { sign : int; mag : Nat.t }

(* Invariant: sign is +1 or -1, and sign = +1 whenever mag is zero. *)

let make sign mag = if Nat.is_zero mag then { sign = 1; mag } else { sign; mag }

let zero = { sign = 1; mag = Nat.zero }
let one = { sign = 1; mag = Nat.one }

let of_nat mag = { sign = 1; mag }

let neg a = make (-a.sign) a.mag
let abs a = a.mag
let sign a = if Nat.is_zero a.mag then 0 else a.sign

let add a b =
  if a.sign = b.sign then make a.sign (Nat.add a.mag b.mag)
  else begin
    let c = Nat.compare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then make a.sign (Nat.sub a.mag b.mag)
    else make b.sign (Nat.sub b.mag a.mag)
  end

let sub a b = add a (neg b)
let mul a b = make (a.sign * b.sign) (Nat.mul a.mag b.mag)
