open Sc_bignum
open Sc_field
open Sc_ec

(* The Miller loop of ê(P, ·), split in two.  [precompute] walks the
   base point's trajectory T in Jacobian coordinates (x = X/Z²,
   y = Y/Z³) along the NAF of the subgroup order q: a tangent per
   digit, then a chord through P on a +1 digit and through −P on a −1
   digit.  Each line, evaluated at the distorted point
   φ(Q) = (−x_q, i·y_q), is affine in (x_q, y_q):

     l = (alpha + beta·x_q) + (gamma·y_q)·i

   and alpha/beta/gamma depend only on the trajectory, which the NAF
   of q fixes.  So [Tate] replays the whole loop from a table of
   per-digit coefficients, with no point arithmetic.

   From the tangent step (T = (X:Y:Z), M = 3X² + Z⁴, line scaled by
   2YZ³):   alpha = M·X − 2Y²,  beta = M·Z²,  gamma = 2YZ·Z².
   From the chord step through affine (x, y) = ±P (U = y·Z³ − Y,
   V = x·Z² − X, line scaled by V·Z):
            alpha = U·x − VZ·y,  beta = U,  gamma = V·Z.

   Every recorded line is then divided by its gamma, one batch
   inversion for the whole table, so the replay forms a line as
   (alpha + beta·x_q) + y_q·i at one multiplication.  All these
   scalings, and the vertical lines the loop leaves out (the chord
   through −P also drops the vertical at P), are factors in F_p*,
   which the final exponentiation annihilates: the pairing value is
   that of the binary loop, bit for bit. *)

type coeffs = { alpha : Fp.el; beta : Fp.el }

(* One NAF digit: the tangent line, plus the chord line when the digit
   is non-zero.  [None] marks an eliminated factor (vertical line) or
   a step after T reached infinity: the replay multiplies nothing in
   for it. *)
type entry = { dbl : coeffs option; add : coeffs option }

type precomp = {
  base : Curve.point;
  entries : entry array;
  nbits : int;
  lines : int;
}

type traj = {
  mutable tx : Fp.el;
  mutable ty : Fp.el;
  mutable tz : Fp.el;
  mutable inf : bool;
}

(* A recorded line before normalization: alpha, beta, gamma. *)
type raw = Fp.el * Fp.el * Fp.el

(* Tangent at T: the line's coefficients, and T doubled in place. *)
let tangent fp st : raw option =
  if st.inf then None
  else if Fp.is_zero st.ty then begin
    st.inf <- true;
    None
  end
  else begin
    let x = st.tx and y = st.ty and z = st.tz in
    let xx = Fp.sqr fp x in
    let yy = Fp.sqr fp y in
    let zz = Fp.sqr fp z in
    let m = Fp.add fp (Fp.add fp (Fp.double fp xx) xx) (Fp.sqr fp zz) in
    let two_yy = Fp.double fp yy in
    let alpha = Fp.sub fp (Fp.mul fp m x) two_yy in
    let beta = Fp.mul fp m zz in
    let z3 = Fp.double fp (Fp.mul fp y z) in
    let gamma = Fp.mul fp z3 zz in
    let s = Fp.double fp (Fp.double fp (Fp.mul fp x yy)) in
    let x3 = Fp.sub fp (Fp.sqr fp m) (Fp.double fp s) in
    let y3 =
      Fp.sub fp
        (Fp.mul fp m (Fp.sub fp s x3))
        (Fp.double fp (Fp.double fp (Fp.double fp (Fp.sqr fp yy))))
    in
    st.tx <- x3;
    st.ty <- y3;
    st.tz <- z3;
    Some (alpha, beta, gamma)
  end

(* Chord through T and the affine point (px, py): the line, and
   T <- T + (px, py). *)
let chord fp st px py : raw option =
  if st.inf then None
  else begin
    let x = st.tx and y = st.ty and z = st.tz in
    let zz = Fp.sqr fp z in
    let u = Fp.sub fp (Fp.mul fp py (Fp.mul fp z zz)) y in
    let v = Fp.sub fp (Fp.mul fp px zz) x in
    if Fp.is_zero v then begin
      if Fp.is_zero u then
        (* T = (px, py): tangent step (cannot happen for a prime-order
           Miller loop, but stay total). *)
        tangent fp st
      else begin
        st.inf <- true;
        None
      end
    end
    else begin
      let vz = Fp.mul fp v z in
      let alpha = Fp.sub fp (Fp.mul fp u px) (Fp.mul fp vz py) in
      let vv = Fp.sqr fp v in
      let vvv = Fp.mul fp vv v in
      let vvx = Fp.mul fp vv x in
      let x3 = Fp.sub fp (Fp.sub fp (Fp.sqr fp u) vvv) (Fp.double fp vvx) in
      let y3 = Fp.sub fp (Fp.mul fp u (Fp.sub fp vvx x3)) (Fp.mul fp vvv y) in
      st.tx <- x3;
      st.ty <- y3;
      st.tz <- vz;
      Some (alpha, u, vz)
    end
  end

(* Divide every recorded line by its gamma (never zero: 2YZ³ with
   Y, Z ≠ 0 for a tangent, V·Z with V, Z ≠ 0 for a chord). *)
let normalize fp (raws : (raw option * raw option) array) =
  let gammas =
    Array.of_list
      (List.concat_map
         (fun (d, a) -> List.filter_map (Option.map (fun (_, _, g) -> g)) [ d; a ])
         (Array.to_list raws))
  in
  let inv = Fp.batch_inv fp gammas in
  let next = ref 0 in
  let scale = function
    | None -> None
    | Some (alpha, beta, _) ->
      let gi = inv.(!next) in
      incr next;
      Some { alpha = Fp.mul fp alpha gi; beta = Fp.mul fp beta gi }
  in
  Array.map
    (fun (d, a) ->
      let dbl = scale d in
      { dbl; add = scale a })
    raws,
  Array.length gammas

let precompute ~fp ~order base =
  let naf = Nat.wnaf ~width:2 order in
  let n = max (Array.length naf - 1) 0 in
  let raws = Array.make n (None, None) in
  (match base with
   | Curve.Infinity -> () (* all entries skip; the replay yields f = 1 *)
   | Curve.Affine (px, py) ->
     let npy = Fp.neg fp py in
     let st = { tx = px; ty = py; tz = Fp.one fp; inf = false } in
     for j = 0 to n - 1 do
       let d = naf.(n - 1 - j) in
       let dbl = tangent fp st in
       let add =
         if d > 0 then chord fp st px py
         else if d < 0 then chord fp st px npy
         else None
       in
       raws.(j) <- dbl, add
     done);
  let entries, lines = normalize fp raws in
  { base; entries; nbits = Nat.bit_length order; lines }
