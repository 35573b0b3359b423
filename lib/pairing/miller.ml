open Sc_bignum
open Sc_field
open Sc_ec
module FpM = Fp.Mont

(* The Miller loop of ê(P, ·), split in two.  [precompute] walks the
   base point's trajectory T in Jacobian coordinates (x = X/Z²,
   y = Y/Z³), and scales every line by an F_p* factor (2YZ³ for
   tangents, V·Z for chords) that the final exponentiation annihilates,
   so the walk is inversion-free.  Each line, evaluated at the
   distorted point φ(Q) = (−x_q, i·y_q), is affine in (x_q, y_q):

     l = (alpha + beta·x_q) + (gamma·y_q)·i

   and alpha/beta/gamma depend only on the trajectory, which the
   subgroup order's bit pattern fixes.  So [Tate] replays the whole
   loop from a table of per-iteration coefficients: one F_p
   multiplication and addition per line, no point arithmetic.

   From the tangent step (T = (X:Y:Z), M = 3X² + a·Z⁴, line scaled by
   2YZ³):   alpha = M·X − 2Y²,  beta = M·Z²,  gamma = 2YZ·Z².
   From the chord step through affine P (U = y_p·Z³ − Y,
   V = x_p·Z² − X, line scaled by V·Z):
            alpha = U·x_p − VZ·y_p,  beta = U,  gamma = V·Z. *)

type coeffs = { alpha : FpM.e; beta : FpM.e; gamma : FpM.e }

(* One loop iteration: the tangent line, plus the chord line when the
   order's bit is set.  [None] marks an eliminated factor (vertical
   line) or a step after T reached infinity: the replay multiplies
   nothing in for it. *)
type entry = { dbl : coeffs option; add : coeffs option }

type precomp = { base : Curve.point; entries : entry array; nbits : int }

type traj = {
  mutable tx : FpM.e;
  mutable ty : FpM.e;
  mutable tz : FpM.e;
  mutable inf : bool;
}

(* Tangent at T: record the line coefficients and double T in place. *)
let tangent fp am st =
  if st.inf then None
  else if FpM.is_zero st.ty then begin
    st.inf <- true;
    None
  end
  else begin
    let x = st.tx and y = st.ty and z = st.tz in
    let xx = FpM.sqr fp x in
    let yy = FpM.sqr fp y in
    let zz = FpM.sqr fp z in
    let m =
      FpM.add fp (FpM.add fp (FpM.double fp xx) xx)
        (FpM.mul fp am (FpM.sqr fp zz))
    in
    let two_yy = FpM.double fp yy in
    let alpha = FpM.sub fp (FpM.mul fp m x) two_yy in
    let beta = FpM.mul fp m zz in
    let z3 = FpM.double fp (FpM.mul fp y z) in
    let gamma = FpM.mul fp z3 zz in
    let s = FpM.double fp (FpM.double fp (FpM.mul fp x yy)) in
    let x3 = FpM.sub fp (FpM.sqr fp m) (FpM.double fp s) in
    let y3 =
      FpM.sub fp
        (FpM.mul fp m (FpM.sub fp s x3))
        (FpM.double fp (FpM.double fp (FpM.double fp (FpM.sqr fp yy))))
    in
    st.tx <- x3;
    st.ty <- y3;
    st.tz <- z3;
    Some { alpha; beta; gamma }
  end

(* Chord through T and the affine base: record the line and set
   T <- T + P. *)
let chord fp am st px py =
  if st.inf then None
  else begin
    let x = st.tx and y = st.ty and z = st.tz in
    let zz = FpM.sqr fp z in
    let u = FpM.sub fp (FpM.mul fp py (FpM.mul fp z zz)) y in
    let v = FpM.sub fp (FpM.mul fp px zz) x in
    if FpM.is_zero v then begin
      if FpM.is_zero u then
        (* T = P: tangent step (cannot happen for a prime-order Miller
           loop, but stay total). *)
        tangent fp am st
      else begin
        st.inf <- true;
        None
      end
    end
    else begin
      let vz = FpM.mul fp v z in
      let alpha = FpM.sub fp (FpM.mul fp u px) (FpM.mul fp vz py) in
      let vv = FpM.sqr fp v in
      let vvv = FpM.mul fp vv v in
      let vvx = FpM.mul fp vv x in
      let x3 = FpM.sub fp (FpM.sub fp (FpM.sqr fp u) vvv) (FpM.double fp vvx) in
      let y3 = FpM.sub fp (FpM.mul fp u (FpM.sub fp vvx x3)) (FpM.mul fp vvv y) in
      st.tx <- x3;
      st.ty <- y3;
      st.tz <- vz;
      Some { alpha; beta = u; gamma = vz }
    end
  end

let precompute ~fp ~curve ~order base =
  let nbits = Nat.bit_length order in
  let n = max (nbits - 1) 0 in
  let entries = Array.make n { dbl = None; add = None } in
  (match base with
   | Curve.Infinity -> () (* all entries skip; the replay yields f = 1 *)
   | Curve.Affine (bx, by) ->
     let am = FpM.enter fp (Curve.coeff_a curve) in
     let px = FpM.enter fp bx and py = FpM.enter fp by in
     let st = { tx = px; ty = py; tz = FpM.one fp; inf = false } in
     for j = 0 to n - 1 do
       let i = nbits - 2 - j in
       let dbl = tangent fp am st in
       let add =
         if Nat.test_bit order i then chord fp am st px py else None
       in
       entries.(j) <- { dbl; add }
     done);
  { base; entries; nbits }
