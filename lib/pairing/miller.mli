(** Fixed-base Miller precomputation.

    Every line the Miller loop multiplies into its accumulator is
    affine in the distorted evaluation point φ(Q) = (−x_q, i·y_q).
    Scaled by an F_p* factor, which the final exponentiation
    annihilates, it reads

    {v l = (alpha + beta·x_q) + y_q·i v}

    with coefficients depending only on the loop base point's
    trajectory — fixed once the base and the subgroup order are.  For
    a pairing argument that never changes (the generator, the system
    public key, a designated verifier's key) the whole loop can thus
    be replayed from a table of coefficients,
    replacing all Jacobian point arithmetic with one multiplication
    and one addition per line; {!Tate.pairing_precomp} is the
    consumer.  The uncached {!Tate.pairing} builds a table and replays
    it once.

    The loop walks the non-adjacent form of the order (digits in
    {−1, 0, 1}, no two adjacent non-zero), taking the chord through
    −P on a −1 digit, so it records one tangent per digit below the
    top one and a chord per non-zero digit but the top and the last
    (whose chord is vertical).  A table holds [NAF length − 1] entries
    of up to two lines (two field elements each). *)

open Sc_bignum
open Sc_field
open Sc_ec

type coeffs = { alpha : Fp.el; beta : Fp.el }
(** A line divided by its [y_q] coefficient. *)

type entry = { dbl : coeffs option; add : coeffs option }
(** One NAF digit, most-significant first: the tangent line, plus the
    chord line on a non-zero digit.  [None] marks an eliminated
    (vertical) factor or a step after the trajectory reached infinity
    — the replay multiplies nothing in for it. *)

type precomp = {
  base : Curve.point;
  entries : entry array;
  nbits : int; (* bit length of the order the table was built for *)
  lines : int; (* [Some] lines in [entries], each replay's line count *)
}

val precompute : fp:Fp.ctx -> order:Nat.t -> Curve.point -> precomp
(** Walk the Miller trajectory of the given base once, record every
    line and scale the lot to a unit [y_q] coefficient with one batch
    inversion.  An infinity base yields all-skip entries (the replayed
    loop evaluates to 1, matching [pairing] with an infinity
    argument).  Requires an odd characteristic (the pairing stack
    guarantees it). *)
