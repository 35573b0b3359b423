(** Fixed-base Miller precomputation.

    Every line the Miller loop multiplies into its accumulator is
    affine in the distorted evaluation point φ(Q) = (−x_q, i·y_q):

    {v l = (alpha + beta·x_q) + (gamma·y_q)·i v}

    with coefficients depending only on the loop base point's
    trajectory — fixed once the base and the subgroup order are.  For
    a pairing argument that never changes (the generator, the system
    public key, a designated verifier's key) the whole loop can thus
    be replayed from a table of Montgomery-resident coefficients,
    replacing all Jacobian point arithmetic with one multiplication
    and one addition per line; {!Tate.pairing_precomp} is the
    consumer.  The uncached {!Tate.pairing} builds a table and replays
    it once.

    A table holds [bit_length order − 1] entries of up to two lines
    (three field elements each) — about 1.5·|q| stored points' worth
    of memory per cached base. *)

open Sc_bignum
open Sc_field
open Sc_ec

type coeffs = { alpha : Fp.Mont.e; beta : Fp.Mont.e; gamma : Fp.Mont.e }

type entry = { dbl : coeffs option; add : coeffs option }
(** One loop iteration, most-significant bit first: the tangent line,
    plus the chord line on set order bits.  [None] marks an eliminated
    (vertical) factor or a step after the trajectory reached infinity
    — the replay multiplies nothing in for it. *)

type precomp = { base : Curve.point; entries : entry array; nbits : int }

val precompute : fp:Fp.ctx -> curve:Curve.t -> order:Nat.t -> Curve.point -> precomp
(** Walk the Miller trajectory of the given base once and record every
    line.  An infinity base yields all-skip entries (the replayed loop
    evaluates to 1, matching [pairing] with an infinity argument).
    Requires an odd characteristic (the pairing stack guarantees it). *)
