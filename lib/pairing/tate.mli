(** The modified Tate pairing ê : G1 × G1 → GT.

    Computed as the Miller loop of the Tate pairing e(P, φ(Q)) with
    the distortion map φ(x, y) = (−x, i·y) and denominator
    elimination (vertical lines evaluate into F_p, which the final
    exponentiation (p² − 1)/q = (p − 1)·c annihilates), followed by
    that final exponentiation. *)

open Sc_bignum
open Sc_field
open Sc_ec

type gt = Fp2.el
(** Element of GT, the order-q subgroup of F_p²*, with Montgomery
    components like every {!Fp2.el}; only {!gt_to_bytes} and
    {!gt_of_bytes} convert them. *)

val pairing : Params.t -> Curve.point -> Curve.point -> gt
(** [pairing prm p q] is ê(P, Q); returns {!gt_one} when either
    argument is the point at infinity.  It is
    [pairing_precomp prm q (precompute prm p)]: P's line table is
    built once, uncached, and replayed at Q, so an uncached pairing
    costs one trajectory walk plus one replay.  P stays the loop base,
    so the value is ê(P, Q) for points off the order-q subgroup too.
    Counts one pairing evaluation. *)

type precomp = Miller.precomp
(** Precomputed Miller line tables for a fixed pairing argument. *)

val precompute : Params.t -> Curve.point -> precomp
(** Build the tables for a fixed argument (uncached; see
    {!precomp_for}). *)

val precomp_for : Params.t -> Curve.point -> precomp
(** Cached {!precompute}, via {!Params.miller_precomp_for}. *)

val pairing_precomp : Params.t -> Curve.point -> precomp -> gt
(** [pairing_precomp prm b pc] replays [pc]'s line sequence at [b],
    computing ê(base, b) without any Jacobian arithmetic — the table's
    trajectory walk is paid once, by {!precompute}.  For points of the order-q subgroup
    this equals [pairing prm b pc.base] by symmetry.  ê(base, ·)
    annihilates the cofactor component of [b], which {!pairing} with
    swapped arguments would see: a caller whose verdict must not
    survive torsion added to [b] subgroup-checks [b] first.  The IBS
    verifiers do so for V, the one signature point a third party can
    shift without changing the hash it is checked against.  Counts one pairing
    evaluation.
    @raise Invalid_argument if the precomp was built for a parameter
    set with a different subgroup order width. *)

val multi_pairing_precomp : Params.t -> (Curve.point * precomp) list -> gt
(** Product Π ê(base_i, b_i) over one shared squaring chain and one
    final exponentiation, so a k-term product costs far less than k
    separate pairings.  Terms whose point or base is infinity
    contribute 1 and are skipped; the empty product is {!gt_one}.
    Counts as one evaluation in {!pairings_performed} (zero when every
    term is skipped). *)

val multi_pairing_precomp_equal :
  Params.t -> (Curve.point * precomp) list -> gt -> bool
(** [multi_pairing_precomp_equal prm terms t] is
    [Fp2.equal (multi_pairing_precomp prm terms) t] for every [t] in
    F_p², unitary or not, and counts exactly as {!multi_pairing_precomp}
    does.  It never forms the pairing value: the final exponentiation
    stops at g = f{^c} and tests conj(g) = t·g, which saves its field
    inversion.  The one equality form, behind {!Equation.holds}. *)

val gt_one : Params.t -> gt

val gt_pow : Params.t -> gt -> Nat.t -> gt
(** [gt_pow prm a e] is a{^e}, by square-and-multiply ([Fp2.pow], on
    any F_p² element).  Counts
    on the registry counter [pairing.gt_pow]; not a pairing, so
    {!pairings_performed} does not move.  Variable-time in [e].  A
    base raised to many exponents is cheaper through {!gt_comb}. *)

type gt_comb
(** A regular fixed-base comb for one GT base: the 16 entries of a
    Lim–Lee table of height 4 over [bit_length q] bits.  It holds 14 powers of the base beyond 1 and the
    base itself, so it is as secret as the base. *)

val gt_comb : Params.t -> gt -> gt_comb
(** Builds the table: (4−1)·⌈bit_length q / 4⌉ squarings and 11
    multiplications.  Counts on [pairing.gt_comb_build]. *)

val gt_comb_exp : Params.t -> gt_comb -> Nat.t -> gt
(** [gt_comb_exp prm (gt_comb prm a) e] is [gt_pow prm a e], bit for
    bit, in ⌈bit_length q / 4⌉ squarings and as many multiplications:
    a third of [gt_pow]'s F_p² operations at full-width exponents, and
    about half its time once the masked table reads are counted.
    Regular: every column squares, reads one table entry by a full
    masked scan ({!Sc_field.Fp2.select}) and multiplies, whatever
    the exponent.  The exponent's bits are still extracted with
    {!Sc_bignum.Nat.test_bit}, which is not constant-time.  Counts on
    [pairing.gt_comb_exp], not on [pairing.gt_pow].
    @raise Invalid_argument if [e] is wider than 4·⌈bit_length q / 4⌉
    bits. *)

val gt_in_group : Params.t -> gt -> bool
(** Membership in GT: unitary and a{^q} = 1, by a Lucas ladder on the
    trace (two F_p operations per bit of q).  Every pairing value
    passes; so does no element with a component of order dividing the
    cofactor.  Counts on [pairing.gt_member]. *)

val gt_multi_exp : Params.t -> (gt * Nat.t) list -> gt
(** [gt_multi_exp prm [(a1, e1); …]] is Π a{_i}{^e{_i}}, by one
    interleaved width-4 wNAF ladder over a shared squaring chain.
    Counts one [pairing.gt_multi_exp] and its terms on
    [pairing.gt_multi_exp_terms].  Variable-time in the exponents.
    @raise Invalid_argument if a base is not unitary. *)

val pairings_performed : unit -> int
(** Process-wide count of pairing evaluations — the evaluation section
    compares schemes by pairing counts, so the library keeps a tally.
    Thin shim over the telemetry registry counter [pairing.count]
    (siblings [pairing.single]/[pairing.multi]/[pairing.multi_terms]/
    [pairing.final_expo] break the total down, and [pairing.lines]
    adds each replayed table's {!Miller.precomp} [lines]). *)

val gt_to_bytes : Params.t -> gt -> string
(** Fixed-width [re ‖ im] big-endian encoding. *)

val gt_of_bytes : Params.t -> string -> gt option
