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
(** Element of GT, the order-q subgroup of F_p²*. *)

val pairing : Params.t -> Curve.point -> Curve.point -> gt
(** [pairing prm p q] is ê(P, Q); returns {!gt_one} when either
    argument is the point at infinity.  Uses the inversion-free
    projective Miller loop, run entirely in the Montgomery domain
    (inputs are converted once on entry and the result converted back
    after the final exponentiation). *)

val multi_pairing : Params.t -> (Curve.point * Curve.point) list -> gt
(** [multi_pairing prm [(p1, q1); …; (pk, qk)]] is Π ê(P_i, Q_i),
    computed with a single shared Miller squaring chain and one final
    exponentiation — so a k-term product costs far less than k
    separate pairings.  Pairs with an infinity component contribute 1
    and are skipped; the empty product is {!gt_one}.  Counts as one
    evaluation in {!pairings_performed} (zero when every pair is
    skipped). *)

val pairing_affine : Params.t -> Curve.point -> Curve.point -> gt
(** Reference implementation with an affine Miller loop (one field
    inversion per iteration) — slower, used to cross-validate
    {!pairing} and in the ablation benchmarks. *)

type precomp = Miller.precomp
(** Precomputed Miller line tables for a fixed pairing argument. *)

val precompute : Params.t -> Curve.point -> precomp
(** Build the tables for a fixed argument (uncached; see
    {!precomp_for}). *)

val precomp_for : Params.t -> Curve.point -> precomp
(** Cached {!precompute}, via {!Params.miller_precomp_for}. *)

val pairing_precomp : Params.t -> Curve.point -> precomp -> gt
(** [pairing_precomp prm b pc] replays [pc]'s line sequence at [b],
    computing ê(base, b) without any Jacobian arithmetic — several
    times faster than {!pairing}.  For points of the order-q subgroup
    this equals [pairing prm b pc.base] by symmetry; callers passing
    untrusted points must subgroup-check them first, since ê(base, ·)
    annihilates cofactor components that {!pairing} with swapped
    arguments would see.  Counts one pairing evaluation.
    @raise Invalid_argument if the precomp was built for a parameter
    set with a different subgroup order width. *)

val multi_pairing_precomp : Params.t -> (Curve.point * precomp) list -> gt
(** Product Π ê(base_i, b_i) over one shared squaring chain and one
    final exponentiation, like {!multi_pairing}; terms whose point or
    base is infinity contribute 1 and are skipped. *)

val gt_one : gt
val gt_is_one : gt -> bool
val gt_equal : gt -> gt -> bool
val gt_mul : Params.t -> gt -> gt -> gt

val gt_is_unitary : Params.t -> gt -> bool
(** Norm-1 (unitary subgroup) membership — holds for every element
    that went through the final exponentiation.  This is the fast
    path {!gt_inv} tests before falling back to a full inversion. *)

val gt_inv : Params.t -> gt -> gt
(** Total inversion on F_p²*.  Conjugation inverts only {e unitary}
    elements (norm 1) — which every honest GT element is, since the
    final exponentiation maps into the norm-1 subgroup — so the
    implementation takes the cheap conjugation path exactly when the
    norm check passes and falls back to a full field inversion for
    non-unitary inputs (e.g. decoded, possibly mauled wire bytes).
    @raise Division_by_zero on zero. *)

val gt_pow : Params.t -> gt -> Nat.t -> gt
(** [gt_pow prm a e] is a{^e}, by square-and-multiply in the
    Montgomery domain (equal to [Fp2.pow] on any F_p² element).  Counts
    on the registry counter [pairing.gt_pow]; not a pairing, so
    {!pairings_performed} does not move.  Variable-time in [e]. *)

val pairings_performed : unit -> int
(** Process-wide count of pairing evaluations — the evaluation section
    compares schemes by pairing counts, so the library keeps a tally.
    Thin shim over the telemetry registry counter [pairing.count]
    (siblings [pairing.single]/[pairing.multi]/[pairing.multi_terms]/
    [pairing.affine]/[pairing.final_expo] break the total down). *)

val reset_pairing_count : unit -> unit
(** Zeroes [pairing.count] only; the breakdown counters are reset via
    [Telemetry.reset]. *)

val gt_to_bytes : Params.t -> gt -> string
(** Fixed-width [re ‖ im] big-endian encoding. *)

val gt_of_bytes : Params.t -> string -> gt option
