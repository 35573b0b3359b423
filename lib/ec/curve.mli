(** The elliptic curve y² = x³ + x over F_p: an x-only Montgomery
    ladder for single scalars, and windowed multi-scalar and fixed-base
    multiplication on one Jacobian group law with batched
    normalization.  A sum of points is an {!msm} (unit scalars for a
    plain sum) or an {!add_mul_precomp_batch} row.  This is the group G1
    of the pairing layer and the base group of the ECDSA baseline;
    every pairing parameter set builds this curve and no other.  Each
    field inversion it performs, batched or not, counts one
    [curve.inv]. *)

open Sc_bignum
open Sc_field

type t
(** The curve over one field. *)

type point = Infinity | Affine of Fp.el * Fp.el
(** Coordinates are Montgomery residues of the curve's field; only
    {!to_bytes} and {!of_bytes} convert them. *)

val create : Fp.ctx -> t
(** The curve is singular in characteristic 2 only, which
    {!Fp.create} rejects. *)

val is_infinity : point -> bool

val on_curve : t -> point -> bool

val neg : t -> point -> point

val mul : t -> Nat.t -> point -> point
(** Scalar multiplication by Montgomery's x-only ladder: 4 squarings
    and 5 multiplications per scalar bit, the branch on each bit
    replaced by a masked swap, then y recovered (Okeya–Sakurai) with
    one field inversion.  The field operations and allocation depend
    on the scalar's bit length, not on its bits.  k = 0, O, points of
    order 2, k·P = O and (k+1)·P = O are handled outside the ladder.
    Counts one [curve.mul.wnaf] per finite point and non-zero
    scalar. *)

val mul_is_infinity : t -> Nat.t -> point -> bool
(** [mul_is_infinity c k p] is [is_infinity (mul c k p)] by the same
    ladder, without the y recovery and its inversion: the subgroup
    check of [Params.in_subgroup].  Counts like {!mul}. *)

type precomp
(** Precomputed window tables for a fixed base point. *)

val precompute : t -> bits:int -> point -> precomp
(** Tables covering scalars up to [bits] bits: signed 4-bit digits in
    [−8, 7] over ⌈bits/4⌉ windows plus one for the last carry, 8
    affine entries per window.  Costs bits doublings, 4 mixed additions
    per window and two field inversions once; each subsequent
    {!mul_precomp} then needs at most ⌈bits/4⌉ + 1 mixed additions and
    no doublings. *)

val mul_precomp : t -> precomp -> Nat.t -> point
(** Scalar multiplication against the precomputed base: the
    one-scalar case of {!mul_precomp_batch}.
    @raise Invalid_argument if the scalar exceeds the table's range. *)

val mul_precomp_batch : t -> precomp -> Nat.t array -> point array
(** [mul_precomp_batch c pc ks] is [Array.map (mul_precomp c pc) ks]:
    {!add_mul_precomp_batch} with every start point at infinity.  A
    scalar whose multiple is the point at infinity (0, or the base's
    order) gives {!Infinity}.
    @raise Invalid_argument if any scalar exceeds the table's range,
    before any work is done. *)

val add_mul_precomp_batch : t -> (point * precomp * Nat.t) array -> point array
(** [add_mul_precomp_batch c [|(P, pc, k); …|]] is
    P + k·B for each row, B the base of [pc], the rows free to use
    different bases.  Each comb starts from its P in Jacobian form, so
    the addition costs one mixed addition and no inversion of its own,
    and one shared batch inversion normalizes every result.
    @raise Invalid_argument if any scalar exceeds its table's range,
    before any work is done. *)

val msm : t -> ?fixed:(precomp * Nat.t) list -> (Nat.t * point) list -> point
(** [msm c ~fixed:[(pc1, s1); …] [(k1, P1); …]] is
    Σ k{_i}·P{_i} + Σ s{_j}·B{_j}, B{_j} the base of [pc{_j}]: one
    interleaved width-4 wNAF ladder over the P{_i} (a single doubling
    chain as long as the widest scalar, the odd-multiple tables of all
    bases normalized by shared batch inversions), then one comb per
    [fixed] term on the same Jacobian accumulator, and one final
    inversion.  Counts one [curve.msm] and its live (non-zero scalar,
    finite point) terms on [curve.msm.terms] when there are any;
    never [curve.mul.wnaf].
    @raise Invalid_argument if a [fixed] scalar exceeds its table's
    range. *)

val lift_x : t -> Fp.el -> point option
(** A point with the given x-coordinate (the even-y root is chosen
    deterministically), if one exists. *)

val random : t -> bytes_source:(int -> string) -> point
(** A uniformly random non-infinity point via rejection on x. *)

val to_bytes : t -> point -> string
(** Uncompressed encoding: 0x00 for infinity, else 0x04 ‖ x ‖ y with
    fixed-width coordinates. *)

val of_bytes : t -> string -> point option
(** Decodes and validates curve membership. *)
