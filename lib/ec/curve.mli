(** Short-Weierstrass elliptic curves y² = x³ + a·x + b over F_p, with
    affine group law and windowed scalar multiplication.  This is the
    group G1 of the pairing layer and the base group of the ECDSA
    baseline. *)

open Sc_bignum
open Sc_field

type t
(** A curve: field context plus coefficients. *)

type point = Infinity | Affine of Fp.el * Fp.el

val create : Fp.ctx -> a:Fp.el -> b:Fp.el -> t
(** @raise Invalid_argument when the curve is singular
    (4a³ + 27b² = 0). *)

val coeff_a : t -> Fp.el

val infinity : point
val is_infinity : point -> bool

val on_curve : t -> point -> bool

val neg : t -> point -> point
val add : t -> point -> point -> point

val mul : t -> Nat.t -> point -> point
(** Scalar multiplication by a width-5 windowed-NAF ladder in the
    Montgomery domain (counter [curve.mul.wnaf]).
    @raise Invalid_argument over an even characteristic, which no
    parameter set has. *)

type precomp
(** Precomputed window tables for a fixed base point. *)

val precompute : t -> bits:int -> point -> precomp
(** Tables covering scalars up to [bits] bits (4-bit fixed windows,
    entries normalized to affine).  Costs ~4·bits point operations
    once; each subsequent {!mul_precomp} then needs only ~bits/4
    mixed additions and no doublings.
    @raise Invalid_argument over an even characteristic, like
    {!mul}. *)

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
    [add c P (mul_precomp c pc k)] for each row, the rows free to use
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
    never [curve.mul.wnaf].  Odd characteristic only, like the
    Montgomery field it runs in.
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
