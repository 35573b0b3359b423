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

val field : t -> Fp.ctx
val coeff_a : t -> Fp.el
val coeff_b : t -> Fp.el

val infinity : point
val is_infinity : point -> bool
val equal : point -> point -> bool

val on_curve : t -> point -> bool

val neg : t -> point -> point
val add : t -> point -> point -> point
val double : t -> point -> point
val sub : t -> point -> point -> point

val mul : t -> Nat.t -> point -> point
(** Scalar multiplication.  Over an odd characteristic this runs a
    width-5 windowed-NAF ladder in the Montgomery domain (counter
    [curve.mul.wnaf]); otherwise it falls back to {!mul_naive}. *)

val mul_naive : t -> Nat.t -> point -> point
(** Plain left-to-right double-and-add in Barrett-domain Jacobian
    coordinates — the reference implementation {!mul} is validated
    against. *)

val mul_int : t -> int -> point -> point

val msm : t -> (Nat.t * point) list -> point
(** [msm c [(k1, P1); …]] is Σ k{_i}·P{_i}, by one interleaved
    width-4 wNAF ladder: a single doubling chain as long as the widest
    scalar, the odd-multiple tables of all bases normalized by shared
    batch inversions, and one final inversion.  Counts one [curve.msm]
    and its live terms on [curve.msm.terms]; never [curve.mul.wnaf].
    Odd characteristic only, like the Montgomery field it runs in. *)

type precomp
(** Precomputed window tables for a fixed base point. *)

val precompute : t -> bits:int -> point -> precomp
(** Tables covering scalars up to [bits] bits (4-bit fixed windows,
    entries normalized to affine).  Costs ~4·bits point operations
    once; each subsequent {!mul_precomp} then needs only ~bits/4
    mixed additions and no doublings. *)

val mul_precomp : t -> precomp -> Nat.t -> point
(** Scalar multiplication against the precomputed base: the
    one-scalar case of {!mul_precomp_batch}.
    @raise Invalid_argument if the scalar exceeds the table's range. *)

val mul_precomp_batch : t -> precomp -> Nat.t array -> point array
(** [mul_precomp_batch c pc ks] is [Array.map (mul_precomp c pc) ks]:
    each scalar runs the comb in Jacobian form, and over an odd
    characteristic one shared batch inversion normalizes every result.
    A scalar whose multiple is the point at infinity (0, or the base's
    order) gives {!Infinity}.
    @raise Invalid_argument if any scalar exceeds the table's range,
    before any work is done. *)

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

val pp : Format.formatter -> point -> unit
