(** Supersingular pairing parameters.

    The curve is E: y² = x³ + x over F_p with p ≡ 3 (mod 4), which is
    supersingular with #E(F_p) = p + 1.  Choosing a prime q dividing
    p + 1 (p = c·q − 1) gives a subgroup G1 of order q, and the
    distortion map φ(x, y) = (−x, i·y) into E(F_p²) makes the modified
    Tate pairing ê(P, Q) = e(P, φ(Q)) a symmetric non-degenerate
    pairing G1 × G1 → GT ⊂ F_p²*. *)

open Sc_bignum
open Sc_field
open Sc_ec

type 'a cache
(** Domain-safe string-keyed memo: lock-free hits over an immutable
    map, double-check-locked misses. *)

type t = private {
  p : Nat.t; (* field characteristic, ≡ 3 mod 4 *)
  q : Nat.t; (* prime order of G1 and GT *)
  cofactor : Nat.t; (* c = (p + 1) / q *)
  fp : Fp.ctx;
  curve : Curve.t; (* y² = x³ + x over F_p *)
  g : Curve.point; (* generator of G1 *)
  g_precomp : Curve.precomp Lazy.t; (* fixed-base tables for g *)
  comb_cache : Curve.precomp cache; (* fixed-base comb tables by point *)
  miller_cache : Miller.precomp cache; (* Miller line tables by point *)
  id_cache : Curve.point cache; (* H1(ID) by identity *)
}

val generate :
  ?bits_p:int -> bytes_source:(int -> string) -> bits_q:int -> unit -> t
(** Fresh parameters: random prime q of [bits_q] bits, a
    multiple-of-4 cofactor c with p = c·q − 1 prime (the smallest one,
    or one sized so that p has [bits_p] bits when given), and a random
    generator. *)

val toy : t lazy_t
(** 64-bit q / 71-bit p (cofactor 96): fast, for unit tests only. *)

val small : t lazy_t
(** 112-bit q / 119-bit p (cofactor 196 = 2²·7²): quick demos and the
    default of [Seccloud.System.create].  Both sizes follow from the
    smallest cofactor that makes p prime; only {!mid} sizes p. *)

val mid : t lazy_t
(** 160-bit q / 512-bit p — the classic MIRACL-era size the paper's
    Table I was measured with. *)

val presets : (string * t lazy_t) list
(** {!toy}, {!small} and {!mid} by name, smallest first: the
    [--params] choices of the command-line tools. *)

val in_subgroup : t -> Curve.point -> bool
(** Membership test for G1: on the curve and q·P = O, the latter by
    {!Sc_ec.Curve.mul_is_infinity} (the x-only ladder, no inversion;
    one [curve.mul.wnaf] count per finite point). *)

val random_scalar : t -> bytes_source:(int -> string) -> Nat.t
(** Uniform non-zero scalar in [\[1, q)]. *)

val g_comb : t -> Curve.precomp
(** [g_precomp], forced at most once across domains. *)

val mul_g : t -> Nat.t -> Curve.point
(** [k·G] via the fixed-base tables — several times faster than
    [Curve.mul] for the generator (the scalar is reduced mod q). *)

val precomp_for : t -> Curve.point -> Curve.precomp
(** Fixed-base comb tables for an arbitrary point (covering scalars
    below q), cached per parameter set and keyed by the point's
    encoding.  Hits are lock-free and counted on
    [pairing.precomp.hit]; misses build under a lock and count on
    [pairing.precomp.miss].  Entries are never invalidated — a point's
    tables are immutable — so memory grows with the number of distinct
    cached points. *)

val miller_precomp_for : t -> Curve.point -> Miller.precomp
(** Miller line tables (see {!Miller.precompute}) for a fixed pairing
    argument, cached like {!precomp_for} and sharing the same
    hit/miss counters. *)

val id_point : t -> string -> (string -> Curve.point) -> Curve.point
(** [id_point t id hash] is [hash id], computed once per identity and
    parameter set and then read back like {!precomp_for}.  Hits count
    on [pairing.id_memo.hit] and computations on [pairing.id_hash], not
    on the [pairing.precomp.*] counters.  One point per identity ever
    asked for; an identity's table in {!precomp_for} is far larger. *)
