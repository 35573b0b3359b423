(** A pairing-product equation Π ê(A_j, T_j) = target: the one check
    behind the IBS equation ê(V, P) = ê(U + h·Q_ID, P_pub), the
    designated-verifier equation Σ = ê(U + h·Q_ID, sk_B) (eq. 5/7) and
    their §VI batches (eq. 8–9).  {!combine} is the generic
    small-exponent batcher of Ferrara, Green, Hohenberger and Pedersen
    (CT-RSA 2009).  Each T_j is a cached Miller table, so a term is
    ê(base_j, A_j) replayed at A_j.

    What an equation does not check, its caller must:
    - ê(base, ·) maps cofactor torsion on A_j to 1, so a point a third
      party can shift without changing the hash it is checked against
      (the IBS V) must be subgroup-checked first;
    - {!combine} raises each target to its coefficient, which is sound
      only for targets in GT ({!Tate.gt_in_group}, the designated Σ);
    - the coefficients of {!combine} must be unpredictable to whoever
      made the equations (a hash of the whole batch, or a MAC under the
      verifier's key), or two bad equations can cancel.
    Then each bad equation's discrepancy lies in GT, of prime order q,
    and for any fixed other coefficients at most one value of its own
    coefficient mod q makes the combination hold. *)

open Sc_bignum
open Sc_ec

(** A bare point, or U + h·B with h < q and B of order q, h·B run over
    B's cached comb ({!Params.precomp_for}) from U. *)
type side =
  | Point of Curve.point
  | Shift of { u : Curve.point; h : Nat.t; base : Curve.point }

type target = One | Gt of Tate.gt
type t = { terms : (side * Tate.precomp) list; target : target }

val holds : Params.t -> t -> bool
(** Whether Π ê(A_j, T_j) equals the target, any element of F_p², by
    {!Tate.multi_pairing_precomp_equal}: one Miller chain, one final
    exponentiation, one field inversion for the U + h·B sides. *)

val holds_each : Params.t -> t option list -> bool list
(** {!holds} for each equation, with one inversion for all their
    U + h·B sides.  [None] (an entry that failed its caller's
    prechecks) is [false] at no cost. *)

val combine : Params.t -> (Nat.t * t) list -> t
(** [combine prm [(c_i, e_i); …]]: Π_j ê(Σ_i c_i·A_ij, T_j) =
    Π_i target_i{^c_i}, which holds when every e_i does.  Each table's
    side is one {!Sc_ec.Curve.msm} over the bare points and the U's,
    with one comb per distinct B (physically equal points are one B);
    the target is one {!Tate.gt_multi_exp} over the targets other than
    1.
    @raise Invalid_argument on no equations, or on equations whose
    tables differ term by term. *)

val verify_each :
  single:('a -> bool) ->
  batch:('a list -> bool) ->
  blame:('a list -> bool list) ->
  ?aside:('a -> bool) * ('a list -> bool list) ->
  'a option list ->
  bool option list
(** Batch then blame, slot by slot: a [Some x] slot gets its answer in
    place, a [None] slot stays [None].  The entries [fst aside] picks
    (a memo's hits, a suspect's entries) are answered by one
    [snd aside].  Of the others, none costs nothing, a lone one gets
    [single], and two or more one [batch]: all [true] when it holds,
    otherwise one [blame] over them. *)
