(** The quadratic extension F_p² = F_p(i) with i² = −1, irreducible
    whenever p ≡ 3 (mod 4) — the case of every supersingular pairing
    parameter set in this repository.  Elements are pairs of F_p
    residues manipulated relative to an {!Fp.ctx}. *)

open Sc_bignum

type el = { re : Fp.el; im : Fp.el }

val check_ctx : Fp.ctx -> unit
(** @raise Invalid_argument unless the characteristic is ≡ 3 (mod 4). *)

val one : el

val make : Fp.el -> Fp.el -> el

val equal : el -> el -> bool
val is_one : el -> bool

val mul : Fp.ctx -> el -> el -> el
val sqr : Fp.ctx -> el -> el

val conj : Fp.ctx -> el -> el
(** Complex conjugation, which is also the p-power Frobenius when
    p ≡ 3 (mod 4). *)

val norm : Fp.ctx -> el -> Fp.el
(** [re² + im²] — the norm map to F_p. *)

val inv : Fp.ctx -> el -> el
(** @raise Division_by_zero on zero. *)

(** F_p² arithmetic over Montgomery-resident components
    ({!Fp.Mont.e}) — the representation the pairing hot path lives
    in.  Semantics mirror the top-level functions exactly. *)
module Mont : sig
  type e = { re : Fp.Mont.e; im : Fp.Mont.e }

  val enter : Fp.ctx -> el -> e
  val leave : Fp.ctx -> e -> el

  val make : Fp.Mont.e -> Fp.Mont.e -> e
  val one : Fp.ctx -> e
  val is_zero : e -> bool

  val mul : Fp.ctx -> e -> e -> e
  val sqr : Fp.ctx -> e -> e
  val conj : Fp.ctx -> e -> e

  type table
  (** A lookup table of elements, stored as two {!Fp.Mont.table}s of
      components. *)

  val table : e array -> table
  (** @raise Invalid_argument on an empty array. *)

  val select : table -> int -> e
  (** Constant-time table read: both components by
      {!Fp.Mont.select}, so every entry is scanned whatever the
      index. *)

  val inv : Fp.ctx -> e -> e
  (** @raise Division_by_zero on zero. *)

  val pow : Fp.ctx -> e -> Nat.t -> e
end
