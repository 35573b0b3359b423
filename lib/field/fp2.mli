(** The quadratic extension F_p² = F_p(i) with i² = −1, irreducible
    whenever p ≡ 3 (mod 4) — the case of every supersingular pairing
    parameter set in this repository.  Elements are pairs of
    {!Fp.el} residues, Montgomery-resident like them, manipulated
    relative to an {!Fp.ctx}. *)

open Sc_bignum

type el = { re : Fp.el; im : Fp.el }

val check_ctx : Fp.ctx -> unit
(** @raise Invalid_argument unless the characteristic is ≡ 3 (mod 4). *)

val make : Fp.el -> Fp.el -> el
val one : Fp.ctx -> el
val equal : el -> el -> bool
val is_zero : el -> bool

val mul : Fp.ctx -> el -> el -> el
(** Karatsuba: three F_p multiplications. *)

val sqr : Fp.ctx -> el -> el
(** Two F_p multiplications. *)

val conj : Fp.ctx -> el -> el
(** Complex conjugation, which is also the p-power Frobenius when
    p ≡ 3 (mod 4). *)

val norm : Fp.ctx -> el -> Fp.el
(** [re² + im²] — the norm map to F_p. *)

type table
(** A lookup table of elements, stored as two {!Fp.table}s of
    components. *)

val table : el array -> table
(** @raise Invalid_argument on an empty array. *)

val select : table -> int -> el
(** Constant-time table read: both components by {!Fp.select}, so
    every entry is scanned whatever the index. *)

val inv : Fp.ctx -> el -> el
(** @raise Division_by_zero on zero. *)

val pow : Fp.ctx -> el -> Nat.t -> el
