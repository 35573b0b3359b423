(** The prime field F_p.  Elements are canonical {!Sc_bignum.Nat.t}
    residues below the characteristic; a {!ctx} carries the modulus
    and its Barrett reciprocal. *)

open Sc_bignum

type ctx

type el = Nat.t
(** Always a canonical residue in [\[0, p)]. *)

val create : Nat.t -> ctx
(** @raise Invalid_argument if the modulus is < 2.  Primality is the
    caller's responsibility (checked by parameter generation). *)

val characteristic : ctx -> Nat.t

val zero : el
val one : el

val of_nat : ctx -> Nat.t -> el
(** Reduces modulo p. *)

val of_int : ctx -> int -> el
(** Accepts negative integers (reduced into the canonical range). *)

val to_nat : el -> Nat.t

val equal : el -> el -> bool
val is_zero : el -> bool

val add : ctx -> el -> el -> el
val sub : ctx -> el -> el -> el
val neg : ctx -> el -> el
val mul : ctx -> el -> el -> el
val sqr : ctx -> el -> el
val double : ctx -> el -> el

val inv : ctx -> el -> el
(** Fermat's a^(p-2): one ladder whose branches depend on the public
    characteristic only.  Correct only when p is prime.
    @raise Division_by_zero on zero. *)

val div : ctx -> el -> el -> el

val batch_inv : ctx -> el array -> el array
(** Montgomery's trick: inverts every element with a single {!inv}
    and 3(n-1) multiplications.
    @raise Division_by_zero if any element is zero. *)

val sqrt : ctx -> el -> el option
(** Square root for p ≡ 3 (mod 4) via the [(p+1)/4] exponent.
    @raise Invalid_argument when p ≢ 3 (mod 4). *)

val random : ctx -> bytes_source:(int -> string) -> el

(** Montgomery-resident field elements.

    The pairing hot path converts its inputs into the Montgomery
    domain once ({!Mont.enter}), runs the whole Miller loop and final
    exponentiation on {!Mont.e} values — where a multiplication is one
    fused REDC instead of a {!Sc_bignum.Nat.mul} plus a Barrett
    reduction — and converts back once at the end ({!Mont.leave}).
    Only odd characteristics have a Montgomery form; every operation
    raises [Invalid_argument] on a characteristic-2 context. *)
module Mont : sig
  type e

  val enter : ctx -> el -> e
  val leave : ctx -> e -> el

  val zero : ctx -> e
  val one : ctx -> e

  val of_int : ctx -> int -> e
  (** Accepts negative integers, like {!of_int}. *)

  val add : ctx -> e -> e -> e
  val sub : ctx -> e -> e -> e

  val add_lazy : ctx -> e -> e -> e
  val sub_lazy : ctx -> e -> e -> e
  (** Redundant-representation add/sub (see
      {!Sc_bignum.Montgomery.add_lazy}): results may be non-canonical
      and must only feed {!mul}/{!sqr}, never
      {!equal}/{!is_zero}/{!leave}. *)

  val neg : ctx -> e -> e
  val double : ctx -> e -> e
  val mul : ctx -> e -> e -> e
  val sqr : ctx -> e -> e

  val inv : ctx -> e -> e
  (** Fermat's a^(p-2) without leaving the domain, like {!Fp.inv}.
      @raise Division_by_zero on zero. *)

  val batch_inv : ctx -> e array -> e array
  (** @raise Division_by_zero if any element is zero. *)

  val is_zero : e -> bool
  val equal : e -> e -> bool

  type table

  val table : e array -> table
  (** @raise Invalid_argument on an empty array. *)

  val select : table -> int -> e
  (** Constant-time table read, see {!Sc_bignum.Montgomery.select}. *)
end
