(** The prime field F_p.  Elements are Montgomery residues
    ({!Sc_bignum.Montgomery.mont}: a·R mod p, canonical, in the fixed
    limb count of p), so every multiplication is one fused
    multiply-reduce.  Naturals cross in and out only through {!of_nat}
    and {!to_nat}; every other operation stays in the domain.  A
    {!ctx} carries the modulus and its Montgomery constants. *)

open Sc_bignum

type ctx

type el = Montgomery.mont
(** Always canonical, so {!equal} is equality of the represented
    residues.  Operations raise [Invalid_argument] on an element of
    another limb count than the context's. *)

val create : Nat.t -> ctx
(** @raise Invalid_argument unless the modulus is odd and ≥ 3 (see
    {!Sc_bignum.Montgomery.create}).  Primality is the caller's
    responsibility (checked by parameter generation). *)

val characteristic : ctx -> Nat.t

val zero : ctx -> el
val one : ctx -> el

val of_nat : ctx -> Nat.t -> el
(** Reduces modulo p: one Montgomery multiplication by R² mod p, after
    a division only when the argument is p or more. *)

val of_int : ctx -> int -> el
(** Accepts negative integers (reduced into the canonical range). *)

val to_nat : ctx -> el -> Nat.t
(** The canonical residue in [\[0, p)]: one Montgomery
    multiplication. *)

val equal : el -> el -> bool
val is_zero : el -> bool

val add : ctx -> el -> el -> el
val sub : ctx -> el -> el -> el

val add_lazy : ctx -> el -> el -> el
val sub_lazy : ctx -> el -> el -> el
(** Redundant-representation add/sub (see
    {!Sc_bignum.Montgomery.add_lazy}): results may be non-canonical
    and must only feed {!mul}/{!sqr}, never {!equal}/{!is_zero}/
    {!to_nat}. *)

val neg : ctx -> el -> el
val double : ctx -> el -> el
val mul : ctx -> el -> el -> el
val sqr : ctx -> el -> el

val inv : ctx -> el -> el
(** Fermat's a^(p-2): one ladder whose branches depend on the public
    characteristic only.  Correct only when p is prime.
    @raise Division_by_zero on zero. *)

val batch_inv : ctx -> el array -> el array
(** Montgomery's trick: inverts every element with a single {!inv}
    and 3(n-1) multiplications.
    @raise Division_by_zero if any element is zero. *)

val sqrt : ctx -> el -> el option
(** Square root for p ≡ 3 (mod 4) via the [(p+1)/4] exponent.
    @raise Invalid_argument when p ≢ 3 (mod 4). *)

val random : ctx -> bytes_source:(int -> string) -> el

val cswap : int -> el -> el -> el * el
(** Constant-time conditional swap, see
    {!Sc_bignum.Montgomery.cswap}. *)

type table

val table : el array -> table
(** @raise Invalid_argument on an empty array. *)

val select : table -> int -> el
(** Constant-time table read, see {!Sc_bignum.Montgomery.select}. *)
