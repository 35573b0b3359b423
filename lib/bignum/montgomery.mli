(** Montgomery multiplication (REDC) for odd moduli.

    Operands are kept in the Montgomery domain (a·R mod m with
    R = B^k, B = 2^26, k the limb count of m), where a modular
    multiplication costs one fused multiply-reduce instead of a
    multiplication plus a Barrett reduction.  Every F_p and F_p²
    element ({!Sc_field.Fp.el}) is one of these residues; {!pow} is a
    drop-in exponentiation for callers that hold naturals.

    Every operation checks once that its operands have the context's
    limb count and raises [Invalid_argument] otherwise; its limb loops
    then read without bounds checks. *)

type ctx

val create : Nat.t -> ctx
(** @raise Invalid_argument unless the modulus is odd and ≥ 3, or if
    it has more than 256 limbs (6656 bits), past which a column sum of
    {!mul} could overflow its [int] accumulator. *)

type mont = private int array
(** A residue in the Montgomery domain: a·R mod m, canonical, as
    exactly k base-2{^26} limbs, least significant first.  The limbs
    can be read but not built outside this module. *)

val to_mont : ctx -> Nat.t -> mont
(** One multiplication by R² mod m for an argument below m; a larger
    one is reduced modulo m by a division first, so any natural is
    accepted. *)

val of_mont : ctx -> mont -> Nat.t

val one : ctx -> mont
(** R mod m, the domain image of 1: one value shared by every call. *)

val zero : ctx -> mont

val of_int : ctx -> int -> mont
(** @raise Invalid_argument on negative arguments (see
    {!Nat.of_int}). *)

val is_zero : mont -> bool

val equal : mont -> mont -> bool
(** Domain representatives are canonical, so this is also equality of
    the represented residues (for operands of the same context). *)

val add : ctx -> mont -> mont -> mont
val sub : ctx -> mont -> mont -> mont
val neg : ctx -> mont -> mont
val double : ctx -> mont -> mont
(** Modular add/sub/neg/double directly on domain representatives —
    the Montgomery map is additive, so no conversion is involved. *)

val add_lazy : ctx -> mont -> mont -> mont
val sub_lazy : ctx -> mont -> mont -> mont
(** Redundant-representation add/sub: when the modulus leaves enough
    limb headroom (16m ≤ B^k) these skip the canonicalising
    conditional subtraction, returning a value that may be as large as
    4m.  Such lazy values must only ever flow into {!mul}/{!sqr}
    (whose REDC output is canonical again) — never into
    {!equal}/{!is_zero}/{!of_mont} — and at most two lazy operations
    may be chained before a multiply.  [sub_lazy] additionally
    requires both operands < 2m.  Without headroom they silently fall
    back to the strict {!add}/{!sub}. *)

val mul : ctx -> mont -> mont -> mont
val sqr : ctx -> mont -> mont
(** One product-scanning multiply-reduce; the result is canonical. *)

val batch_inv : ctx -> inv:(mont -> mont) -> mont array -> mont array
(** Montgomery's trick: inverts every element with a single call of
    [inv] (a Fermat ladder when m is prime) and 3(n-1)
    multiplications.
    @raise Not_found if any element is zero; otherwise whatever [inv]
    raises on a non-invertible product. *)

val cswap : int -> mont -> mont -> mont * mont
(** [cswap b x y] is fresh copies of [(y, x)] when [b = 1] and of
    [(x, y)] when [b = 0], by a masked exchange of every limb: no
    branch and no memory access depends on [b].  Only the low bit of
    [b] is read. *)

type table
(** A lookup table of residues of one context, stored as one flat limb
    array. *)

val table : mont array -> table
(** @raise Invalid_argument on an empty array. *)

val select : table -> int -> mont
(** [select (table entries) i] is a fresh copy of [entries.(i)], read
    by a masked scan over every limb of every entry: no branch and no
    memory access depends on [i].  An [i] outside the table selects
    zero. *)

val pow_mont : ctx -> mont -> Nat.t -> mont
(** [pow_mont ctx a e] = a^e inside the domain.  The ladder branches
    on the bits of [e] only, never on [a]. *)

val pow : ctx -> Nat.t -> Nat.t -> Nat.t
(** [pow ctx b e] = b^e mod m for naturals: one conversion each way
    around {!pow_mont}. *)
