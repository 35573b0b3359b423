(** Modular arithmetic over {!Nat} with a precomputed Barrett context.

    A {!ctx} caches the reciprocal [mu = floor(B^2k / m)] so that
    reductions of products cost two multiplications instead of a full
    division.  All functions expect canonical residues (values below
    the modulus) unless stated otherwise.  F_p and F_p² run on
    {!Montgomery} residues instead; this serves the scalar arithmetic
    mod the subgroup order q (ECDSA, the Wang-style auditor) and the
    Miller–Rabin squarings of {!Prime}. *)

type ctx

val create : Nat.t -> ctx
(** @raise Invalid_argument if the modulus is zero or one. *)

val reduce : ctx -> Nat.t -> Nat.t
(** Full reduction of any natural (falls back to division when the
    argument exceeds the Barrett range [B^2k]). *)

val add : ctx -> Nat.t -> Nat.t -> Nat.t
val mul : ctx -> Nat.t -> Nat.t -> Nat.t
val sqr : ctx -> Nat.t -> Nat.t

val jacobi : Nat.t -> Nat.t -> int
(** [jacobi a n] for odd positive [n]: the Jacobi symbol (a|n) ∈
    {-1, 0, 1} by the binary reciprocity algorithm — for prime [n]
    this is the Legendre symbol, computed far faster than by Euler's
    criterion.  @raise Invalid_argument when [n] is even or zero. *)

val inv : ctx -> Nat.t -> Nat.t
(** Modular inverse.
    @raise Not_found when the argument is not invertible. *)

val of_signed : ctx -> Signed.t -> Nat.t
(** Canonical residue of a signed integer. *)
