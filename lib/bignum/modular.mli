(** Modular arithmetic over {!Nat} with a precomputed Barrett context.

    A {!ctx} caches the reciprocal [mu = floor(B^2k / m)] so that
    reductions of products cost two multiplications instead of a full
    division.  All functions expect canonical residues (values below
    the modulus) unless stated otherwise. *)

type ctx

val create : Nat.t -> ctx
(** @raise Invalid_argument if the modulus is zero or one. *)

val reduce : ctx -> Nat.t -> Nat.t
(** Full reduction of any natural (falls back to division when the
    argument exceeds the Barrett range [B^2k]). *)

val add : ctx -> Nat.t -> Nat.t -> Nat.t
val sub : ctx -> Nat.t -> Nat.t -> Nat.t
val neg : ctx -> Nat.t -> Nat.t
val mul : ctx -> Nat.t -> Nat.t -> Nat.t
val sqr : ctx -> Nat.t -> Nat.t

val pow : ctx -> Nat.t -> Nat.t -> Nat.t
(** [pow ctx b e] is [b^e mod m] by left-to-right binary
    exponentiation. *)

val egcd : Nat.t -> Nat.t -> Nat.t * Signed.t * Signed.t
(** [egcd a b = (g, x, y)] with [a*x + b*y = g = gcd(a, b)]. *)

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
