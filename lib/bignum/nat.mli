(** Arbitrary-precision natural numbers.

    Numbers are stored as little-endian arrays of 26-bit limbs hosted
    in native OCaml [int]s, which leaves enough headroom for limb
    products and carry accumulation on 64-bit platforms.  All values
    are normalized: the most significant limb is non-zero and zero is
    the empty array.  The type is immutable from the outside —
    functions never mutate their arguments. *)

type t

val base_bits : int
(** Number of payload bits per limb (26). *)

val zero : t
val one : t
val two : t

val of_int : int -> t
(** [of_int n] converts a non-negative native integer.
    @raise Invalid_argument if [n < 0]. *)

val to_int_exn : t -> int
(** @raise Failure when the value exceeds native [int] range. *)

val is_zero : t -> bool
val is_even : t -> bool

val equal : t -> t -> bool
val compare : t -> t -> int

val add : t -> t -> t

val sub : t -> t -> t
(** [sub a b] is [a - b].
    @raise Invalid_argument if [b > a]. *)

val mul : t -> t -> t
(** Schoolbook multiplication below {!karatsuba_threshold} limbs,
    Karatsuba above. *)

val sqr : t -> t

val rem : t -> t -> t
(** [rem a b] is [a mod b] (Knuth Algorithm D).
    @raise Division_by_zero if [b] is zero. *)

val rem_int : t -> int -> int

val inv_mod : t -> t -> t
(** [inv_mod a m] is the inverse of [a mod m] in [\[1, m)], by the
    extended Euclidean algorithm.
    @raise Not_found when [a] is not invertible mod [m].
    @raise Invalid_argument when [m < 2]. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val bit_length : t -> int
(** Position of the highest set bit plus one; [bit_length zero = 0]. *)

val test_bit : t -> int -> bool

val wnaf : width:int -> t -> int array
(** Width-[width] non-adjacent form, least significant digit first:
    every non-zero digit is odd and below 2{^(width−1)} in absolute
    value, any [width] consecutive digits hold at most one non-zero,
    and Σ d{_i}·2{^i} is the input.  The array is empty for zero and at
    most one longer than {!bit_length}.  Reads the bits with no
    bignum arithmetic.
    @raise Invalid_argument unless [2 <= width <= 20]. *)

val to_limbs : t -> int array
(** Low-level: a copy of the little-endian 26-bit limb array
    (empty for zero).  For sibling modules implementing limb-level
    algorithms (e.g. Montgomery REDC). *)

val of_limbs : int array -> t
(** Low-level inverse of {!to_limbs}; the array is copied and
    normalized.  @raise Invalid_argument if any limb is out of
    range. *)

val to_hex : t -> string

val of_bytes_be : string -> t
(** Big-endian unsigned byte-string decoding. *)

val to_bytes_be : ?len:int -> t -> string
(** Big-endian encoding; left-padded with zero bytes to [len] when
    given.  @raise Invalid_argument if the value needs more than [len]
    bytes. *)

val random : bytes_source:(int -> string) -> bits:int -> t
(** Uniform in [\[0, 2^bits)], consuming bytes from [bytes_source]. *)

val random_below : bytes_source:(int -> string) -> t -> t
(** Uniform in [\[0, n)] by rejection sampling.
    @raise Invalid_argument if [n] is zero. *)

val pp : Format.formatter -> t -> unit
(** Prints in decimal. *)
