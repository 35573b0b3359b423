(** Deterministic random byte generator (HMAC-DRBG, NIST SP 800-90A
    with SHA-256).  Given the same seed it produces the same stream,
    which makes every simulation and test in this repository
    reproducible.

    The generator keeps its HMAC key K prepared ({!Hmac.prepare}), so
    each K serves the whole generate loop and the first MAC of the
    next update.  [generate t n] costs [2·⌈n/32⌉ + 6] SHA-256
    compressions (8 for one byte), against [4·⌈n/32⌉ + 8] with the key
    re-derived for every MAC; the stream is the same. *)

type t

val create : seed:string -> t

val generate : t -> int -> string
(** [generate t n] returns [n] fresh pseudo-random bytes. *)

val bytes_source : t -> int -> string
(** The same as {!generate}, shaped for APIs that take an
    [int -> string] byte source. *)

val uniform_int : t -> int -> int
(** [uniform_int t n] draws uniformly from [\[0, n)] by rejection.
    @raise Invalid_argument if [n <= 0]. *)

val sample_prefix : t -> n:int -> k:int -> int array
(** [sample_prefix t ~n ~k] is the first [min k n] entries of 0..n−1
    after a partial Fisher–Yates shuffle: [min k n] distinct indices,
    drawn with one {!uniform_int} per entry, in draw order.  Bound [n]
    before calling: it sizes an allocation. *)

val float : t -> float
(** Uniform in [\[0, 1)] with 53 bits of precision. *)
