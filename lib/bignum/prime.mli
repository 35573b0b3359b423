(** Primality testing and prime generation.

    Randomness is supplied externally as a [bytes_source : int ->
    string] function (e.g. an HMAC-DRBG), keeping this library free of
    entropy dependencies and making generation reproducible. *)

val is_probably_prime :
  ?rounds:int -> bytes_source:(int -> string) -> Nat.t -> bool
(** Miller–Rabin with [rounds] random bases (default 32) after trial
    division by the primes below 10_000. *)

val random_prime : bytes_source:(int -> string) -> bits:int -> Nat.t
(** A random probable prime with exactly [bits] bits (top bit set).
    @raise Invalid_argument when [bits < 2]. *)
