(** RSA with full-domain-hash signatures — the "RSA" row of the
    paper's Table II.  Textbook-structure keygen with Miller–Rabin
    primes and an FDH built by counter-mode expansion of SHA-256. *)

open Sc_bignum

type public = { n : Nat.t; e : Nat.t }
type secret = { pub : public; d : Nat.t }

val generate : bytes_source:(int -> string) -> bits:int -> secret
(** [bits] is the modulus size; e = 65537. *)

val sign : secret -> string -> Nat.t
(** s = FDH(m)^d mod n, the full-domain hash taken into Z_n. *)

val verify : public -> string -> Nat.t -> bool
(** s^e mod n = FDH(m). *)
