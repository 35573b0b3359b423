(** A cloud storage server with injectable misbehaviour — the
    Storage-Cheating Model of §III-B.

    The honest fraction of reads follows the protocol; the cheating
    fraction realizes the attacks the paper lists: silently deleted
    blocks answered with random bytes, corrupted payloads, and data
    served from a different position than requested. *)

type behaviour =
  | Honest
  | Delete_fraction of float
      (** Blocks dropped to save space; reads answered with random
          bytes (the semi-honest case). *)
  | Corrupt_fraction of float
      (** Stored payloads tampered with (the malicious case). *)
  | Substitute_fraction of float
      (** Reads served with the data (and signature) of a different,
          existing position — the PCS attack. *)

type t

type read_result = {
  claimed : Block.t; (* what the server claims this position holds *)
  signed : Signer.signed_block; (* the signature material it returns *)
}

val create : behaviour -> drbg:Sc_hash.Drbg.t -> t

val store : t -> Signer.upload -> unit

val read : t -> file:string -> index:int -> read_result option
(** What the server answers to "give me block [index] of [file]" —
    possibly dishonestly, per its behaviour. *)

val read_honest : t -> file:string -> index:int -> read_result option
(** Bypasses the cheating layer (used by oracles in tests). *)

val file_size : t -> string -> int option
val files : t -> string list
