(** Data blocks and their canonical signing encoding.

    A block's signature covers the owning file, the block's position
    and its payload, so a server answering with the right data *from
    the wrong position* (the PCS attack of §VII-A) fails signature
    verification. *)

type t = { file : string; index : int; data : string }

val signing_message : t -> string
(** The message m_i fed to the identity-based signature. *)

val encode_ints : int list -> string
(** Serialize a numeric payload (the cloud-computation data model)
    into a block body. *)

val decode_ints : string -> int list option
(** Inverse of {!encode_ints}; [None] on malformed payloads. *)
