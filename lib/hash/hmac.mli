(** HMAC-SHA256 (RFC 2104 / FIPS 198-1).

    A MAC over an [n]-byte message costs [⌊(n + 72) / 64⌋]
    compressions for the inner hash and one for the outer, once its key
    is prepared: 2 for a message of up to 55 bytes.  Preparing costs 2
    more (3 for a key longer than 64 bytes), so {!mac} and
    {!mac_concat} cost 4 for a short message.  Each MAC counts 2
    digests and [160 + n] bytes, with or without a prepared key. *)

type key
(** A prepared key: the SHA-256 chaining values after the ipad block
    and after the opad block, 16 ints. *)

val prepare : string -> key

val mac_prepared : key -> string list -> string
(** Raw 32-byte tag over the concatenation of the fragments.
    [mac_prepared (prepare k) parts = mac_concat ~key:k parts]. *)

val mac : key:string -> string -> string
(** Raw 32-byte tag. *)

val mac_concat : key:string -> string list -> string
(** Tag over the concatenation of the fragments. *)

val mac_hex : key:string -> string -> string
