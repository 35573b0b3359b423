(** A bounded set of SHA-256 digests, for the per-party state a
    verifier keys on strings from untrusted parties: {!Ibs.Memo}'s
    accepted signatures and the suspect servers of
    {!Agg.verify_each}.  A key is a fixed 32 bytes whatever the length
    of the string it digests.  The set holds at most {!capacity} keys
    and starts over when a new one arrives at a full set, rather than
    track an eviction order.  Not domain-safe: each owner keeps its
    own. *)

type t
type key

val capacity : int
(** 256. *)

val key : string -> key
(** SHA-256 of the string. *)

val create : unit -> t
val size : t -> int
val mem : t -> key -> bool

val add : t -> key -> unit
(** A key the set does not hold empties a full set first. *)

val remove : t -> key -> unit
