(** A bounded FIFO request queue — the per-shard admission buffer.

    Capacity is a hard cap: {!push} on a full queue refuses (the
    caller translates that into a typed [Overloaded] rejection) and
    never blocks, so backpressure is always visible to the client
    instead of silently absorbed.

    Not internally synchronized.  The service layer upholds the
    discipline documented there: pushes happen on the submitting
    domain while no drain is running, pops happen from the single
    worker that owns the shard during a drain round; the two phases
    are separated by the pool barrier. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument if [capacity < 1]. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> bool
(** [false] when the queue is at capacity (the element is refused). *)

val pop : 'a t -> 'a option
(** Oldest element, FIFO. *)
