(** Distributed-trace identity: 128-bit trace id + parent span id.

    A context names the span a new child should attach to, across
    domain and transport boundaries.  Trace ids are deterministic
    (atomic counter through a 64-bit mixer — no wall clock, no
    [Random]) so seeded campaigns stay reproducible, and the all-zero
    id is reserved as invalid. *)

type t = {
  trace : string;  (** exactly {!trace_bytes} raw bytes, never all-zero *)
  span : int;  (** id of the propagating parent span *)
}

val ctx_bytes : int
(** Raw size of {!to_bytes} output: trace id + 8-byte span id (24). *)

val fresh_trace : unit -> string
(** A new process-unique trace id ({!trace_bytes} raw bytes). *)

val to_hex : string -> string

(** {2 Ambient remote context}

    Domain-local: installing a context on one domain never affects
    another.  {!Span.with_span} adopts the ambient context as parent
    when its local span stack is empty. *)

val current : unit -> t option
val with_remote : t option -> (unit -> 'a) -> 'a
(** Install [ctx] for the duration of the thunk (exception-safe,
    restores the previous ambient context). *)

(** {2 Wire form} — fixed-width, unauthenticated (framing adds its own
    checksum; see [Seccloud.Envelope]). *)

val to_bytes : t -> string
(** [ctx_bytes] bytes: trace id followed by the span id, big-endian. *)

val of_bytes : string -> t option
(** Inverse of {!to_bytes}; [None] on wrong length, all-zero trace id
    or out-of-range span id. *)
