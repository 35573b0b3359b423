(** Protocol I — system initialization and registration.

    One {!t} models a deployment: the SIO's published parameters, a
    designated agency, a set of cloud servers and any number of
    registered users.  All randomness flows from a named seed, so
    every run is reproducible. *)

type t

val create :
  ?params:Sc_pairing.Params.t lazy_t ->
  seed:string ->
  cs_ids:string list ->
  da_id:string ->
  unit ->
  t
(** Sets up the SIO (master key, P_pub), extracts keys for the DA and
    each cloud server.  [params] defaults to
    {!Sc_pairing.Params.small}. *)

val public : t -> Sc_ibc.Setup.public
val da_id : t -> string
val da_key : t -> Sc_ibc.Setup.identity_key
val cs_ids : t -> string list

val cs_key : t -> string -> Sc_ibc.Setup.identity_key
(** @raise Not_found for unknown server identities. *)

val register_user : t -> string -> Sc_ibc.Setup.identity_key
(** Extracts (or returns the already-extracted) key for a user.
    Domain-safe: the service layer's shard workers may register
    tenants concurrently; extraction is a pure function of the
    identity, so the result never depends on the schedule. *)

val bytes_source : t -> int -> string
