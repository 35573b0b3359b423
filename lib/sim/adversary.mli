(** The Byzantine adversary of §III-B: controls at most [bound]
    servers in any given epoch, re-choosing its victims each epoch
    (the HAIL-style mobile-adversary model the paper cites).
    Corrupted servers receive arbitrary storage/compute behaviours
    drawn from the attack catalogue. *)

type corruption = {
  storage : Sc_storage.Server.behaviour;
  compute : Sc_compute.Executor.behaviour;
}

type t

val create :
  drbg:Sc_hash.Drbg.t ->
  bound:int ->
  server_ids:string list ->
  ?catalogue:corruption list ->
  unit ->
  t
(** @raise Invalid_argument if [bound] exceeds the server count.
    The default catalogue covers every attack of §III-B. *)

val new_epoch : t -> unit
(** Re-sample the corrupted set and their behaviours. *)

val corruption_of : t -> string -> corruption option
(** [None] means the server is honest this epoch. *)

val corrupted : t -> string list
