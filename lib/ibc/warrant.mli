(** Delegation warrants (§V-D): when a cloud user delegates auditing
    to the DA it issues a warrant naming the delegatee and an expiry
    time; the cloud server checks the warrant before answering audit
    challenges. *)

type t = {
  delegator : string; (* cloud user identity *)
  delegatee : string; (* usually the DA *)
  issued_at : float; (* simulated epoch seconds *)
  expires_at : float;
  scope : string; (* free-form description of the delegated task *)
}

type signed = { warrant : t; signature : Ibs.t }

val encode : t -> string
(** Canonical byte encoding covered by the signature. *)

val issue :
  Setup.public ->
  Setup.identity_key ->
  bytes_source:(int -> string) ->
  delegatee:string ->
  now:float ->
  lifetime:float ->
  scope:string ->
  signed

val verify : ?memo:Ibs.Memo.t -> Setup.public -> now:float -> signed -> bool
(** Checks the signature *and* that the warrant has not expired and
    was not used before issuance.  The time window is checked on every
    call; the signature is looked up in [memo] first (see
    {!Ibs.verify}). *)

val expired : now:float -> t -> bool
