(** A cloud server: storage plus execution, with independently
    injectable storage- and computation-cheating behaviours. *)

type t

val create :
  System.t ->
  id:string ->
  ?storage:Sc_storage.Server.behaviour ->
  ?compute:Sc_compute.Executor.behaviour ->
  unit ->
  t
(** Both behaviours default to honest.
    @raise Not_found if [id] was not declared at system creation. *)

val id : t -> string
val storage : t -> Sc_storage.Server.t

val storage_confidence : t -> float
(** The server's SSC. *)

val computing_confidence : t -> float
(** The server's CSC. *)

val accept_upload : t -> Sc_storage.Signer.upload -> bool
(** Protocol II server side: verifies every designated block signature
    (the server is a designated verifier) before storing, as one
    {!Sc_ibc.Agg.verify_batch} — one pairing per upload, and accepted
    exactly when every block verifies.  Returns whether the upload was
    accepted. *)

val accept_upload_unchecked : t -> Sc_storage.Signer.upload -> unit
(** Stores without verification (used to model lazy servers). *)

val execute :
  t ->
  owner:string ->
  file:string ->
  Sc_compute.Task.service ->
  Sc_compute.Executor.execution
(** Protocol III server side: run the service over stored data and
    build the Merkle commitment. *)

val respond_to_audit :
  t ->
  now:float ->
  Sc_compute.Executor.execution ->
  Sc_audit.Protocol.challenge ->
  Sc_compute.Executor.response list option
(** Checks the warrant, then returns sampled responses; [None] refuses
    the challenge.  The warrant must be from the execution's owner
    ({!Sc_compute.Executor.owner}), delegated to the system's DA, and
    unexpired at [now]: these are checked on every request.  Its signature is verified once per server: the server's
    own memo ({!Sc_ibc.Ibs.Memo}, counted as [memo="warrant"]) answers
    a warrant it has already accepted.  Shared by {!Endpoint.Server}
    and the in-process {!Agency}. *)
