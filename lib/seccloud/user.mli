(** A cloud user: owns data, signs and uploads it (Protocol II client
    side), requests computations and delegates auditing to the DA. *)

type t

val create : System.t -> id:string -> t
val id : t -> string
val key : t -> Sc_ibc.Setup.identity_key

val sign_file : t -> cs_id:string -> file:string -> string list -> Sc_storage.Signer.upload
(** Data Signing for every block, designated to the given server and
    to the system's DA.  The user keeps the designation bases it
    builds for each server ({!Sc_storage.Signer.bases}, two pairings),
    so a returning owner's file to the same server costs no pairing. *)

val store : t -> Cloud.t -> file:string -> string list -> bool
(** Sign and upload in one step; returns the server's accept flag. *)

val store_over :
  t ->
  transport:Transport.t ->
  cs_id:string ->
  file:string ->
  string list ->
  (bool, Transport.error) result
(** Protocol II over the wire: sign, send the [Upload] through the
    fault-injectable transport (retrying per its policy) and return
    the server's accept flag, or the typed channel error when every
    attempt was lost or mangled. *)

val delegate_audit :
  t ->
  now:float ->
  lifetime:float ->
  scope:string ->
  Sc_ibc.Warrant.signed
(** Issues the audit warrant naming the DA (§V-D). *)

val verify_own_block :
  t ->
  role:[ `Cs | `Da ] ->
  verifier_key:Sc_ibc.Setup.identity_key ->
  Sc_storage.Server.read_result ->
  bool
(** Convenience: check a read result against the owner's identity. *)
