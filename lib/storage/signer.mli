(** Client-side Data Signing (§V-B1).

    For each block the user publishes U_i and the designated forms
    Σ_i = ê(V_i, Q_CS) and Σ'_i = ê(V_i, Q_DA) of the raw
    identity-based signature (U_i, V_i) — only the cloud server and
    the designated agency can verify, which is the
    privacy-cheating-discouragement mechanism.  V_i = (r_i+h_i)·sk_ID
    is never formed: by bilinearity Σ_i = ê(sk_ID, Q_CS)^(r_i+h_i).
    The two bases cost one pairing each ({!bases}), once per owner and
    cloud server; with them a file costs no pairing, two comb
    exponentiations per block and one field inversion
    ({!Sc_ibc.Dvs.sign_batch}). *)

type signed_block = {
  block : Block.t;
  u : Sc_ec.Curve.point;
  sigma_cs : Sc_pairing.Tate.gt; (* designated to the cloud server *)
  sigma_da : Sc_pairing.Tate.gt; (* designated to the agency *)
}

type upload = { file : string; owner : string; blocks : signed_block array }

type bases = Sc_ibc.Dvs.base * Sc_ibc.Dvs.base
(** The owner's designation bases for the cloud server and the agency,
    in that order. *)

val bases :
  Sc_ibc.Setup.public ->
  Sc_ibc.Setup.identity_key ->
  cs_id:string ->
  da_id:string ->
  bases
(** Two {!Sc_ibc.Dvs.base}: two pairings and two comb builds.  They
    depend only on the key and the two identities, so an owner builds
    them once per cloud server and keeps them. *)

val sign_file :
  Sc_ibc.Setup.public ->
  Sc_ibc.Setup.identity_key ->
  bytes_source:(int -> string) ->
  bases:bases ->
  file:string ->
  string list ->
  upload
(** Signs every payload of the file as one batch under the span
    [signer.sign_blocks] (attribute [blocks]).  After this call the
    user can delete the local copy (the paper's flow). *)

val dvs_for : [ `Cs | `Da ] -> signed_block -> Sc_ibc.Dvs.t
(** Project the stored designated signature for one verifier. *)

val agg_entry :
  [ `Cs | `Da ] -> owner:string -> Block.t -> signed_block -> Sc_ibc.Agg.entry
(** The batch-verification entry for one stored block against the
    payload claimed for it: {!verify_block}'s check, in the form
    {!Sc_ibc.Agg.verify_batch} folds into one equation. *)

val verify_block :
  Sc_ibc.Setup.public ->
  verifier_key:Sc_ibc.Setup.identity_key ->
  role:[ `Cs | `Da ] ->
  q_id:Sc_ec.Curve.point ->
  Block.t ->
  signed_block ->
  bool
(** Equation (5)/(7): designated verification of one stored block
    against the payload the server claims for it.  [q_id] is the
    owner's {!Sc_ibc.Setup.q_of_id}. *)
