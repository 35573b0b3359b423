(** Client-side Data Signing (§V-B1).

    For each block the user publishes U_i and the designated forms
    Σ_i = ê(V_i, Q_CS) and Σ'_i = ê(V_i, Q_DA) of the raw
    identity-based signature (U_i, V_i) — only the cloud server and
    the designated agency can verify, which is the
    privacy-cheating-discouragement mechanism.  V_i = (r_i+h_i)·sk_ID
    is never formed: by bilinearity Σ_i = ê(sk_ID, Q_CS)^(r_i+h_i), so
    a file costs two pairings (the bases, {!Sc_ibc.Dvs.base}) plus two
    GT exponentiations per block ({!Sc_ibc.Dvs.sign}). *)

type signed_block = {
  block : Block.t;
  u : Sc_ec.Curve.point;
  sigma_cs : Sc_pairing.Tate.gt; (* designated to the cloud server *)
  sigma_da : Sc_pairing.Tate.gt; (* designated to the agency *)
}

type upload = { file : string; owner : string; blocks : signed_block array }

val sign_file :
  Sc_ibc.Setup.public ->
  Sc_ibc.Setup.identity_key ->
  bytes_source:(int -> string) ->
  cs_id:string ->
  da_id:string ->
  file:string ->
  string list ->
  upload
(** Signs every payload of the file.  After this call the user can
    delete the local copy (the paper's flow). *)

val dvs_for : [ `Cs | `Da ] -> signed_block -> Sc_ibc.Dvs.t
(** Project the stored designated signature for one verifier. *)

val verify_block :
  Sc_ibc.Setup.public ->
  verifier_key:Sc_ibc.Setup.identity_key ->
  role:[ `Cs | `Da ] ->
  owner:string ->
  Block.t ->
  signed_block ->
  bool
(** Equation (5)/(7): designated verification of one stored block
    against the payload the server claims for it. *)
