(** Designated-verifier signatures (§V-B of the paper).

    Instead of publishing the raw signature component V, the signer
    publishes Σ_B = ê(V, Q_B) for each designated verifier B (the
    cloud server and the designated agency in SecCloud).  Only a party
    holding sk_B can check

      Σ_B = ê(U + H2(U‖m)·Q_ID, sk_B)

    and — crucially for the privacy-cheating-discouragement model —
    any such party can also *simulate* valid-looking tuples with
    {!simulate}, so a transcript convinces nobody else (§VII-B). *)

open Sc_ec

type t = { u : Curve.point; sigma : Sc_pairing.Tate.gt }

val designate : Setup.public -> Ibs.t -> verifier:string -> t
(** Transforms a raw signature for the given verifier identity: one
    pairing ê(V, Q_B).  The textbook form; signers use {!sign}, which
    gives the same Σ_B without forming V. *)

type base
(** ê(sk_ID, Q_B): one signer's designation base for one verifier.
    Secret: whoever holds it forges designated signatures for B, as
    Σ_B = base{^(r+h)} for any chosen r.  Abstract so the typed lint
    can track it. *)

val base : Setup.public -> Setup.identity_key -> verifier:string -> base
(** One {!Sc_pairing.Tate.pairing_precomp} replayed from the
    verifier's cached Miller table for Q_B. *)

val sign :
  Setup.public ->
  Setup.identity_key ->
  bytes_source:(int -> string) ->
  base * base ->
  string ->
  Curve.point * Sc_pairing.Tate.gt * Sc_pairing.Tate.gt
(** [sign pub key ~bytes_source (b_cs, b_da) msg] is
    [(U, Σ_CS, Σ_DA)] with Σ_B = b_B{^(r+h)} — by bilinearity
    bit-identical to
    [designate pub (Ibs.sign pub key ~bytes_source msg)] for each
    verifier, at one fixed-base U plus one GT exponentiation per
    verifier, and no pairing.  Protocol II always designates to two
    verifiers: the cloud server and the agency. *)

val verify :
  Setup.public ->
  verifier_key:Setup.identity_key ->
  signer:string ->
  msg:string ->
  t ->
  bool

val simulate :
  Setup.public ->
  verifier_key:Setup.identity_key ->
  signer:string ->
  msg:string ->
  bytes_source:(int -> string) ->
  t
(** A forgery computed with the *verifier's* key: indistinguishable
    from a real signature and accepted by {!verify}.  Its existence is
    what discourages the verifier from reselling transcripts. *)
