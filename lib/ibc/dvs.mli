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
(** ê(sk_ID, Q_B): one signer's designation base for one verifier,
    held as its fixed-base comb ({!Sc_pairing.Tate.gt_comb}): 16
    F_p² entries in Montgomery limbs: 1.4 kB of heap on [small] and
    5.2 kB on [mid], where the bare base is 120 and 360 bytes.
    Secret: whoever holds it forges designated signatures for B, as
    Σ_B = base{^(r+h)} for any chosen r.  Abstract so the typed lint
    can track it. *)

val base : Setup.public -> Setup.identity_key -> verifier:string -> base
(** One {!Sc_pairing.Tate.pairing_precomp} replayed from the
    verifier's cached Miller table for Q_B, then one comb build.
    Deterministic, so a caller may build it once per (signer,
    verifier) and keep it.  Opens the span [dvs.base]. *)

val sign_batch :
  Setup.public ->
  Setup.identity_key ->
  bytes_source:(int -> string) ->
  base * base ->
  string list ->
  (Curve.point * Sc_pairing.Tate.gt * Sc_pairing.Tate.gt) list
(** [sign_batch pub key ~bytes_source (b_cs, b_da) msgs] is
    [(U_i, Σ_CS,i, Σ_DA,i)] for each message, with Σ_B = b_B{^(r_i+h_i)}
    — by bilinearity bit-identical to
    [designate pub (Ibs.sign pub key ~bytes_source msg)] for each
    verifier, with the same DRBG stream as one such call per message
    in turn.  It costs no pairing: one {!Ibs.sign_exponents} (one
    shared inversion for every U_i) and two comb exponentiations per
    message.  Protocol II always designates to two verifiers: the
    cloud server and the agency. *)

val equation :
  Setup.public -> Sc_pairing.Tate.precomp -> q_id:Curve.point -> msg:string -> t ->
  Sc_pairing.Equation.t
(** Σ = ê(U + H2(U‖m)·Q_ID, sk_B) against sk_B's cached Miller table,
    as {!verify} checks it and [Agg.verify_batch] combines it. *)

val verify :
  Setup.public ->
  verifier_key:Setup.identity_key ->
  q_id:Curve.point ->
  msg:string ->
  t ->
  bool
(** [q_id] is the signer's {!Setup.q_of_id}.  One pairing, checked by
    {!Sc_pairing.Equation.holds}; a caller checking many signatures at
    once uses {!Agg.verify_each}. *)

val verify_all :
  Setup.public ->
  verifier_key:Setup.identity_key ->
  (Curve.point * string * t) list ->
  bool list
(** [verify_all pub ~verifier_key [(q_id, msg, s); …]] is {!verify}'s
    answer for each entry, the entries free to have different signers:
    one pairing per entry whose U is on the curve, and one shared field
    inversion for all their verification points
    ({!Sc_pairing.Equation.holds_each}).  The blame step of
    {!Agg.verify_each}, and its check of a suspect server's
    entries. *)

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
