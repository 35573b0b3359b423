(** The identity-based signature underlying the paper's Data Signing
    step (§V-B1):

    - sign:   r ← Z_q*, U = r·Q_ID, h = H2(U ‖ m), V = (r + h)·sk_ID
    - verify: ê(V, P) = ê(U + h·Q_ID, P_pub)

    The raw (U, V) pair is publicly verifiable; the designated-verifier
    transform of {!Dvs} is what the protocol actually publishes. *)

open Sc_bignum
open Sc_ec

type t = { u : Curve.point; v : Curve.point }

val h2 : Setup.public -> u:Curve.point -> msg:string -> Nat.t
(** The hash h = H2(U ‖ m) used by both sign and verify. *)

val sign :
  Setup.public ->
  Setup.identity_key ->
  bytes_source:(int -> string) ->
  string ->
  t

type exponent
(** The signing exponent e = (r + h) mod q, so that V = e·sk_ID.
    Secret: for any Σ = ê(sk_ID, Q_B){^e} it recovers the base
    ê(sk_ID, Q_B) as Σ{^e⁻¹}, and with it the power to forge
    designated signatures for B.  Abstract so the typed lint can
    track it. *)

val sign_exponent :
  Setup.public ->
  Setup.identity_key ->
  bytes_source:(int -> string) ->
  string ->
  Curve.point * exponent
(** [(U, e)] of {!sign} without forming V = e·sk_ID: the same
    randomness draw, so [fst] equals [(sign …).u] for the same
    [bytes_source] state.  Counts one [ibs.sign]. *)

val gt_pow_exponent :
  Setup.public -> Sc_pairing.Tate.gt -> exponent -> Sc_pairing.Tate.gt
(** [base{^e}] in GT, for designating a signature from its exponent
    (see {!Dvs.sign}). *)

val verify : Setup.public -> signer:string -> msg:string -> t -> bool
(** Checks ê(V, P)·ê(−W, P_pub) = 1 as one 2-term
    {!Sc_pairing.Tate.multi_pairing} — a single shared Miller loop
    instead of the two pairings of the textbook equation. *)

val verify_batch : Setup.public -> (string * string * t) list -> bool
(** [verify_batch pub [(signer, msg, sig); …]] verifies every
    signature with one 2-term multi-pairing total (plus two scalar
    multiplications per entry), using batch-transcript-derived
    combining coefficients to prevent cross-signature cancellation.
    Accepts the empty batch.  A [true] verdict is overwhelmingly (not
    absolutely) sound, as usual for small-exponent batch tests; on
    [false], re-check individually with {!verify} to attribute
    blame. *)

val verification_point :
  Setup.public -> q_id:Curve.point -> msg:string -> u:Curve.point -> Curve.point
(** [U + H2(U‖m)·Q_ID] — the G1 element all verification flavours
    (public, designated, aggregated) pair against. *)

val to_bytes : Setup.public -> t -> string
val of_bytes : Setup.public -> string -> t option
