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

type exponent = private Nat.t
(** The signing exponent e = (r + h) mod q, so that V = e·sk_ID.
    Secret: for any Σ = ê(sk_ID, Q_B){^e} it recovers the base
    ê(sk_ID, Q_B) as Σ{^e⁻¹}, and with it the power to forge
    designated signatures for B.  Private, so only {!sign_exponents}
    makes one and the typed lint tracks it by name; a designating
    signer coerces it to raise its bases ({!Dvs.sign_batch}). *)

val sign_exponents :
  Setup.public ->
  Setup.identity_key ->
  bytes_source:(int -> string) ->
  string list ->
  (Curve.point * exponent) list
(** [(U_i, e_i)] of {!sign} for each message, without forming any
    V = e·sk_ID.  The r_i are drawn in message order, so the DRBG
    stream is that of one {!sign} per message in turn, and [U_i] equals
    their [u]; the U_i come out of one {!Curve.mul_precomp_batch},
    which normalizes them with a single field inversion.  Counts one
    [ibs.sign] per message. *)

module Memo : sig
  (** Signatures one party has already verified, so that it checks a
      signature it sees again only once.  A set of SHA-256 digests of
      the canonical (signer, message, signature bytes): 32 bytes per
      entry.  It holds at most {!capacity} entries and starts over
      when full.  Only {!verify} and {!verify_each} add to it, and only
      signatures they accepted, so a memo never changes a verdict.

      There is no shared instance: each party owns its own.  A
      caller that passes none pays the full check, so the protocol
      cost counts of Table II do not depend on what ran before.  Not
      domain-safe: an owner that runs on several domains keeps one per
      domain. *)

  type t

  val capacity : int
  (** 256. *)

  val create : string -> t
  (** [create name]: [name] labels the [ibs.memo.hit] /
      [ibs.memo.miss] counters each lookup bumps. *)

  val size : t -> int
end

val verify :
  ?memo:Memo.t -> Setup.public -> signer:string -> msg:string -> t -> bool
(** Checks ê(V, P)·ê(−W, P_pub) = 1 as one 2-term
    {!Sc_pairing.Tate.multi_pairing} — a single shared Miller loop
    instead of the two pairings of the textbook equation.  With a
    [memo], a signature it holds is accepted without the check (and
    without counting [ibs.verify]); one that passes the check is
    added. *)

val verify_batch : Setup.public -> (string * string * t) list -> bool
(** [verify_batch pub [(signer, msg, sig); …]] verifies every
    signature with one 2-term multi-pairing total (plus two
    multi-scalar multiplications, see {!combined_verification_point}),
    using batch-transcript-derived
    combining coefficients to prevent cross-signature cancellation.
    Accepts the empty batch.  A [true] verdict is overwhelmingly (not
    absolutely) sound, as usual for small-exponent batch tests; on
    [false], {!verify_each} re-checks individually to attribute
    blame. *)

val verify_each :
  ?memo:Memo.t ->
  Setup.public ->
  (string * string * t) option list ->
  bool option list
(** Batch then blame, slot by slot, as {!Agg.verify_each}: a [Some
    (signer, msg, sig)] slot gets its answer back in place, a [None]
    slot stays [None].  Entries the [memo] holds are answered [true]
    unchecked.  The rest go through one {!verify_batch}, and only when
    it rejects one {!verify} each (under span [ibs.blame], counted on
    [ibs.verify_each.rejects]).  Every accepted entry is added to the
    [memo].  The answers are {!verify}'s, entry by entry, up to the
    soundness bound of {!verify_batch}. *)

val verification_point :
  Setup.public -> q_id:Curve.point -> msg:string -> u:Curve.point -> Curve.point
(** [U + H2(U‖m)·Q_ID] — the G1 element all verification flavours
    (public, designated, aggregated) pair against. *)

val combined_verification_point :
  Setup.public -> (Nat.t * string * string * Curve.point) list -> Curve.point
(** [combined_verification_point pub [(c, signer, msg, u); …]] is
    Σ c·(U + H2(U‖m)·Q_signer): one {!Curve.msm} over the U and one
    fixed-base multiplication per distinct signer, instead of one
    {!verification_point} per entry.  The combine step of both batch
    verifiers ({!verify_batch} and [Agg.verify_batch]). *)

val to_bytes : Setup.public -> t -> string
val of_bytes : Setup.public -> string -> t option
