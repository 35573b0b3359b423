(** The identity-based signature underlying the paper's Data Signing
    step (§V-B1):

    - sign:   r ← Z_q*, U = r·Q_ID, h = H2(U ‖ m), V = (r + h)·sk_ID
    - verify: ê(V, P) = ê(U + h·Q_ID, P_pub)

    The raw (U, V) pair is publicly verifiable; the designated-verifier
    transform of {!Dvs} is what the protocol actually publishes.

    Which signatures the verifiers ({!verify}, {!verify_batch},
    {!verify_each}) accept, for T a point of order dividing the
    cofactor:
    - a signer-made U + T, with U = r·Q_ID + T and h taken over that
      U: yes.  The pairing against the fixed P_pub maps T to 1, and
      only the signer, who could sign the message anyway, can make
      one;
    - a third party's (U + T, V): no, since h = H2(U + T‖m) changes;
    - (U, V + T): no.  V is subgroup-checked, so no one can derive a
      second accepted signature from an accepted one.
    U is only checked to lie on the curve. *)

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
      signature it sees again only once.  A {!Digest_set} of the
      canonical (signer, message, signature bytes): 32 bytes per
      entry, at most {!capacity} entries, started over when full.
      Only {!verify} and {!verify_each} add to it, and only
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
(** Checks ê(−V, P)·ê(W, P_pub) = 1, W = U + H2(U‖m)·Q_ID, as one
    2-term {!Sc_pairing.Equation} — a single shared Miller loop instead
    of the two pairings of the textbook equation — after one subgroup
    multiplication on V and one field inversion for W.  With a [memo],
    a signature it holds is accepted without the check (and without
    counting [ibs.verify]); one that passes the check is added. *)

val verify_batch : Setup.public -> (string * string * t) list -> bool
(** [verify_batch pub [(signer, msg, sig); …]] verifies every
    signature with one 2-term multi-pairing total, plus one subgroup
    multiplication per V: the per-signature equations combined by
    {!Sc_pairing.Equation.combine} (two multi-scalar multiplications,
    one fixed-base comb per distinct signer), with
    batch-transcript-derived coefficients to prevent cross-signature
    cancellation.  Accepts the empty batch.  A [true] verdict is
    overwhelmingly (not absolutely) sound, as usual for small-exponent
    batch tests; on [false], {!verify_each} re-checks individually to
    attribute blame. *)

val verify_each :
  ?memo:Memo.t ->
  Setup.public ->
  (string * string * t) option list ->
  bool option list
(** Batch then blame, slot by slot ({!Sc_pairing.Equation.verify_each},
    as [Agg.verify_each]): a [Some (signer, msg, sig)] slot gets
    {!verify}'s answer in place, up to the soundness bound of
    {!verify_batch}; a [None] slot stays [None].  Entries the [memo]
    holds are answered [true] unchecked, and every accepted one is
    added to it.  A lone fresh entry costs one {!verify}, two or more
    one {!verify_batch}, and only when it rejects one {!verify} each,
    their points sharing one inversion (span [ibs.blame], counted on
    [ibs.verify_each.rejects] and, per entry, [ibs.verify]). *)

val to_bytes : Setup.public -> t -> string
val of_bytes : Setup.public -> string -> t option
