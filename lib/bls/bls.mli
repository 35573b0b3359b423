(** BLS short signatures and BGLS aggregation — the "BGLS" row of
    Table II, and the signature substrate of the Wang-et-al.-style
    auditing baselines compared against in Figure 5.

    - sign:   σ = x·H(m) ∈ G1
    - verify: ê(σ, P) = ê(H(m), X) where X = x·P
    - BGLS:   ê(Σσ_i, P) = Π ê(H(m_i), X_i)  — (n+1) pairings for n
      signatures (vs 2n individually). *)

open Sc_bignum
open Sc_ec

type keypair = { x : Nat.t; pk : Curve.point }

val generate : Sc_pairing.Params.t -> bytes_source:(int -> string) -> keypair
val sign : Sc_pairing.Params.t -> keypair -> string -> Curve.point
val verify : Sc_pairing.Params.t -> Curve.point -> string -> Curve.point -> bool

val aggregate : Sc_pairing.Params.t -> Curve.point list -> Curve.point

val verify_aggregate :
  Sc_pairing.Params.t ->
  (Curve.point * string) list ->
  Curve.point ->
  bool
(** [verify_aggregate prm [(pk_i, m_i); ...] sigma] checks the BGLS
    equation.  Messages must be distinct for security; this is
    enforced. *)
