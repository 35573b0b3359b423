(** BLS-homomorphic-authenticator public auditing in the style of
    Wang et al. (ESORICS'09 / INFOCOM'10, refs [4], [5] of the paper)
    — the linear-cost comparison curves of Figure 5.

    Per file of blocks m_1..m_n (scalars in Z_q):
    - tags:      σ_i = x·(H(name‖i) + m_i·u) ∈ G1
    - challenge: a random coefficient ν_i per sampled index
    - proof:     μ = Σ ν_i·m_i  (mod q),  σ = Σ ν_i·σ_i
    - verify:    ê(σ, P) = ê(Σ ν_i·H(name‖i) + μ·u, pk)

    Verification is one two-term pairing equation *per user* (2
    Miller-loop terms, 1 final exponentiation, through
    {!Sc_bls.Bls.holds}), hence grows linearly with the number of
    audited users. *)

open Sc_bignum
open Sc_ec

type keys = { x : Nat.t; pk : Curve.point; u : Curve.point }

type tagged_file = {
  name : string;
  blocks : Nat.t array; (* block representatives in Z_q *)
  tags : Curve.point array;
}

type challenge = (int * Nat.t) list
type proof = { mu : Nat.t; sigma : Curve.point }

val generate_keys : Sc_pairing.Params.t -> bytes_source:(int -> string) -> keys

val block_to_scalar : Sc_pairing.Params.t -> string -> Nat.t
(** Canonical embedding of raw block bytes into Z_q. *)

val tag_file :
  Sc_pairing.Params.t -> keys -> name:string -> string list -> tagged_file

val make_challenge :
  Sc_pairing.Params.t ->
  bytes_source:(int -> string) ->
  n_blocks:int ->
  samples:int ->
  challenge

val prove : Sc_pairing.Params.t -> tagged_file -> challenge -> proof

val verify :
  Sc_pairing.Params.t -> keys -> name:string -> challenge -> proof -> bool
