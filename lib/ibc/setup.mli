(** System initialization (the SIO of the paper, §V-A).

    The SIO holds the master secret s, publishes P_pub = s·P, and
    extracts per-identity secret keys sk_ID = s·H1(ID) — eq. (4). *)

open Sc_bignum
open Sc_ec

type sio
(** The System Initialization Operator: pairing parameters plus the
    master secret. *)

type public = { prm : Sc_pairing.Params.t; p_pub : Curve.point }
(** The public system parameters every party holds. *)

type identity_key = {
  id : string;
  q_id : Curve.point; (* H1(ID) *)
  sk : Curve.point; (* s·H1(ID) *)
}

val create : Sc_pairing.Params.t -> bytes_source:(int -> string) -> sio
val public : sio -> public
val master_secret : sio -> Nat.t

val extract : sio -> string -> identity_key
(** Registers an identity and derives its secret key from
    {!q_of_id}'s point, so a registered signer's Q_ID is already in
    the memo when a verifier first asks for it. *)

val q_of_id : public -> string -> Curve.point
(** The public key H1(ID) of any identity — no secret needed.  The
    hash-to-point (a square root and a cofactor multiplication) runs
    once per identity and parameter set; later calls read the memo
    ({!Sc_pairing.Params.id_point}). *)

val valid_key : public -> identity_key -> bool
(** Checks ê(sk_ID, P) = ê(Q_ID, P_pub), letting a user validate the
    key received from the SIO. *)
