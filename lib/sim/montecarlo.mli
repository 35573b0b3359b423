(** Monte-Carlo validation of the §VII-A sampling analysis.

    These experiments simulate the *abstract* cheating game (no
    cryptography, millions of trials are cheap) so the empirical
    survival rates can be compared against the closed forms of
    eqs. (10)–(14).  The full-crypto pipeline is exercised separately
    by {!Engine}. *)

type result = {
  trials : int;
  survived : int; (* cheater escaped all t samples *)
  rate : float;
  predicted : float; (* the closed-form value *)
}

val combined_experiment :
  drbg:Sc_hash.Drbg.t ->
  csc:float ->
  ssc:float ->
  range:float ->
  sig_forge:float ->
  t:int ->
  trials:int ->
  result
(** The adversary plays whichever attack (FCS or PCS) it drew; the
    prediction is eq. (14)'s sum. *)
