(** The probabilistic-sampling analysis of §VII-A (equations 10–15)
    and the Figure 4 numerics.

    FCS: the server successfully guesses sampled results;
    PCS: the server successfully passes wrong-position data.

      Pr[FCS] = (CSC + (1 − CSC)/|R|)^t            (eq. 10)
      Pr[PCS] = (SSC + (1 − SSC)·Pr[SigForge])^t   (eq. 12)
      Pr[cheat] = Pr[FCS] + Pr[PCS]                (eq. 14, independence)

    All probabilities are clamped to [0, 1]. *)

val pr_fcs : csc:float -> range:float -> t:int -> float
(** [range] may be [infinity] (a guess never lands). *)

val pr_pcs : ssc:float -> sig_forge:float -> t:int -> float

val pr_cheat :
  csc:float -> ssc:float -> range:float -> sig_forge:float -> t:int -> float

val required_samples :
  ?t_max:int ->
  csc:float ->
  ssc:float ->
  range:float ->
  sig_forge:float ->
  eps:float ->
  unit ->
  int option
(** Smallest t with Pr[cheat] ≤ ε, or [None] if none ≤ [t_max]
    (default 100_000) exists — e.g. when CSC = SSC = 1 the server is
    honest-equivalent and undetectable. *)

type grid_point = { ssc : float; csc : float; t : int option }

val figure4_grid :
  ?sig_forge:float ->
  ?steps:int ->
  eps:float ->
  range:float ->
  unit ->
  grid_point list
(** The Figure 4 surface: required t over an SSC × CSC grid in
    [0, 0.9] (default 10 steps), ε and |R| as given, Pr[SigForge]
    defaulting to 1e−9. *)
