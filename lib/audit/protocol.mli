(** The Probabilistic Sampling Cloud Computation Auditing Protocol —
    Algorithm 1 and the surrounding challenge/response flow (§V-D).

    The DA (or the user) samples t sub-task indices; for each response
    it checks, in order:
    + the data signature (right data, right position — eq. 7),
    + the recomputation y_i = f_i(x_{p_i}),
    + the Merkle root reconstructed from the sibling path,
    and finally the server's signature on the committed root. *)

type commitment = {
  root : string;
  root_signature : Sc_ibc.Ibs.t;
  cs_id : string; (* who signed the root *)
  n_tasks : int;
}

val commitment_of_execution : Sc_compute.Executor.execution -> commitment

type challenge = {
  sample_indices : int list;
  warrant : Sc_ibc.Warrant.signed;
}

type failure =
  | Warrant_invalid
  | Missing_response of int
  | Signature_wrong of int (* IsSignatureWrong(τ) *)
  | Computing_wrong of int (* IsComputingWrong(τ) *)
  | Root_wrong of int (* IsRootWrong(R(τ)) *)
  | Root_signature_wrong
  | Transport_timeout of string
      (* the named peer exhausted its retry budget without answering *)
  | Transport_tampered of string
      (* retries exhausted and the channel to the peer kept mangling
         messages — detectable in-flight corruption *)

type verdict = { valid : bool; failures : failure list }

val pp_failure : Format.formatter -> failure -> unit

val is_transport_failure : failure -> bool
(** True for the channel-level blames ([Transport_timeout],
    [Transport_tampered]); false for every cryptographic check. *)

val make_challenge :
  drbg:Sc_hash.Drbg.t ->
  n_tasks:int ->
  samples:int ->
  warrant:Sc_ibc.Warrant.signed ->
  challenge
(** Samples distinct indices uniformly.  [samples] is clamped to
    [n_tasks]. *)

val respond :
  ?memo:Sc_ibc.Ibs.Memo.t ->
  Sc_ibc.Setup.public ->
  now:float ->
  Sc_compute.Executor.execution ->
  challenge ->
  Sc_compute.Executor.response list option
(** Server side: checks the warrant (expiry included) and returns the
    sampled responses; [None] when the warrant is rejected.  The
    warrant's signature is looked up in the server's [memo] first (see
    {!Sc_ibc.Warrant.verify}).  Whose warrant it is, and for whom, is
    the caller's check ([Cloud.respond_to_audit]). *)

type job = {
  owner : string;  (** whose data the execution reads *)
  commitment : commitment;
  challenge : challenge;
  responses : Sc_compute.Executor.response list;
}

val verify :
  ?memo:Sc_ibc.Ibs.Memo.t ->
  ?suspects:Sc_ibc.Digest_set.t ->
  Sc_ibc.Setup.public ->
  verifier_key:Sc_ibc.Setup.identity_key ->
  role:[ `Cs | `Da ] ->
  job list ->
  verdict
(** Algorithm 1 over k jobs, with the §VI batch verification: one
    audit is the batch of one job.  [role] selects which designated
    signature component the verifier can open (the DA uses [`Da]).
    All sampled checks are run — the verdict accumulates every failure
    rather than stopping at the first, which the simulator uses for
    diagnosis.  The failures come job by job: the job's
    [Root_signature_wrong], then, sample by sample in the order of its
    challenge, the sample's other failures followed by its
    [Signature_wrong]; the verdict of k jobs is the concatenation of
    their one-job verdicts.

    The root signatures go through one {!Sc_ibc.Ibs.verify_each}: a
    lone fresh one costs one {!Sc_ibc.Ibs.verify}, none when the
    verifier's [memo] holds it.  The recomputation and path checks of
    every sample of every job fan out across the domain pool together.
    Every sampled designated signature goes through one
    {!Sc_ibc.Agg.verify_each}, in job-then-sample order: one pairing
    when all are good, 1 + t when the batch of t rejects, and one per
    entry, with no batch, of a server in the verifier's [suspects]
    (its last audit found every entry bad).  A job's entries count as
    entries of its [commitment.cs_id] only when its root signature
    under that id verifies; otherwise they name no server, so they
    neither consult nor move the set.

    The empty list gives a valid verdict and counts nothing.  Otherwise
    counts one [audit.rounds], and each answered index on
    [audit.samples_checked], under span [audit.verify] (attributes
    [jobs] and [samples]). *)
