(** Batched audit verification (§VI).

    Functionally equivalent to {!Protocol.verify} but all sampled
    signature checks — across sub-tasks, and across *executions from
    different users* — collapse into one aggregate designated-verifier
    equation, so the pairing count is constant in the batch size. *)

type job = {
  owner : string; (* whose data the execution reads *)
  commitment : Protocol.commitment;
  challenge : Protocol.challenge;
  responses : Sc_compute.Executor.response list;
}

val verify_jobs :
  ?memo:Sc_ibc.Ibs.Memo.t ->
  Sc_ibc.Setup.public ->
  verifier_key:Sc_ibc.Setup.identity_key ->
  role:[ `Cs | `Da ] ->
  job list ->
  Protocol.verdict
(** One aggregated signature verification for the whole batch; Merkle
    and recomputation checks run per sample as in Algorithm 1.  The
    root signatures go through one {!Sc_ibc.Ibs.verify_each}, which
    skips those the verifier's [memo] holds; the sampled signatures
    through one {!Sc_ibc.Agg.verify_each}.  When a batch rejects, the
    failure list still names the bad jobs and indices, in the same
    order with or without a memo. *)

val flag_unresponsive :
  Protocol.verdict ->
  timed_out:string list ->
  tampered:string list ->
  Protocol.verdict
(** Merge channel outcomes into a batch verdict: each listed server id
    contributes a typed [Transport_timeout] / [Transport_tampered]
    failure and invalidates the verdict, so unresponsive servers are
    flagged exactly like failed verifications. *)

val pairings_used :
  Sc_ibc.Setup.public ->
  verifier_key:Sc_ibc.Setup.identity_key ->
  role:[ `Cs | `Da ] ->
  job list ->
  Protocol.verdict * int
(** Runs {!verify_jobs} and reports how many pairings it evaluated —
    the quantity Table II and Figure 5 compare. *)
