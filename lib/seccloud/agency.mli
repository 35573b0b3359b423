(** The Designated Agency: audits storage and computation on behalf
    of users (§V-D, §VI), choosing sample sizes with the §VII
    analysis. *)

type t

val create : System.t -> t
(** A DA with its own challenge DRBG, its own memo of accepted
    commitment root signatures ({!Sc_ibc.Ibs.Memo}, counted as
    [memo="root"]): a commitment it audits again costs no root
    check, and its own set of suspect servers
    ({!Sc_ibc.Digest_set}): a server whose audit found every checked
    entry bad has its entries checked one by one, with no batch,
    until an audit finds one of them good.  Both belong to this one party; callers that want the
    protocol's cost counts (Table II) call {!Sc_audit.Protocol} and
    {!Sc_audit.Batch} without them. *)

type storage_report = {
  sampled : int;
  valid_blocks : int;
  invalid_indices : int list;
  intact : bool;
  channel : Transport.error option;
      (** [Some _] when the verdict is a channel blame (the server
          never usably answered over the wire) rather than the result
          of block verification. *)
}

val check_blocks :
  ?suspects:Sc_ibc.Digest_set.t ->
  System.t ->
  server:string ->
  owner:string ->
  (int * Sc_storage.Server.read_result option) list ->
  storage_report
(** Designated verification (eq. 7) of sampled reads from [server]: a
    block is valid when the server returned one for its index, it
    claims that index, and its DA signature verifies.  Every other
    index, a missing read included, is reported invalid, in the given
    order.  The signatures of the reads that claim their index are
    checked by {!Sc_ibc.Agg.verify_each}: one pairing when all t are
    good, 1 + t when the batch rejects, and t, with no batch, when
    [server] is in [suspects] (its last audit found every entry
    bad).  [server] is the party the caller asked for the reads. *)

val read_samples :
  t ->
  Cloud.t ->
  file:string ->
  samples:int ->
  (int * Sc_storage.Server.read_result option) list option
(** [samples] block positions drawn from the agency's DRBG, each with
    the server's read; [None] when the server has no such file. *)

val audit_storage :
  t -> Cloud.t -> owner:string -> file:string -> samples:int -> storage_report
(** Protocol II auditing: {!check_blocks} over {!read_samples}, with
    the agency's suspect set and the cloud's id as the server. *)

val choose_sample_size :
  ?eps:float -> ?range:float -> csc:float -> ssc:float -> unit -> int
(** Required t for the target ε (default 1e−4) against assumed
    confidences — the Figure 4 calculation. *)

val audit_computation :
  t ->
  Cloud.t ->
  owner:string ->
  execution:Sc_compute.Executor.execution ->
  warrant:Sc_ibc.Warrant.signed ->
  now:float ->
  samples:int ->
  Sc_audit.Protocol.verdict
(** Protocol III auditing: challenge, collect responses, run
    Algorithm 1; {!audit_computation_batched} of one job.
    [Warrant_invalid] when the server refuses the challenge
    ({!Cloud.respond_to_audit}): the warrant is not from the owner
    [execution] was run for, not delegated to this system's DA,
    expired, or forged. *)

val audit_computation_batched :
  t ->
  (Cloud.t * string * Sc_compute.Executor.execution * Sc_ibc.Warrant.signed) list ->
  now:float ->
  samples:int ->
  Sc_audit.Protocol.verdict
(** Concurrent multi-user auditing with batched verification (§VI):
    one {!Sc_audit.Protocol.verify} over every job, its sampled
    signatures in one aggregated equation.  A single [Warrant_invalid]
    when any server refuses its challenge. *)
