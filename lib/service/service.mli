(** The sharded multi-tenant service layer: a long-running front end
    over the SecCloud stack.

    Identities hash onto a fixed shard set ({!Router.shard_of});
    every shard owns its slice of state — registered tenants, their
    stored files and audit warrants, a cloud server, a wire endpoint
    behind a fault-injectable transport, and a designated-agency
    endpoint — so shards never share mutable protocol state and can
    be drained concurrently on the {!Sc_parallel} pool.

    Admission is explicit: {!submit} places a request on the owning
    shard's bounded queue and returns a typed {!error} ([Overloaded])
    the moment the queue is at capacity — backpressure is never a
    block and never a silent drop.  {!drain} then processes queued
    requests in quantum rounds: each round runs one pool task per
    non-empty shard, each task pops at most [drain_quantum] requests,
    and a pool barrier separates rounds, so no shard can starve the
    others (fair draining) and queue-depth accounting happens on the
    submitting domain only.

    Determinism: shard placement is a pure hash; per-shard FIFO order
    is submission order; every random draw (challenge sampling,
    transport faults, compute workloads) comes from per-shard seeded
    DRBGs; and each shard folds a summary of every response into a
    rolling SHA-256.  {!digest} combines the per-shard digests in
    shard order, so two runs of the same workload produce the same
    digest at {e any} [SECCLOUD_DOMAINS] — the value-identity gate
    the property suite and the CLI [--identity-check] enforce.
    (Latency histograms are observational and excluded.)

    Telemetry: counters [service.submitted] / [service.accepted] /
    [service.rejected] / [service.processed], gauges
    [service.queue.depth] (total queued, updated on the submitting
    domain at submit time and after each drain round) and
    [service.queue.peak], plus a [service.<op>] span per processed
    request carrying the tenant and shard and adopting the trace
    context captured at submit time, so a request's audit spans join
    the submitter's trace across the queue boundary. *)

type config = {
  shards : int;  (** fixed shard count, >= 1 *)
  queue_capacity : int;  (** per-shard admission cap, >= 1 *)
  drain_quantum : int;
      (** max requests one shard processes per drain round, >= 1 *)
  faults : Seccloud.Transport.faults;
      (** fault model for every shard's wire transport *)
  retry : Seccloud.Transport.Retry.policy;
}

val default_config : config
(** 16 shards, capacity 1024, quantum 64, perfect channel, default
    retry policy. *)

type request =
  | Admit  (** register the tenant (idempotent) *)
  | Lookup  (** light read: is the tenant known, how many files *)
  | Store of { file : string; payloads : string list }
      (** Protocol II over the shard's wire: sign every block, upload,
          retain the warrant for later audits *)
  | Corrupt of { file : string }
      (** fault injection: silently re-store the tenant's upload with
          one flipped payload bit (models storage rot / a cheating
          server) — subsequent audits of this file must fail *)
  | Audit_storage of { file : string; samples : int }
      (** Protocol II audit over the wire, sampled positions *)
  | Compute of { file : string; n_tasks : int; samples : int }
      (** Protocol III + IV over the wire: random service, commitment,
          Algorithm-1 audit *)
  | Mutate of { file : string; ops : int }
      (** authenticated dynamics: a DRBG-driven burst of [ops]
          update / append / tombstone operations against a
          {!Sc_storage.Dynamic} view of the stored file (built lazily
          from the retained upload), every op proof-checked in
          O(log n), the burst one signed root transition, followed by
          a rank-proof audit of the result *)

type denial = Unknown_tenant | Unknown_file | Empty_upload

type response =
  | Admitted of { shard : int }
  | Info of { known : bool; files : int }
  | Stored of bool  (** the server's accept flag *)
  | Store_failed of Seccloud.Transport.error
  | Audited of {
      report : Seccloud.Agency.storage_report;
      tampered_in_flight : bool;
          (** the shard transport injected at least one bit flip
              during this round — fault-layer ground truth for blame
              classification *)
    }
  | Computed of {
      verdict : Sc_audit.Protocol.verdict;
      tampered_in_flight : bool;
    }
  | Compute_failed of Seccloud.Transport.error
      (** the compute request itself exhausted its retries *)
  | Corrupted
  | Mutated of {
      applied : int;  (** ops that passed their pre-state proof *)
      blocks : int;  (** block count after the burst *)
      intact : bool;  (** post-burst rank-proof audit verdict *)
      diverged : bool;
          (** some op caught the server's root off the client's *)
    }
  | Denied of denial

type error = Overloaded of { shard : int; depth : int }
    (** the owning shard's queue was at capacity; [depth] is its
        length at rejection time *)

val pp_error : Format.formatter -> error -> unit

(** Aggregated per-service accounting, summed over shards.  The
    backpressure tests check [rejected] against the
    [service.rejected] counter and [queue_peak] against the
    configured capacity. *)
type ledger = {
  submitted : int;
  accepted : int;
  rejected : int;
  processed : int;
  admitted : int;  (** distinct tenants admitted *)
  lookups : int;
  stores : int;
  store_failures : int;
  corruptions : int;
  audits : int;
  audit_alarms : int;  (** audits not intact with a clean channel *)
  computes : int;
  compute_alarms : int;  (** invalid verdicts with a clean channel *)
  mutations : int;  (** Mutate bursts processed *)
  mutation_ops : int;  (** individual dynamic ops applied *)
  mutation_alarms : int;
      (** bursts whose audit failed or that caught a diverging server *)
  channel_blames : int;  (** rounds blamed on the transport *)
  denials : int;
  queue_peak : int;  (** max per-shard queue length ever observed *)
}

type t

val create :
  ?config:config ->
  ?params:Sc_pairing.Params.t lazy_t ->
  seed:string ->
  unit ->
  t
(** Builds a dedicated {!Seccloud.System.t} (servers [svc-0] ..
    [svc-(shards-1)], agency [da]) and one shard per configured
    slot.  All randomness derives from [seed].
    @raise Invalid_argument on a non-positive [shards],
    [queue_capacity] or [drain_quantum]. *)

val submit : t -> tenant:string -> request -> (unit, error) result
(** Enqueue on the owning shard; captures the current trace context
    so the eventual [service.<op>] span joins the submitter's trace.
    Must be called from the submitting (main) domain, never
    concurrently with {!drain}. *)

val drain : t -> (string * request * response) list
(** Process every queued request to completion and return
    [(tenant, request, response)] triples in deterministic order:
    shard-major, per-shard FIFO.  Runs quantum rounds on the
    {!Sc_parallel} pool as described above. *)

val pending : t -> int
(** Total requests currently queued across shards. *)

val queue_depth : t -> int -> int
(** Current queue length of one shard.
    @raise Invalid_argument on an out-of-range shard index. *)

val set_faults : t -> Seccloud.Transport.faults -> unit
(** Swap every shard's transport for a fresh one with the given fault
    model (clock carried over, fresh generation-seeded fault DRBG).
    Call only while no drain is running. *)

val digest : t -> string
(** Hex SHA-256 combining the shards' rolling response digests in
    shard order — the cross-domain value-identity witness. *)

val ledger : t -> ledger

val tenant_counts : t -> int array
(** Admitted tenants per shard (the balance report). *)
