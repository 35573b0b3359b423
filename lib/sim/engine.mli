(** The end-to-end cloud simulation: n servers under a mobile
    Byzantine adversary, users storing data and outsourcing
    computation, the DA auditing every execution — all driven through
    a discrete-event clock, a network cost model and a
    fault-injectable {!Seccloud.Transport} channel per (user, server)
    pair.

    Each epoch the adversary corrupts a fresh subset of at most b
    servers (§III-B); every audit outcome is compared against ground
    truth, giving detection statistics and the audit-cost history that
    feeds Theorem 3's "history learning".  With lossy [faults] the
    campaign still terminates: rounds that exhaust their retries are
    blamed as typed channel failures rather than raising. *)

type config = {
  seed : string;
  params : Sc_pairing.Params.t lazy_t;
  n_servers : int;
  byzantine_bound : int;
  n_users : int;
  blocks_per_file : int;
  ints_per_block : int;
  tasks_per_service : int;
  samples_per_audit : int;
  epochs : int;
  network : Network.config;
  cheat_damage : float; (* damage of an undetected cheating epoch *)
  faults : Seccloud.Transport.faults; (* injected channel faults *)
  retry : Seccloud.Transport.Retry.policy;
}

val default_config : config
(** Toy parameters, 4 servers / b = 1, 2 users, 5 epochs, a perfect
    channel with the default retry policy. *)

type audit_outcome = {
  epoch : int;
  server : string;
  user : string;
  server_cheats : bool; (* ground truth *)
  storage_ok : bool;
  computation_ok : bool;
  channel_timeout : bool; (* some round exhausted retries silently *)
  channel_tampered : bool; (* some round kept arriving mangled *)
  samples : int;
  bytes : int; (* wire bytes for the whole campaign, retries included *)
  recompute_seconds : float;
}

type stats = {
  outcomes : audit_outcome list;
  sim_time : float; (* virtual seconds on the event clock *)
  total_bytes : int;
  detected : int; (* cheating epochs caught *)
  undetected : int; (* cheating epochs missed *)
  false_alarms : int;
      (* honest servers flagged by crypto alone (no channel fault
         involved) — must be 0 *)
  honest_passed : int;
  channel_timeouts : int; (* outcomes blamed on an unresponsive channel *)
  channel_tampering : int; (* outcomes blamed on in-flight corruption *)
  records : Sc_audit.Optimal.audit_record list;
}

val run : config -> stats

val detection_rate : stats -> float
(** detected / (detected + undetected); 1.0 when nothing cheated. *)

val learned_costs : ?a3:float -> stats -> Sc_audit.Optimal.costs
(** Theorem 3 history learning over the run's audit records. *)

(** {2 Service-layer soak campaign}

    Mixed traffic through the sharded multi-tenant
    {!Sc_service.Service} front end: every identity is admitted (with
    a strided stream of light lookups riding along), a heavy-tenant
    subset stores files and is audited — storage and computation,
    over the fault-injectable wire — for a configured number of
    rounds, and a chosen few heavy tenants have their stored data
    silently corrupted first, giving the campaign ground truth to
    classify every alarm against.  Backpressure is part of the
    workload: the identity stream deliberately outruns the queues, so
    submission interleaves with drains on typed [Overloaded]
    rejections.

    All results are deterministic in the seed and independent of
    [SECCLOUD_DOMAINS] — {!Sc_service.Service.digest} is the witness
    the CLI's [--identity-check] compares across domain counts. *)

type service_config = {
  sv_seed : string;
  sv_params : Sc_pairing.Params.t lazy_t;
  sv_service : Sc_service.Service.config;
  sv_identities : int;  (** distinct tenants admitted *)
  sv_lookup_stride : int;
      (** every k-th identity also sends a lookup; 0 disables *)
  sv_heavy : int;  (** tenants doing full store/audit/compute crypto *)
  sv_corrupt : int;  (** heavy tenants whose stored file rots *)
  sv_blocks_per_file : int;
  sv_ints_per_block : int;
  sv_tasks : int;  (** sub-tasks per outsourced computation *)
  sv_samples : int;
      (** audit sample size; >= blocks_per_file means full coverage,
          so a corrupted block can never be missed by sampling *)
  sv_audit_rounds : int;
  sv_dynamic_ops : int;
      (** dynamic mutation ops per heavy tenant (update / append /
          tombstone bursts against a {!Sc_storage.Dynamic} view of the
          stored file, one signed root transition per burst, audited
          with rank proofs); 0 disables the mutation wave *)
}

val default_service_config : service_config
(** Toy params: 20k identities, 64 heavy tenants (8 corrupted),
    2 audit rounds, 6 dynamic ops per heavy tenant, the default
    service config. *)

type service_protocol = {
  sp_name : string;  (** span name, e.g. ["service.audit"] *)
  sp_count : int;
  sp_p50_us : float;
  sp_p99_us : float;
}

type service_stats = {
  sv_ledger : Sc_service.Service.ledger;
  sv_digest : string;  (** the cross-domain value-identity witness *)
  sv_shard_tenants : int array;  (** admitted tenants per shard *)
  sv_false_alarms : int;
      (** honest-tenant audits that failed with a clean channel and
          no injected in-flight tampering — must be 0 *)
  sv_detected : int;  (** corrupted-tenant audits that raised *)
  sv_missed : int;
      (** corrupted-tenant storage audits that passed cleanly *)
  sv_channel_suspected : int;
      (** failures coinciding with injected in-flight tampering *)
  sv_elapsed_s : float;
  sv_audit_elapsed_s : float;  (** the audit-rounds phase alone *)
  sv_audits_per_sec : float;
      (** (storage audits + computation audits) / audit phase *)
  sv_requests_per_sec : float;  (** processed / elapsed *)
  sv_protocols : service_protocol list;
      (** per-protocol latency from the [span.service.*] histograms *)
}

val run_service : service_config -> service_stats

val service_stats_json :
  ?slos:Sc_telemetry.Slo.check list ->
  service_config ->
  service_stats ->
  string
(** The BENCH_service.json document: every {!service_metrics} entry
    plus the digest, and the SLO verdicts when given. *)

val check_service_slos :
  service_config ->
  service_stats ->
  string ->
  (Sc_telemetry.Slo.check list, string) result
(** Evaluate a [bench/service.slo]-grammar document against
    {!service_metrics}. *)
