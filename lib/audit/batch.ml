module Ibs = Sc_ibc.Ibs
module Agg = Sc_ibc.Agg
module Executor = Sc_compute.Executor
module Telemetry = Sc_telemetry.Telemetry

let c_batch_rounds = Telemetry.counter "audit.batch.rounds"
let c_batch_jobs = Telemetry.counter "audit.batch.jobs"

type job = {
  owner : string;
  commitment : Protocol.commitment;
  challenge : Protocol.challenge;
  responses : Executor.response list;
}

let verify_jobs ?memo pub ~verifier_key ~role jobs =
  Telemetry.incr c_batch_rounds;
  Telemetry.add c_batch_jobs (List.length jobs);
  Telemetry.with_span ~name:"audit.batch_verify"
    ~attrs:[ "jobs", string_of_int (List.length jobs) ]
  @@ fun () ->
  (* Root commitment signatures across all jobs: one batch over those
     the verifier's memo does not hold, blame only if it rejects. *)
  let root_failures =
    List.filter_map
      (fun ok ->
        if ok = Some false then Some Protocol.Root_signature_wrong else None)
      (Ibs.verify_each ?memo pub
         (List.map
            (fun job ->
              Some
                ( job.commitment.Protocol.cs_id,
                  "root:" ^ job.commitment.Protocol.root,
                  job.commitment.Protocol.root_signature ))
            jobs))
  in
  (* Per-job recompute/root/position checks are independent: fan the
     jobs out across the domain pool.  Signature material is only
     *collected* here, for one {!Agg.verify_each} over every sampled
     signature of every job; failure and entry order match the
     sequential run exactly. *)
  let per_job =
    Sc_parallel.parallel_map
      (fun job ->
        let check =
          Protocol.sample_checks ~role ~owner:job.owner
            ~commitment:job.commitment job.responses
        in
        List.map
          (fun i -> i, check i)
          job.challenge.Protocol.sample_indices)
      jobs
  in
  let flat = List.concat per_job in
  let check_failures = List.concat_map (fun (_, (fs, _)) -> fs) flat in
  (* Signature failures come last, in reverse sample order. *)
  let rev_flat = List.rev flat in
  let signature_failures =
    List.concat
      (List.map2
         (fun (i, _) ok ->
           if ok = Some false then [ Protocol.Signature_wrong i ] else [])
         rev_flat
         (Agg.verify_each pub ~verifier_key
            (List.map (fun (_, (_, entry)) -> entry) rev_flat)))
  in
  let failures = root_failures @ check_failures @ signature_failures in
  { Protocol.valid = failures = []; failures }

(* Fold channel-level outcomes into a batch verdict: servers that
   never produced a usable audit round are blamed exactly like failed
   verifications, so the caller's decision logic does not change. *)
let flag_unresponsive verdict ~timed_out ~tampered =
  let extra =
    List.map (fun id -> Protocol.Transport_timeout id) timed_out
    @ List.map (fun id -> Protocol.Transport_tampered id) tampered
  in
  if extra = [] then verdict
  else
    {
      Protocol.valid = false;
      failures = extra @ verdict.Protocol.failures;
    }
