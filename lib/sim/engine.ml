module Task = Sc_compute.Task
module Optimal = Sc_audit.Optimal
module Protocol = Sc_audit.Protocol
module Telemetry = Sc_telemetry.Telemetry
module Transport = Seccloud.Transport
module Endpoint = Seccloud.Endpoint

let c_epochs = Telemetry.counter "sim.epochs"
let c_audits = Telemetry.counter "sim.audits"

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
  cheat_damage : float;
  faults : Transport.faults;
  retry : Transport.Retry.policy;
}

let default_config =
  {
    seed = "sim-default";
    params = Sc_pairing.Params.toy;
    n_servers = 4;
    byzantine_bound = 1;
    n_users = 2;
    blocks_per_file = 32;
    ints_per_block = 8;
    tasks_per_service = 16;
    samples_per_audit = 8;
    epochs = 5;
    network = Network.default_config;
    cheat_damage = 100.0;
    faults = Transport.perfect;
    retry = Transport.Retry.default;
  }

type audit_outcome = {
  epoch : int;
  server : string;
  user : string;
  server_cheats : bool;
  storage_ok : bool;
  computation_ok : bool;
  channel_timeout : bool;
  channel_tampered : bool;
  samples : int;
  bytes : int;
  recompute_seconds : float;
}

type stats = {
  outcomes : audit_outcome list;
  sim_time : float;
  total_bytes : int;
  detected : int;
  undetected : int;
  false_alarms : int;
  honest_passed : int;
  channel_timeouts : int;
  channel_tampering : int;
  records : Optimal.audit_record list;
}

(* Every exchange travels as encoded {!Seccloud.Wire} bytes through a
   per-pair {!Seccloud.Transport}, whose charge callback feeds
   {!Network.record_transfer}: the C_trans fed to Theorem 3's history
   learning is the exact number of bytes the channel delivered,
   retries and duplicates included. *)

(* The whole campaign runs under one [sim.campaign] root span: every
   epoch, audit and transport RPC (including server-side handler
   spans, via the envelope context) shares its trace id, and the
   campaign verdict is stamped on it as attributes so an SLO file can
   assert e.g. [attr(sim.campaign.false_alarms) = 0] straight from
   the trace. *)
let run config =
  Telemetry.with_span ~name:"sim.campaign"
    ~attrs:
      [ "seed", config.seed; "epochs", string_of_int config.epochs;
        "servers", string_of_int config.n_servers;
        "users", string_of_int config.n_users ]
  @@ fun () ->
  let system =
    Seccloud.System.create ~params:config.params ~seed:config.seed
      ~cs_ids:(List.init config.n_servers (Printf.sprintf "cs-%d"))
      ~da_id:"da" ()
  in
  let da = Endpoint.Da.create system in
  let drbg = Sc_hash.Drbg.create ~seed:("sim:" ^ config.seed) in
  let adversary =
    Adversary.create ~drbg ~bound:config.byzantine_bound
      ~server_ids:(Seccloud.System.cs_ids system)
      ()
  in
  let net = Network.create config.network in
  let queue = Event_queue.create () in
  let users =
    List.init config.n_users (fun i ->
        Seccloud.User.create system ~id:(Printf.sprintf "user-%d" i))
  in
  let payloads_for user_id =
    List.init config.blocks_per_file (fun i ->
        Sc_storage.Block.encode_ints
          (List.init config.ints_per_block (fun j ->
               Sc_hash.Drbg.uniform_int drbg 100 + i + j))
        |> fun s -> ignore user_id; s)
  in
  let outcomes = ref [] in
  let records = ref [] in
  let finish_audit ~epoch_idx ~cloud_id ~user_id ~server_cheats ~storage_ok
      ~computation_ok ~channel_timeout ~channel_tampered ~bytes
      ~recompute_seconds =
    let outcome =
      {
        epoch = epoch_idx;
        server = cloud_id;
        user = user_id;
        server_cheats;
        storage_ok;
        computation_ok;
        channel_timeout;
        channel_tampered;
        samples = config.samples_per_audit;
        bytes;
        recompute_seconds;
      }
    in
    outcomes := outcome :: !outcomes;
    let caught = not (storage_ok && computation_ok) in
    records :=
      {
        Optimal.samples = config.samples_per_audit;
        bytes_transferred = float_of_int bytes;
        recompute_seconds;
        undetected_cheat_damage =
          (if server_cheats && not caught then Some config.cheat_damage
           else None);
      }
      :: !records
  in
  let run_epoch epoch_idx =
    Telemetry.incr c_epochs;
    Telemetry.with_span ~name:"sim.epoch"
      ~attrs:[ "epoch", string_of_int epoch_idx ]
    @@ fun () ->
    Adversary.new_epoch adversary;
    (* Rebuild the fleet with this epoch's corruption assignment; each
       cloud sits behind a byte-in/byte-out server endpoint. *)
    let clouds =
      List.map
        (fun id ->
          match Adversary.corruption_of adversary id with
          | None -> Seccloud.Cloud.create system ~id ()
          | Some c ->
            Seccloud.Cloud.create system ~id ~storage:c.Adversary.storage
              ~compute:c.Adversary.compute ())
        (Seccloud.System.cs_ids system)
    in
    let endpoints =
      List.map (fun c -> c, Endpoint.Server.create system c) clouds
      |> Array.of_list
    in
    List.iteri
      (fun ui user ->
        let cloud, server = endpoints.(ui mod Array.length endpoints) in
        let cloud_id = Seccloud.Cloud.id cloud in
        let user_id = Seccloud.User.id user in
        let file = Printf.sprintf "file-%s-e%d" user_id epoch_idx in
        let payloads = payloads_for user_id in
        let server_cheats =
          Adversary.corruption_of adversary cloud_id <> None
        in
        (* One fault-injected channel per (user, server) pair per
           epoch, seeded so a lossy campaign replays exactly. *)
        let transport =
          Transport.create ~faults:config.faults ~policy:config.retry
            ~drbg:
              (Sc_hash.Drbg.create
                 ~seed:
                   (Sc_hash.Encode.canonical
                      [
                        "sim-transport";
                        config.seed;
                        string_of_int epoch_idx;
                        user_id;
                        cloud_id;
                      ]))
            ~charge:(fun ~bytes -> Network.record_transfer net ~bytes)
            ~now:(Event_queue.now queue) ~peer:cloud_id
            ~public:(Seccloud.System.public system)
            ~handler:(Endpoint.Server.handle server) ()
        in
        let bytes0 = Network.total_bytes net in
        (* Injector ground truth for blame accounting: tampering that
           survives decoding is caught by the signatures but cannot be
           attributed to the channel by the protocol itself, so the
           statistics classify such rounds with the same ground-truth
           access used for [server_cheats]. *)
        let tamper0 = Telemetry.counter_value "transport.fault.tamper" in
        (* Upload (Protocol II) over the wire. *)
        let uploaded =
          Seccloud.User.store_over user ~transport ~cs_id:cloud_id ~file
            payloads
        in
        (* Computation request (Protocol III): the commitment comes
           back over the same channel. *)
        let service =
          Task.random_service ~drbg ~n_positions:config.blocks_per_file
            ~n_tasks:config.tasks_per_service
        in
        let commitment =
          match uploaded with
          | Error e -> Error (`Channel e)
          | Ok false ->
            (* Servers never reject a correctly signed upload, so a
               rejection means the channel flipped a bit that survived
               decoding: blame the channel, not the server. *)
            Error (`Channel Transport.Tampered)
          | Ok true -> (
            match
              Transport.call transport ~expect:"compute_commitment"
                (Seccloud.Wire.Compute_request
                   { owner = user_id; file; service })
            with
            | Ok (Seccloud.Wire.Compute_commitment { commitment; _ }) ->
              Ok commitment
            | Ok _ -> Error `Refused
            | Error e -> Error (`Channel e))
        in
        let setup_tampered =
          Telemetry.counter_value "transport.fault.tamper" > tamper0
        in
        let setup_delay = Transport.now transport -. Event_queue.now queue in
        Event_queue.schedule queue ~delay:setup_delay (fun () ->
            Telemetry.incr c_audits;
            Telemetry.with_span ~name:"sim.audit"
              ~attrs:
                [ "epoch", string_of_int epoch_idx; "server", cloud_id ]
            @@ fun () ->
            if Event_queue.now queue > Transport.now transport then
              Transport.set_now transport (Event_queue.now queue);
            let indices =
              Array.to_list
                (Sc_hash.Drbg.sample_prefix drbg ~n:config.blocks_per_file
                   ~k:config.samples_per_audit)
            in
            let t0 = Sys.time () in
            match commitment with
            | Error (`Channel e) ->
              (* The channel swallowed the setup phase: there is
                 nothing to audit, the server is blamed as
                 unresponsive (or tampering) without a crypto
                 verdict. *)
              let recompute_seconds = Sys.time () -. t0 in
              finish_audit ~epoch_idx ~cloud_id ~user_id ~server_cheats
                ~storage_ok:false ~computation_ok:false
                ~channel_timeout:(e = Transport.Timeout)
                ~channel_tampered:(e = Transport.Tampered)
                ~bytes:(Network.total_bytes net - bytes0)
                ~recompute_seconds
            | (Error `Refused | Ok _) as commitment ->
              let tamper1 =
                Telemetry.counter_value "transport.fault.tamper"
              in
              let storage_report =
                Endpoint.Da.audit_storage_over_wire da ~transport
                  ~owner:user_id ~file ~indices
              in
              let now = Event_queue.now queue in
              let verdict =
                match commitment with
                | Ok commitment ->
                  let warrant =
                    Seccloud.User.delegate_audit user ~now ~lifetime:3600.0
                      ~scope:("audit " ^ file)
                  in
                  Endpoint.Da.audit_computation_over_wire da ~transport
                    ~owner:user_id ~file ~commitment ~warrant ~now
                    ~samples:config.samples_per_audit
                | Error _ ->
                  (* The server answered the compute request with an
                     error Ack: a protocol refusal, not a channel
                     fault. *)
                  {
                    Protocol.valid = false;
                    failures = [ Protocol.Warrant_invalid ];
                  }
              in
              let recompute_seconds = Sys.time () -. t0 in
              let channel_errors =
                (match storage_report.Seccloud.Agency.channel with
                | Some e -> [ e ]
                | None -> [])
                @ List.filter_map
                    (function
                      | Protocol.Transport_timeout _ -> Some Transport.Timeout
                      | Protocol.Transport_tampered _ ->
                        Some Transport.Tampered
                      | _ -> None)
                    verdict.Protocol.failures
              in
              let storage_ok = storage_report.Seccloud.Agency.intact in
              let computation_ok = verdict.Protocol.valid in
              let tampering_injected =
                setup_tampered
                || Telemetry.counter_value "transport.fault.tamper" > tamper1
              in
              finish_audit ~epoch_idx ~cloud_id ~user_id ~server_cheats
                ~storage_ok ~computation_ok
                ~channel_timeout:(List.mem Transport.Timeout channel_errors)
                ~channel_tampered:
                  (List.mem Transport.Tampered channel_errors
                  || ((not (storage_ok && computation_ok))
                     && tampering_injected))
                ~bytes:(Network.total_bytes net - bytes0)
                ~recompute_seconds))
      users
  in
  for e = 1 to config.epochs do
    Event_queue.schedule_at queue ~time:(float_of_int e *. 10_000.0) (fun () ->
        run_epoch e)
  done;
  Event_queue.run queue;
  let outcomes = List.rev !outcomes in
  let tally f = List.length (List.filter f outcomes) in
  let caught o = not (o.storage_ok && o.computation_ok) in
  let channel o = o.channel_timeout || o.channel_tampered in
  let stats =
    {
      outcomes;
      sim_time = Event_queue.now queue;
      total_bytes = Network.total_bytes net;
      detected = tally (fun o -> o.server_cheats && caught o);
      undetected = tally (fun o -> o.server_cheats && not (caught o));
      false_alarms =
        tally (fun o -> (not o.server_cheats) && caught o && not (channel o));
      honest_passed = tally (fun o -> (not o.server_cheats) && not (caught o));
      channel_timeouts = tally (fun o -> o.channel_timeout);
      channel_tampering = tally (fun o -> o.channel_tampered);
      records = List.rev !records;
    }
  in
  Telemetry.add_attr "audits" (string_of_int (List.length outcomes));
  Telemetry.add_attr "detected" (string_of_int stats.detected);
  Telemetry.add_attr "undetected" (string_of_int stats.undetected);
  Telemetry.add_attr "false_alarms" (string_of_int stats.false_alarms);
  Telemetry.add_attr "channel_timeouts" (string_of_int stats.channel_timeouts);
  stats

let detection_rate stats =
  let total = stats.detected + stats.undetected in
  if total = 0 then 1.0 else float_of_int stats.detected /. float_of_int total

let learned_costs ?(a3 = 1.0) stats = Optimal.learn_costs ~a3 stats.records

(* ------------------------------------------------------------------ *)
(* Service-layer soak campaign                                        *)
(* ------------------------------------------------------------------ *)

module Service = Sc_service.Service

type service_config = {
  sv_seed : string;
  sv_params : Sc_pairing.Params.t lazy_t;
  sv_service : Service.config;
  sv_identities : int;
  sv_lookup_stride : int;
  sv_heavy : int;
  sv_corrupt : int;
  sv_blocks_per_file : int;
  sv_ints_per_block : int;
  sv_tasks : int;
  sv_samples : int;
  sv_audit_rounds : int;
  sv_dynamic_ops : int;
}

let default_service_config =
  {
    sv_seed = "service-campaign";
    sv_params = Sc_pairing.Params.toy;
    sv_service = Service.default_config;
    sv_identities = 20_000;
    sv_lookup_stride = 16;
    sv_heavy = 64;
    sv_corrupt = 8;
    sv_blocks_per_file = 4;
    sv_ints_per_block = 8;
    sv_tasks = 4;
    sv_samples = 4;
    sv_audit_rounds = 2;
    sv_dynamic_ops = 6;
  }

type service_protocol = {
  sp_name : string;
  sp_count : int;
  sp_p50_us : float;
  sp_p99_us : float;
}

type service_stats = {
  sv_ledger : Service.ledger;
  sv_digest : string;
  sv_shard_tenants : int array;
  sv_false_alarms : int;
  sv_detected : int;
  sv_missed : int;
  sv_channel_suspected : int;
  sv_elapsed_s : float;
  sv_audit_elapsed_s : float;
  sv_audits_per_sec : float;
  sv_requests_per_sec : float;
  sv_protocols : service_protocol list;
}

let service_tenant_name i = Printf.sprintf "tenant-%08d" i
let service_ops =
  [ "admit"; "lookup"; "store"; "corrupt"; "mutate"; "audit"; "compute" ]

let ns_to_s ns = Int64.to_float ns /. 1e9

let run_service cfg =
  if cfg.sv_identities < 1 then invalid_arg "run_service: identities < 1";
  if cfg.sv_heavy > cfg.sv_identities then
    invalid_arg "run_service: heavy > identities";
  if cfg.sv_corrupt > cfg.sv_heavy then
    invalid_arg "run_service: corrupt > heavy";
  Telemetry.with_span ~name:"service.campaign" @@ fun () ->
  let svc =
    Service.create ~config:cfg.sv_service ~params:cfg.sv_params
      ~seed:cfg.sv_seed ()
  in
  let drbg =
    Sc_hash.Drbg.create
      ~seed:(Sc_hash.Encode.canonical [ "service-campaign"; cfg.sv_seed ])
  in
  (* Heavy tenants are strided across the identity space so every
     shard sees its share of full-crypto traffic. *)
  let stride = max 1 (cfg.sv_identities / max 1 cfg.sv_heavy) in
  let heavy =
    List.init cfg.sv_heavy (fun j ->
        service_tenant_name (j * stride mod cfg.sv_identities))
  in
  let corrupted = Hashtbl.create 16 in
  List.iteri
    (fun j id -> if j < cfg.sv_corrupt then Hashtbl.replace corrupted id ())
    heavy;
  let file = "soak" in
  let false_alarms = ref 0
  and detected = ref 0
  and missed = ref 0
  and suspected = ref 0 in
  (* Ground truth: the only tenants whose audits may legitimately fail
     crypto verification are the ones we corrupted — and only after
     the corruption wave ran (audits are all submitted later). *)
  let classify results =
    List.iter
      (fun (tenant, _request, response) ->
        let corrupt = Hashtbl.mem corrupted tenant in
        match response with
        | Service.Audited { report; tampered_in_flight } -> (
          match report.Seccloud.Agency.channel with
          | Some _ -> ()
          | None ->
            if report.Seccloud.Agency.intact then begin
              if corrupt then incr missed
            end
            else if corrupt then incr detected
            else if tampered_in_flight then incr suspected
            else incr false_alarms)
        | Service.Computed { verdict; tampered_in_flight } ->
          if
            List.exists Protocol.is_transport_failure verdict.Protocol.failures
          then ()
          else if not verdict.Protocol.valid then begin
            (* A computation over rotten data may or may not touch the
               bad block, so validity is not a miss for corrupt
               tenants — but an honest tenant's computation must never
               fail crypto-clean. *)
            if corrupt then incr detected
            else if tampered_in_flight then incr suspected
            else incr false_alarms
          end
        | Service.Mutated { intact; diverged; _ } ->
          (* The dynamic view is built from the retained (honest)
             upload and only mutated through proof-checked ops, so any
             failed audit or caught divergence is a false alarm by
             ground truth. *)
          if (not intact) || diverged then incr false_alarms
        | _ -> ())
      results
  in
  let submit tenant request =
    let rec go () =
      match Service.submit svc ~tenant request with
      | Ok () -> ()
      | Error (Service.Overloaded _) ->
        (* The stream outran the queues: drain to completion, then
           retry — typed backpressure, never a blocked or dropped
           submission. *)
        classify (Service.drain svc);
        go ()
    in
    go ()
  in
  let t_all = Telemetry.now_ns () in
  (* Wave 1: admission for every identity, light lookups riding
     along. *)
  for i = 0 to cfg.sv_identities - 1 do
    let id = service_tenant_name i in
    submit id Service.Admit;
    if cfg.sv_lookup_stride > 0 && i mod cfg.sv_lookup_stride = 0 then
      submit id Service.Lookup
  done;
  classify (Service.drain svc);
  (* Wave 2: heavy tenants store a signed file over the wire. *)
  List.iter
    (fun id ->
      let payloads =
        List.init cfg.sv_blocks_per_file (fun _ ->
            Sc_storage.Block.encode_ints
              (List.init cfg.sv_ints_per_block (fun _ ->
                   Sc_hash.Drbg.uniform_int drbg 1000)))
      in
      submit id (Service.Store { file; payloads }))
    heavy;
  classify (Service.drain svc);
  (* Wave 3: silent corruption of the chosen tenants' data. *)
  List.iteri
    (fun j id ->
      if j < cfg.sv_corrupt then submit id (Service.Corrupt { file }))
    heavy;
  classify (Service.drain svc);
  (* Wave 3b: authenticated dynamics — every heavy tenant runs a
     mutation burst (update/append/tombstone) against a dynamic view
     of its file, ending in one signed root transition and a
     rank-proof audit. *)
  if cfg.sv_dynamic_ops > 0 then begin
    List.iter
      (fun id -> submit id (Service.Mutate { file; ops = cfg.sv_dynamic_ops }))
      heavy;
    classify (Service.drain svc)
  end;
  (* Wave 4: audit rounds — storage and computation audits for every
     heavy tenant. *)
  let t_audit = Telemetry.now_ns () in
  for _round = 1 to cfg.sv_audit_rounds do
    List.iter
      (fun id ->
        submit id (Service.Audit_storage { file; samples = cfg.sv_samples });
        submit id
          (Service.Compute
             { file; n_tasks = cfg.sv_tasks; samples = cfg.sv_samples }))
      heavy;
    classify (Service.drain svc)
  done;
  let audit_elapsed = ns_to_s (Telemetry.elapsed_ns t_audit) in
  let elapsed = ns_to_s (Telemetry.elapsed_ns t_all) in
  let ledger = Service.ledger svc in
  let protocols =
    List.filter_map
      (fun op ->
        let name = "service." ^ op in
        match Telemetry.find ("span." ^ name) with
        | Some (Telemetry.Histogram h) when h.Telemetry.count > 0 ->
          Some
            {
              sp_name = name;
              sp_count = h.Telemetry.count;
              sp_p50_us = Telemetry.quantile h 0.5;
              sp_p99_us = Telemetry.quantile h 0.99;
            }
        | _ -> None)
      service_ops
  in
  let stats =
    {
      sv_ledger = ledger;
      sv_digest = Service.digest svc;
      sv_shard_tenants = Service.tenant_counts svc;
      sv_false_alarms = !false_alarms;
      sv_detected = !detected;
      sv_missed = !missed;
      sv_channel_suspected = !suspected;
      sv_elapsed_s = elapsed;
      sv_audit_elapsed_s = audit_elapsed;
      sv_audits_per_sec =
        (if audit_elapsed > 0.0 then
           float_of_int (ledger.Service.audits + ledger.Service.computes)
           /. audit_elapsed
         else 0.0);
      sv_requests_per_sec =
        (if elapsed > 0.0 then
           float_of_int ledger.Service.processed /. elapsed
         else 0.0);
      sv_protocols = protocols;
    }
  in
  Telemetry.add_attr "identities" (string_of_int cfg.sv_identities);
  Telemetry.add_attr "processed" (string_of_int ledger.Service.processed);
  Telemetry.add_attr "rejected" (string_of_int ledger.Service.rejected);
  Telemetry.add_attr "false_alarms" (string_of_int stats.sv_false_alarms);
  Telemetry.add_attr "digest" stats.sv_digest;
  stats

let service_metrics cfg stats =
  let l = stats.sv_ledger in
  let base =
    [
      "identities", float_of_int cfg.sv_identities;
      "heavy_tenants", float_of_int cfg.sv_heavy;
      "corrupt_tenants", float_of_int cfg.sv_corrupt;
      "shards", float_of_int cfg.sv_service.Service.shards;
      "queue_capacity", float_of_int cfg.sv_service.Service.queue_capacity;
      "submitted", float_of_int l.Service.submitted;
      "accepted", float_of_int l.Service.accepted;
      "rejected", float_of_int l.Service.rejected;
      "processed", float_of_int l.Service.processed;
      "admitted", float_of_int l.Service.admitted;
      "lookups", float_of_int l.Service.lookups;
      "stores", float_of_int l.Service.stores;
      "store_failures", float_of_int l.Service.store_failures;
      "corruptions", float_of_int l.Service.corruptions;
      "audits", float_of_int l.Service.audits;
      "audit_alarms", float_of_int l.Service.audit_alarms;
      "computes", float_of_int l.Service.computes;
      "compute_alarms", float_of_int l.Service.compute_alarms;
      "mutations", float_of_int l.Service.mutations;
      "mutation_ops", float_of_int l.Service.mutation_ops;
      "mutation_alarms", float_of_int l.Service.mutation_alarms;
      "channel_blames", float_of_int l.Service.channel_blames;
      "denials", float_of_int l.Service.denials;
      "queue_peak", float_of_int l.Service.queue_peak;
      "false_alarms", float_of_int stats.sv_false_alarms;
      "detected", float_of_int stats.sv_detected;
      "missed", float_of_int stats.sv_missed;
      "channel_suspected", float_of_int stats.sv_channel_suspected;
      "elapsed_s", stats.sv_elapsed_s;
      "audit_elapsed_s", stats.sv_audit_elapsed_s;
      "audits_per_sec", stats.sv_audits_per_sec;
      "requests_per_sec", stats.sv_requests_per_sec;
    ]
  in
  base
  @ List.concat_map
      (fun p ->
        [
          Printf.sprintf "count(%s)" p.sp_name, float_of_int p.sp_count;
          Printf.sprintf "p50_us(%s)" p.sp_name, p.sp_p50_us;
          Printf.sprintf "p99_us(%s)" p.sp_name, p.sp_p99_us;
        ])
      stats.sv_protocols

let service_stats_json ?slos cfg stats =
  let module Json = Sc_telemetry.Json in
  let num v =
    if Float.is_integer v && Float.abs v < 1e15 then
      string_of_int (int_of_float v)
    else Json.float v
  in
  let fields =
    List.map (fun (k, v) -> k, num v) (service_metrics cfg stats)
    @ [
        "digest", Json.str stats.sv_digest;
        ( "shard_tenants",
          Json.arr
            (Array.to_list
               (Array.map string_of_int stats.sv_shard_tenants)) );
      ]
    @
    match slos with
    | None -> []
    | Some slos -> [ "slo", Sc_telemetry.Slo.json slos ]
  in
  Json.obj fields

let check_service_slos cfg stats content =
  let metrics = service_metrics cfg stats in
  Sc_telemetry.Slo.check
    ~lookup:(fun name ->
      match List.assoc_opt name metrics with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "unknown metric %S" name))
    content
