module Telemetry = Sc_telemetry.Telemetry
module Drbg = Sc_hash.Drbg
module Encode = Sc_hash.Encode
module Sha256 = Sc_hash.Sha256
module System = Seccloud.System
module Cloud = Seccloud.Cloud
module User = Seccloud.User
module Agency = Seccloud.Agency
module Endpoint = Seccloud.Endpoint
module Transport = Seccloud.Transport
module Wire = Seccloud.Wire
module Protocol = Sc_audit.Protocol

type config = {
  shards : int;
  queue_capacity : int;
  drain_quantum : int;
  faults : Transport.faults;
  retry : Transport.Retry.policy;
}

let default_config =
  {
    shards = 16;
    queue_capacity = 1024;
    drain_quantum = 64;
    faults = Transport.perfect;
    retry = Transport.Retry.default;
  }

type request =
  | Admit
  | Lookup
  | Store of { file : string; payloads : string list }
  | Corrupt of { file : string }
  | Audit_storage of { file : string; samples : int }
  | Compute of { file : string; n_tasks : int; samples : int }
  | Mutate of { file : string; ops : int }

type denial = Unknown_tenant | Unknown_file | Empty_upload

type response =
  | Admitted of { shard : int }
  | Info of { known : bool; files : int }
  | Stored of bool
  | Store_failed of Transport.error
  | Audited of { report : Agency.storage_report; tampered_in_flight : bool }
  | Computed of { verdict : Protocol.verdict; tampered_in_flight : bool }
  | Compute_failed of Transport.error
  | Corrupted
  | Mutated of { applied : int; blocks : int; intact : bool; diverged : bool }
  | Denied of denial

type error = Overloaded of { shard : int; depth : int }

let pp_error fmt (Overloaded { shard; depth }) =
  Format.fprintf fmt "overloaded(shard=%d,depth=%d)" shard depth

type ledger = {
  submitted : int;
  accepted : int;
  rejected : int;
  processed : int;
  admitted : int;
  lookups : int;
  stores : int;
  store_failures : int;
  corruptions : int;
  audits : int;
  audit_alarms : int;
  computes : int;
  compute_alarms : int;
  mutations : int;
  mutation_ops : int;
  mutation_alarms : int;
  channel_blames : int;
  denials : int;
  queue_peak : int;
}

(* Per-shard mutable counters; only ever touched by the shard's owner
   (the submitting domain for submitted/accepted/rejected/queue_peak,
   the draining worker for the rest), so no synchronization needed. *)
type tally = {
  mutable t_submitted : int;
  mutable t_accepted : int;
  mutable t_rejected : int;
  mutable t_processed : int;
  mutable t_admitted : int;
  mutable t_lookups : int;
  mutable t_stores : int;
  mutable t_store_failures : int;
  mutable t_corruptions : int;
  mutable t_audits : int;
  mutable t_audit_alarms : int;
  mutable t_computes : int;
  mutable t_compute_alarms : int;
  mutable t_mutations : int;
  mutable t_mutation_ops : int;
  mutable t_mutation_alarms : int;
  mutable t_channel_blames : int;
  mutable t_denials : int;
  mutable t_queue_peak : int;
}

let fresh_tally () =
  {
    t_submitted = 0;
    t_accepted = 0;
    t_rejected = 0;
    t_processed = 0;
    t_admitted = 0;
    t_lookups = 0;
    t_stores = 0;
    t_store_failures = 0;
    t_corruptions = 0;
    t_audits = 0;
    t_audit_alarms = 0;
    t_computes = 0;
    t_compute_alarms = 0;
    t_mutations = 0;
    t_mutation_ops = 0;
    t_mutation_alarms = 0;
    t_channel_blames = 0;
    t_denials = 0;
    t_queue_peak = 0;
  }

type tenant = {
  mutable files : (string * int) list;  (* file -> block count *)
  mutable user : User.t option;  (* signing handle, built at first store *)
  mutable warrant : Sc_ibc.Warrant.signed option;
  mutable dyn :
    (string * (Sc_storage.Dynamic.client * Sc_storage.Dynamic.server)) list;
      (* file -> dynamic-storage view, built at first Mutate *)
}

type queued = {
  q_tenant : string;
  q_request : request;
  q_ctx : Telemetry.trace_context option;  (* captured at submit *)
}

type shard = {
  index : int;
  cs_id : string;
  queue : queued Bqueue.t;
  tenants : (string, tenant) Hashtbl.t;
  uploads : (string, Sc_storage.Signer.upload) Hashtbl.t;
      (* keyed by qualified file; retained for [Corrupt] *)
  cloud : Cloud.t;
  server : Endpoint.Server.t;
  da : Endpoint.Da.t;  (* per shard: own challenge DRBG *)
  mutable transport : Transport.t;
  drbg : Drbg.t;  (* shard-local sampling/workload randomness *)
  tally : tally;
  mutable digest : string;  (* rolling response digest *)
  mutable out : (string * request * response) list;  (* reversed *)
}

type t = {
  mutable config : config;
  seed : string;
  system : System.t;
  shards : shard array;
  mutable depth : int;  (* total queued; submitting domain only *)
  mutable generation : int;  (* bumped by set_faults *)
}

let c_submitted = Telemetry.counter "service.submitted"
let c_accepted = Telemetry.counter "service.accepted"
let c_rejected = Telemetry.counter "service.rejected"
let c_processed = Telemetry.counter "service.processed"
let g_depth = Telemetry.gauge "service.queue.depth"
let g_peak = Telemetry.gauge "service.queue.peak"

(* Tenant-qualified storage name: injective in (tenant, file), so two
   tenants storing "report.dat" never collide inside a shard's cloud
   server. *)
let qualify ~tenant ~file = Encode.canonical [ tenant; file ]

let make_transport ~system ~config ~seed ~generation ~index ~cs_id ~handler
    ~now =
  let drbg_seed =
    Encode.canonical
      [ "service-transport"; seed; string_of_int index; string_of_int generation ]
  in
  Transport.create ~faults:config.faults ~policy:config.retry
    ~drbg:(Drbg.create ~seed:drbg_seed) ~now ~peer:cs_id
    ~public:(System.public system) ~handler ()

let create ?(config = default_config) ?params ~seed () =
  if config.shards < 1 then invalid_arg "Service.create: shards < 1";
  if config.queue_capacity < 1 then
    invalid_arg "Service.create: queue_capacity < 1";
  if config.drain_quantum < 1 then
    invalid_arg "Service.create: drain_quantum < 1";
  let cs_ids = List.init config.shards (Printf.sprintf "svc-%d") in
  let system = System.create ?params ~seed ~cs_ids ~da_id:"da" () in
  let make_shard index =
    let cs_id = Printf.sprintf "svc-%d" index in
    let cloud = Cloud.create system ~id:cs_id () in
    let server = Endpoint.Server.create system cloud in
    {
      index;
      cs_id;
      queue = Bqueue.create ~capacity:config.queue_capacity;
      tenants = Hashtbl.create 4096;
      uploads = Hashtbl.create 64;
      cloud;
      server;
      da = Endpoint.Da.create system;
      transport =
        make_transport ~system ~config ~seed ~generation:0 ~index ~cs_id
          ~handler:(Endpoint.Server.handle server) ~now:0.0;
      drbg =
        Drbg.create
          ~seed:(Encode.canonical [ "service-shard"; seed; string_of_int index ]);
      tally = fresh_tally ();
      digest = Encode.digest [ "service-digest"; seed; string_of_int index ];
      out = [];
    }
  in
  {
    config;
    seed;
    system;
    shards = Array.init config.shards make_shard;
    depth = 0;
    generation = 0;
  }

let shard_of t id = Router.shard_of ~shards:t.config.shards id
let pending t = t.depth

let queue_depth t i =
  if i < 0 || i >= Array.length t.shards then
    invalid_arg "Service.queue_depth: shard out of range";
  Bqueue.length t.shards.(i).queue

let set_faults t faults =
  t.generation <- t.generation + 1;
  t.config <- { t.config with faults };
  Array.iter
    (fun sh ->
      sh.transport <-
        make_transport ~system:t.system ~config:t.config ~seed:t.seed
          ~generation:t.generation ~index:sh.index ~cs_id:sh.cs_id
          ~handler:(Endpoint.Server.handle sh.server)
          ~now:(Transport.now sh.transport))
    t.shards

let submit t ~tenant request =
  let sh = t.shards.(shard_of t tenant) in
  Telemetry.incr c_submitted;
  sh.tally.t_submitted <- sh.tally.t_submitted + 1;
  let item =
    {
      q_tenant = tenant;
      q_request = request;
      q_ctx = Telemetry.current_context ();
    }
  in
  if Bqueue.push sh.queue item then begin
    Telemetry.incr c_accepted;
    sh.tally.t_accepted <- sh.tally.t_accepted + 1;
    let depth = Bqueue.length sh.queue in
    if depth > sh.tally.t_queue_peak then begin
      sh.tally.t_queue_peak <- depth;
      if float_of_int depth > Telemetry.gauge_value g_peak then
        Telemetry.set g_peak (float_of_int depth)
    end;
    t.depth <- t.depth + 1;
    Telemetry.set g_depth (float_of_int t.depth);
    Ok ()
  end
  else begin
    Telemetry.incr c_rejected;
    sh.tally.t_rejected <- sh.tally.t_rejected + 1;
    Error (Overloaded { shard = sh.index; depth = Bqueue.length sh.queue })
  end

(* --- per-request processing (runs on the shard's worker) ---------- *)

let absorb sh parts =
  sh.digest <- Sha256.digest_concat (Encode.frame (sh.digest :: parts))

let transport_error_tag = function
  | Transport.Timeout -> "timeout"
  | Transport.Tampered -> "tampered"

let denial_tag = function
  | Unknown_tenant -> "unknown-tenant"
  | Unknown_file -> "unknown-file"
  | Empty_upload -> "empty-upload"

let failure_tag = function
  | Protocol.Warrant_invalid -> "warrant"
  | Protocol.Missing_response i -> Printf.sprintf "missing:%d" i
  | Protocol.Signature_wrong i -> Printf.sprintf "sig:%d" i
  | Protocol.Computing_wrong i -> Printf.sprintf "compute:%d" i
  | Protocol.Root_wrong i -> Printf.sprintf "root:%d" i
  | Protocol.Root_signature_wrong -> "root-sig"
  | Protocol.Transport_timeout peer -> "transport-timeout:" ^ peer
  | Protocol.Transport_tampered peer -> "transport-tampered:" ^ peer

let summarize_request = function
  | Admit | Lookup -> []
  | Store { file; payloads } -> [ file; string_of_int (List.length payloads) ]
  | Corrupt { file } -> [ file ]
  | Audit_storage { file; samples } -> [ file; string_of_int samples ]
  | Compute { file; n_tasks; samples } ->
    [ file; string_of_int n_tasks; string_of_int samples ]
  | Mutate { file; ops } -> [ file; string_of_int ops ]

(* Deterministic response summary folded into the shard digest: every
   field here is schedule-independent, so the combined digest is the
   cross-domain value-identity witness (latency never appears). *)
let summarize tenant response =
  match response with
  | Admitted { shard } -> [ "admit"; tenant; string_of_int shard ]
  | Info { known; files } ->
    [ "lookup"; tenant; string_of_bool known; string_of_int files ]
  | Stored ok -> [ "store"; tenant; string_of_bool ok ]
  | Store_failed e -> [ "store-failed"; tenant; transport_error_tag e ]
  | Audited { report; tampered_in_flight } ->
    [
      "audit";
      tenant;
      string_of_int report.Agency.sampled;
      string_of_int report.Agency.valid_blocks;
      String.concat "," (List.map string_of_int report.Agency.invalid_indices);
      string_of_bool report.Agency.intact;
      (match report.Agency.channel with
      | None -> "clean"
      | Some e -> transport_error_tag e);
      string_of_bool tampered_in_flight;
    ]
  | Computed { verdict; tampered_in_flight } ->
    [
      "compute";
      tenant;
      string_of_bool verdict.Protocol.valid;
      String.concat "," (List.map failure_tag verdict.Protocol.failures);
      string_of_bool tampered_in_flight;
    ]
  | Compute_failed e -> [ "compute-failed"; tenant; transport_error_tag e ]
  | Corrupted -> [ "corrupt"; tenant ]
  | Mutated { applied; blocks; intact; diverged } ->
    [
      "mutate";
      tenant;
      string_of_int applied;
      string_of_int blocks;
      string_of_bool intact;
      string_of_bool diverged;
    ]
  | Denied d -> [ "denied"; tenant; denial_tag d ]

let op_name = function
  | Admit -> "admit"
  | Lookup -> "lookup"
  | Store _ -> "store"
  | Corrupt _ -> "corrupt"
  | Audit_storage _ -> "audit"
  | Compute _ -> "compute"
  | Mutate _ -> "mutate"

let get_user t tenant_id record =
  match record.user with
  | Some u -> u
  | None ->
    let u = User.create t.system ~id:tenant_id in
    record.user <- Some u;
    u

let do_store t sh tenant record ~file ~payloads =
  if payloads = [] then begin
    sh.tally.t_denials <- sh.tally.t_denials + 1;
    Denied Empty_upload
  end
  else begin
    let user = get_user t tenant record in
    let qfile = qualify ~tenant ~file in
    let upload = User.sign_file user ~cs_id:sh.cs_id ~file:qfile payloads in
    match Transport.call sh.transport ~expect:"ack" (Wire.Upload upload) with
    | Error e ->
      sh.tally.t_store_failures <- sh.tally.t_store_failures + 1;
      Store_failed e
    | Ok reply ->
      let ok = match reply with Wire.Ack { ok; _ } -> ok | _ -> false in
      if ok then begin
        record.files <-
          (file, List.length payloads) :: List.remove_assoc file record.files;
        Hashtbl.replace sh.uploads qfile upload;
        if record.warrant = None then
          record.warrant <-
            Some
              (User.delegate_audit user ~now:(Transport.now sh.transport)
                 ~lifetime:1e9 ~scope:"service audit")
      end;
      sh.tally.t_stores <- sh.tally.t_stores + 1;
      Stored ok
  end

(* Storage rot: re-store the retained upload with one payload bit
   flipped, bypassing upload verification the way a lazy or cheating
   server would.  Only this tenant's file is touched, so honest
   co-resident tenants must keep auditing clean (the isolation
   property the soak test checks). *)
let do_corrupt sh tenant ~file =
  let qfile = qualify ~tenant ~file in
  match Hashtbl.find_opt sh.uploads qfile with
  | None ->
    sh.tally.t_denials <- sh.tally.t_denials + 1;
    Denied Unknown_file
  | Some upload ->
    let blocks = Array.copy upload.Sc_storage.Signer.blocks in
    let sb = blocks.(0) in
    let block = sb.Sc_storage.Signer.block in
    let data = Bytes.of_string block.Sc_storage.Block.data in
    Bytes.set data 0 (Char.chr (Char.code (Bytes.get data 0) lxor 1));
    blocks.(0) <-
      {
        sb with
        Sc_storage.Signer.block =
          { block with Sc_storage.Block.data = Bytes.to_string data };
      };
    Cloud.accept_upload_unchecked sh.cloud { upload with blocks };
    sh.tally.t_corruptions <- sh.tally.t_corruptions + 1;
    Corrupted

let do_audit sh tenant record ~file ~samples =
  match List.assoc_opt file record.files with
  | None ->
    sh.tally.t_denials <- sh.tally.t_denials + 1;
    Denied Unknown_file
  | Some blocks ->
    let indices =
      Array.to_list (Drbg.sample_prefix sh.drbg ~n:blocks ~k:samples)
    in
    let tampers0 = Transport.injected_tampers sh.transport in
    let report =
      Endpoint.Da.audit_storage_over_wire sh.da ~transport:sh.transport
        ~owner:tenant ~file:(qualify ~tenant ~file) ~indices
    in
    sh.tally.t_audits <- sh.tally.t_audits + 1;
    (match report.Agency.channel with
    | Some _ -> sh.tally.t_channel_blames <- sh.tally.t_channel_blames + 1
    | None ->
      if not report.Agency.intact then
        sh.tally.t_audit_alarms <- sh.tally.t_audit_alarms + 1);
    Audited
      {
        report;
        tampered_in_flight = Transport.injected_tampers sh.transport > tampers0;
      }

let do_compute sh tenant record ~file ~n_tasks ~samples =
  match (List.assoc_opt file record.files, record.warrant) with
  | None, _ | _, None ->
    sh.tally.t_denials <- sh.tally.t_denials + 1;
    Denied Unknown_file
  | Some blocks, Some warrant ->
    let service =
      Sc_compute.Task.random_service ~drbg:sh.drbg ~n_positions:blocks ~n_tasks
    in
    let qfile = qualify ~tenant ~file in
    let tampers0 = Transport.injected_tampers sh.transport in
    let finish verdict =
      sh.tally.t_computes <- sh.tally.t_computes + 1;
      if List.exists Protocol.is_transport_failure verdict.Protocol.failures
      then sh.tally.t_channel_blames <- sh.tally.t_channel_blames + 1
      else if not verdict.Protocol.valid then
        sh.tally.t_compute_alarms <- sh.tally.t_compute_alarms + 1;
      Computed
        {
          verdict;
          tampered_in_flight =
            Transport.injected_tampers sh.transport > tampers0;
        }
    in
    (match
       Transport.call sh.transport ~expect:"compute_commitment"
         (Wire.Compute_request { owner = tenant; file = qfile; service })
     with
    | Error e ->
      sh.tally.t_computes <- sh.tally.t_computes + 1;
      sh.tally.t_channel_blames <- sh.tally.t_channel_blames + 1;
      Compute_failed e
    | Ok (Wire.Compute_commitment { commitment; _ }) ->
      finish
        (Endpoint.Da.audit_computation_over_wire sh.da ~transport:sh.transport
           ~owner:tenant ~file:qfile ~commitment ~warrant
           ~now:(Transport.now sh.transport) ~samples)
    | Ok _ ->
      (* The server refused (an error reply that still decoded): an
         invalid verdict, not a channel blame. *)
      finish { Protocol.valid = false; failures = [ Protocol.Warrant_invalid ] })

(* Authenticated dynamics over the tenant's stored file: a burst of
   update/append/tombstone ops against a Storage.Dynamic view (built
   lazily from the retained upload), each op proof-checked, the whole
   burst one root transition, then a DA-style rank-proof audit of the
   result.  Every index draw comes from the shard DRBG, so the op mix
   — and hence the digest — is schedule-independent. *)
module Dynamic = Sc_storage.Dynamic

let dyn_view t sh tenant record ~file ~qfile =
  match List.assoc_opt file record.dyn with
  | Some pair -> Some pair
  | None -> (
    match Hashtbl.find_opt sh.uploads qfile with
    | None -> None
    | Some upload ->
      let payloads =
        Array.to_list
          (Array.map
             (fun sb -> sb.Sc_storage.Signer.block.Sc_storage.Block.data)
             upload.Sc_storage.Signer.blocks)
      in
      let key = System.register_user t.system tenant in
      let pair =
        Dynamic.init (System.public t.system) key
          ~bytes_source:(System.bytes_source t.system)
          ~cs_id:sh.cs_id
          ~da_id:(System.da_id t.system)
          ~file:qfile payloads
      in
      record.dyn <- (file, pair) :: record.dyn;
      Some pair)

let do_mutate t sh tenant record ~file ~ops =
  let qfile = qualify ~tenant ~file in
  match
    if List.mem_assoc file record.files then
      dyn_view t sh tenant record ~file ~qfile
    else None
  with
  | None ->
    sh.tally.t_denials <- sh.tally.t_denials + 1;
    Denied Unknown_file
  | Some (dc, ds) ->
    let applied = ref 0 and diverged = ref false in
    for i = 1 to ops do
      let n = Dynamic.count dc in
      let index = Drbg.uniform_int sh.drbg n in
      let payload =
        Printf.sprintf "mut:%s:%d:%d" file i (Drbg.uniform_int sh.drbg 10_000)
      in
      let result =
        match Drbg.uniform_int sh.drbg 4 with
        | 0 | 1 -> Dynamic.update dc ds ~index payload
        | 2 -> Dynamic.append dc ds payload
        | _ -> Dynamic.delete dc ds ~index
      in
      match result with
      | Ok () -> incr applied
      | Error (Dynamic.Diverged _) -> diverged := true
      | Error _ -> ()
    done;
    (* One signed root statement covers the whole burst; the audit
       checks rank proofs against it. *)
    let stmt =
      Dynamic.publish_root dc ~bytes_source:(System.bytes_source t.system)
    in
    let report =
      Dynamic.audit (System.public t.system)
        ~verifier_key:(System.da_key t.system) ~owner:tenant ~file:qfile
        ~root_statement:stmt ds ~drbg:sh.drbg
        ~samples:(min 8 (Dynamic.count dc))
    in
    sh.tally.t_mutations <- sh.tally.t_mutations + 1;
    sh.tally.t_mutation_ops <- sh.tally.t_mutation_ops + !applied;
    if (not report.Dynamic.intact) || !diverged then
      sh.tally.t_mutation_alarms <- sh.tally.t_mutation_alarms + 1;
    Mutated
      {
        applied = !applied;
        blocks = Dynamic.count dc;
        intact = report.Dynamic.intact;
        diverged = !diverged;
      }

let process t sh { q_tenant = tenant; q_request = request; q_ctx } =
  let response =
    Telemetry.with_context q_ctx @@ fun () ->
    Telemetry.with_span
      ~name:("service." ^ op_name request)
      ~attrs:[ ("tenant", tenant); ("shard", string_of_int sh.index) ]
    @@ fun () ->
    match (request, Hashtbl.find_opt sh.tenants tenant) with
    | Admit, Some _ -> Admitted { shard = sh.index }
    | Admit, None ->
      Hashtbl.replace sh.tenants tenant
        { files = []; user = None; warrant = None; dyn = [] };
      sh.tally.t_admitted <- sh.tally.t_admitted + 1;
      Admitted { shard = sh.index }
    | Lookup, record ->
      sh.tally.t_lookups <- sh.tally.t_lookups + 1;
      (match record with
      | None -> Info { known = false; files = 0 }
      | Some r -> Info { known = true; files = List.length r.files })
    | _, None ->
      sh.tally.t_denials <- sh.tally.t_denials + 1;
      Denied Unknown_tenant
    | Store { file; payloads }, Some record ->
      do_store t sh tenant record ~file ~payloads
    | Corrupt { file }, Some _ -> do_corrupt sh tenant ~file
    | Audit_storage { file; samples }, Some record ->
      do_audit sh tenant record ~file ~samples
    | Compute { file; n_tasks; samples }, Some record ->
      do_compute sh tenant record ~file ~n_tasks ~samples
    | Mutate { file; ops }, Some record ->
      do_mutate t sh tenant record ~file ~ops
  in
  sh.tally.t_processed <- sh.tally.t_processed + 1;
  Telemetry.incr c_processed;
  absorb sh (summarize_request request @ summarize tenant response);
  sh.out <- (tenant, request, response) :: sh.out

let drain_round t sh =
  let quantum = t.config.drain_quantum in
  let rec go n =
    if n < quantum then
      match Bqueue.pop sh.queue with
      | None -> ()
      | Some item ->
        process t sh item;
        go (n + 1)
  in
  go 0

let drain t =
  let rec rounds () =
    let busy =
      Array.to_list t.shards
      |> List.filter (fun sh -> not (Bqueue.is_empty sh.queue))
    in
    match busy with
    | [] -> ()
    | _ ->
      (* One task per busy shard; the pool barrier between rounds is
         what makes draining fair — a deep shard gets one quantum per
         round like everyone else. *)
      Sc_parallel.run_tasks (List.map (fun sh () -> drain_round t sh) busy);
      t.depth <-
        Array.fold_left (fun acc sh -> acc + Bqueue.length sh.queue) 0 t.shards;
      Telemetry.set g_depth (float_of_int t.depth);
      rounds ()
  in
  rounds ();
  Array.to_list t.shards
  |> List.concat_map (fun sh ->
         let r = List.rev sh.out in
         sh.out <- [];
         r)

let digest t =
  Sha256.hex_of_digest
    (Sha256.digest_concat
       (Encode.frame
          (Array.to_list (Array.map (fun sh -> sh.digest) t.shards))))

let ledger t =
  Array.fold_left
    (fun acc sh ->
      let y = sh.tally in
      {
        submitted = acc.submitted + y.t_submitted;
        accepted = acc.accepted + y.t_accepted;
        rejected = acc.rejected + y.t_rejected;
        processed = acc.processed + y.t_processed;
        admitted = acc.admitted + y.t_admitted;
        lookups = acc.lookups + y.t_lookups;
        stores = acc.stores + y.t_stores;
        store_failures = acc.store_failures + y.t_store_failures;
        corruptions = acc.corruptions + y.t_corruptions;
        audits = acc.audits + y.t_audits;
        audit_alarms = acc.audit_alarms + y.t_audit_alarms;
        computes = acc.computes + y.t_computes;
        compute_alarms = acc.compute_alarms + y.t_compute_alarms;
        mutations = acc.mutations + y.t_mutations;
        mutation_ops = acc.mutation_ops + y.t_mutation_ops;
        mutation_alarms = acc.mutation_alarms + y.t_mutation_alarms;
        channel_blames = acc.channel_blames + y.t_channel_blames;
        denials = acc.denials + y.t_denials;
        queue_peak = max acc.queue_peak y.t_queue_peak;
      })
    {
      submitted = 0;
      accepted = 0;
      rejected = 0;
      processed = 0;
      admitted = 0;
      lookups = 0;
      stores = 0;
      store_failures = 0;
      corruptions = 0;
      audits = 0;
      audit_alarms = 0;
      computes = 0;
      compute_alarms = 0;
      mutations = 0;
      mutation_ops = 0;
      mutation_alarms = 0;
      channel_blames = 0;
      denials = 0;
      queue_peak = 0;
    }
    t.shards

let tenant_counts t = Array.map (fun sh -> sh.tally.t_admitted) t.shards
