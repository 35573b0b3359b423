(* A small operational CLI around the SecCloud library: run an
   end-to-end demo, audit a simulated deployment, or size a sample
   set. *)

open Cmdliner

let setup_logging verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Info else Some Logs.Warning)

module Telemetry = Sc_telemetry.Telemetry
module Tate = Sc_pairing.Tate

let demo verbose (preset, params) seed =
  setup_logging verbose;
  let system =
    Seccloud.System.create ~params ~seed
      ~cs_ids:[ "cs-1" ] ~da_id:"da" ()
  in
  let user = Seccloud.User.create system ~id:"alice" in
  let cloud = Seccloud.Cloud.create system ~id:"cs-1" () in
  let da = Seccloud.Agency.create system in
  let drbg = Sc_hash.Drbg.create ~seed:("demo-data:" ^ seed) in
  Printf.printf "System initialised (params=%s); user=alice cs=cs-1 da=da\n"
    preset;
  let payloads =
    List.init 32 (fun i ->
        Sc_storage.Block.encode_ints
          (List.init 8 (fun j -> i + j + Sc_hash.Drbg.uniform_int drbg 50)))
  in
  let accepted = Seccloud.User.store user cloud ~file:"ledger" payloads in
  Printf.printf "Protocol II: uploaded 32 signed blocks, accepted=%b\n" accepted;
  let report =
    Seccloud.Agency.audit_storage da cloud ~owner:"alice" ~file:"ledger"
      ~samples:12
  in
  Printf.printf "Storage audit: %d/%d sampled blocks verified, intact=%b\n"
    report.Seccloud.Agency.valid_blocks report.Seccloud.Agency.sampled
    report.Seccloud.Agency.intact;
  let service =
    Sc_compute.Task.random_service ~drbg ~n_positions:32 ~n_tasks:16
  in
  let execution =
    Seccloud.Cloud.execute cloud ~owner:"alice" ~file:"ledger" service
  in
  Printf.printf "Protocol III: executed %d sub-tasks, commitment root=%s...\n"
    16
    (String.sub (Sc_hash.Sha256.hex_of_digest
                   (Sc_compute.Executor.root execution)) 0 16);
  let warrant =
    Seccloud.User.delegate_audit user ~now:0.0 ~lifetime:3600.0
      ~scope:"audit ledger computation"
  in
  let verdict =
    Seccloud.Agency.audit_computation da cloud ~owner:"alice" ~execution
      ~warrant ~now:10.0 ~samples:8
  in
  Printf.printf "Computation audit (Algorithm 1): valid=%b\n"
    verdict.Sc_audit.Protocol.valid

let samplesize csc ssc range eps =
  let range = if range <= 0.0 then infinity else range in
  match
    Sc_audit.Sampling.required_samples ~csc ~ssc ~range ~sig_forge:1e-9 ~eps ()
  with
  | Some t ->
    Printf.printf
      "required samples: t = %d   (CSC=%.2f SSC=%.2f |R|=%s eps=%g)\n" t csc
      ssc
      (if range = infinity then "inf" else string_of_float range)
      eps
  | None -> print_endline "no finite sample size reaches the target epsilon"

let simulate epochs servers byzantine users drop tamper seed trace =
  let config =
    {
      Sc_sim.Engine.default_config with
      Sc_sim.Engine.seed;
      epochs;
      n_servers = servers;
      byzantine_bound = byzantine;
      n_users = users;
      faults = Seccloud.Transport.lossy ~drop ~tamper ();
    }
  in
  let run () = Sc_sim.Engine.run config in
  let stats =
    match trace with
    | Some path -> Telemetry.with_trace_file path run
    | None -> run ()
  in
  Printf.printf
    "simulated %d epochs, %d audits: detected=%d undetected=%d \
     false_alarms=%d honest_passed=%d\n"
    epochs
    (List.length stats.Sc_sim.Engine.outcomes)
    stats.Sc_sim.Engine.detected stats.Sc_sim.Engine.undetected
    stats.Sc_sim.Engine.false_alarms stats.Sc_sim.Engine.honest_passed;
  Printf.printf "detection rate: %.2f; %d bytes over the network\n"
    (Sc_sim.Engine.detection_rate stats)
    stats.Sc_sim.Engine.total_bytes;
  if drop > 0.0 || tamper > 0.0 then
    Printf.printf
      "channel (drop=%.2f tamper=%.2f): %d rounds blamed on timeouts, %d on \
       in-flight tampering\n"
      drop tamper stats.Sc_sim.Engine.channel_timeouts
      stats.Sc_sim.Engine.channel_tampering;
  match trace with
  | Some path -> Printf.printf "span trace (JSONL) written to %s\n" path
  | None -> ()

(* `simulate --service`: the sharded multi-tenant soak campaign.
   Writes BENCH_service.json (--out), gates it on a declarative SLO
   file (--slo, exit 1 on violation) and optionally re-runs the whole
   campaign at a different domain count to prove the results are
   value-identical (--identity-check, exit 1 on digest mismatch). *)
let simulate_service ~identities ~shards ~heavy ~corrupt ~queue_cap ~quantum
    ~lookup_stride ~audit_rounds ~dynamic_ops ~drop ~tamper ~seed ~trace ~out
    ~slo ~identity_check =
  let cfg =
    {
      Sc_sim.Engine.default_service_config with
      Sc_sim.Engine.sv_seed = seed;
      sv_identities = identities;
      sv_heavy = heavy;
      sv_corrupt = corrupt;
      sv_lookup_stride = lookup_stride;
      sv_audit_rounds = audit_rounds;
      sv_dynamic_ops = dynamic_ops;
      sv_service =
        {
          Sc_service.Service.default_config with
          Sc_service.Service.shards;
          queue_capacity = queue_cap;
          drain_quantum = quantum;
          faults = Seccloud.Transport.lossy ~drop ~tamper ();
        };
    }
  in
  let run_once () =
    Telemetry.reset ();
    Sc_sim.Engine.run_service cfg
  in
  let stats =
    match trace with
    | Some path -> Telemetry.with_trace_file path run_once
    | None -> run_once ()
  in
  let open_spans = Telemetry.open_spans () in
  let l = stats.Sc_sim.Engine.sv_ledger in
  Printf.printf
    "service campaign (%d shards, %d domains): %d identities admitted, %d \
     requests processed, %d rejected (backpressure), queue peak %d/%d\n"
    shards
    (Sc_parallel.domain_count ())
    l.Sc_service.Service.admitted l.Sc_service.Service.processed
    l.Sc_service.Service.rejected l.Sc_service.Service.queue_peak queue_cap;
  Printf.printf
    "audits: %d storage + %d compute (%.0f audits/sec sustained); detected=%d \
     missed=%d false_alarms=%d channel_blames=%d\n"
    l.Sc_service.Service.audits l.Sc_service.Service.computes
    stats.Sc_sim.Engine.sv_audits_per_sec stats.Sc_sim.Engine.sv_detected
    stats.Sc_sim.Engine.sv_missed stats.Sc_sim.Engine.sv_false_alarms
    l.Sc_service.Service.channel_blames;
  if l.Sc_service.Service.mutations > 0 then
    Printf.printf
      "dynamics: %d mutation bursts (%d ops applied), %d alarms\n"
      l.Sc_service.Service.mutations l.Sc_service.Service.mutation_ops
      l.Sc_service.Service.mutation_alarms;
  List.iter
    (fun p ->
      Printf.printf "  %-16s count=%-8d p50=%.0fus p99=%.0fus\n"
        p.Sc_sim.Engine.sp_name p.Sc_sim.Engine.sp_count
        p.Sc_sim.Engine.sp_p50_us p.Sc_sim.Engine.sp_p99_us)
    stats.Sc_sim.Engine.sv_protocols;
  Printf.printf "digest: %s (%.1fs elapsed, %d open spans)\n"
    stats.Sc_sim.Engine.sv_digest stats.Sc_sim.Engine.sv_elapsed_s open_spans;
  let identity_failed =
    if not identity_check then false
    else begin
      let saved = Sc_parallel.domain_count () in
      let other = if saved = 1 then 4 else 1 in
      Sc_parallel.set_domain_count other;
      let stats' = run_once () in
      Sc_parallel.set_domain_count saved;
      let agree =
        stats'.Sc_sim.Engine.sv_digest = stats.Sc_sim.Engine.sv_digest
        && stats'.Sc_sim.Engine.sv_ledger = stats.Sc_sim.Engine.sv_ledger
      in
      if agree then
        Printf.printf
          "identity check: digests and ledgers agree at %d and %d domains\n"
          saved other
      else
        Printf.eprintf
          "identity check FAILED: %d domains -> %s, %d domains -> %s\n" saved
          stats.Sc_sim.Engine.sv_digest other stats'.Sc_sim.Engine.sv_digest;
      not agree
    end
  in
  let slos =
    match slo with
    | None -> None
    | Some path ->
      let ic = open_in path in
      let content = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (match Sc_sim.Engine.check_service_slos cfg stats content with
      | Ok slos ->
        List.iter
          (fun (c : Sc_telemetry.Slo.check) ->
            Printf.printf "  slo %-40s actual %12.1f  %s\n" c.expr c.actual
              (if c.pass then "ok" else "FAIL"))
          slos;
        Some slos
      | Error msg ->
        Printf.eprintf "SLO file %s rejected:\n%s\n" path msg;
        exit 2)
  in
  (match out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Sc_sim.Engine.service_stats_json ?slos cfg stats);
    output_char oc '\n';
    close_out oc;
    Printf.printf "report written to %s\n" path);
  if open_spans > 0 then begin
    Printf.eprintf "%d spans leaked open\n" open_spans;
    exit 1
  end;
  if identity_failed then exit 1;
  match slos with
  | Some slos when not (Sc_telemetry.Slo.all_pass slos) ->
    prerr_endline "SLO violations detected";
    exit 1
  | _ -> ()

(* `serve`: a line-oriented interactive front end over the sharded
   service — every command is submitted through the real queue /
   backpressure / drain path. *)
let serve (preset, params) seed shards queue_cap quantum =
  let module Service = Sc_service.Service in
  let svc =
    Service.create
      ~config:
        {
          Service.default_config with
          Service.shards;
          queue_capacity = queue_cap;
          drain_quantum = quantum;
        }
      ~params ~seed ()
  in
  let response_line = function
    | Service.Admitted { shard } -> Printf.sprintf "admitted shard=%d" shard
    | Service.Info { known; files } ->
      Printf.sprintf "info known=%b files=%d" known files
    | Service.Stored ok -> Printf.sprintf "stored ok=%b" ok
    | Service.Store_failed e ->
      "store failed: " ^ Seccloud.Transport.error_to_string e
    | Service.Audited { report; _ } ->
      Printf.sprintf "audited intact=%b (%d/%d blocks valid)"
        report.Seccloud.Agency.intact report.Seccloud.Agency.valid_blocks
        report.Seccloud.Agency.sampled
    | Service.Computed { verdict; _ } ->
      Printf.sprintf "computed valid=%b (%d failures)"
        verdict.Sc_audit.Protocol.valid
        (List.length verdict.Sc_audit.Protocol.failures)
    | Service.Compute_failed e ->
      "compute failed: " ^ Seccloud.Transport.error_to_string e
    | Service.Corrupted -> "corrupted (injected storage rot)"
    | Service.Mutated { applied; blocks; intact; diverged } ->
      Printf.sprintf "mutated ops=%d blocks=%d intact=%b diverged=%b" applied
        blocks intact diverged
    | Service.Denied Service.Unknown_tenant -> "denied: unknown tenant"
    | Service.Denied Service.Unknown_file -> "denied: unknown file"
    | Service.Denied Service.Empty_upload -> "denied: empty upload"
  in
  let submit tenant request =
    (match Service.submit svc ~tenant request with
    | Ok () -> ()
    | Error e -> Format.printf "%a@." Service.pp_error e);
    List.iter
      (fun (tenant, _, response) ->
        Printf.printf "%s: %s\n" tenant (response_line response))
      (Service.drain svc)
  in
  let payloads_of blocks ints drbg =
    List.init blocks (fun _ ->
        Sc_storage.Block.encode_ints
          (List.init ints (fun _ -> Sc_hash.Drbg.uniform_int drbg 1000)))
  in
  let drbg = Sc_hash.Drbg.create ~seed:("serve-data:" ^ seed) in
  Printf.printf
    "seccloud service on %d shards (params=%s). Commands: admit T | lookup T \
     | store T FILE [BLOCKS [INTS]] | corrupt T FILE | mutate T FILE [OPS] \
     | audit T FILE [SAMPLES] | compute T FILE [TASKS [SAMPLES]] | stats | \
     quit\n"
    shards preset;
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> ()
    | line -> (
      let words =
        String.split_on_char ' ' (String.trim line)
        |> List.filter (fun w -> w <> "")
      in
      let int_at default = function
        | Some w -> ( match int_of_string_opt w with Some v -> v | None -> default)
        | None -> default
      in
      let arg n = List.nth_opt words n in
      match words with
      | [] -> loop ()
      | "quit" :: _ | "exit" :: _ -> ()
      | "stats" :: _ ->
        let l = Service.ledger svc in
        Printf.printf
          "processed=%d admitted=%d stores=%d audits=%d computes=%d \
           rejected=%d denials=%d queue_peak=%d\ndigest=%s\n"
          l.Service.processed l.Service.admitted l.Service.stores
          l.Service.audits l.Service.computes l.Service.rejected
          l.Service.denials l.Service.queue_peak (Service.digest svc);
        loop ()
      | "admit" :: t :: _ ->
        submit t Service.Admit;
        loop ()
      | "lookup" :: t :: _ ->
        submit t Service.Lookup;
        loop ()
      | "store" :: t :: file :: _ ->
        submit t
          (Service.Store
             {
               file;
               payloads = payloads_of (int_at 4 (arg 3)) (int_at 8 (arg 4)) drbg;
             });
        loop ()
      | "corrupt" :: t :: file :: _ ->
        submit t (Service.Corrupt { file });
        loop ()
      | "mutate" :: t :: file :: _ ->
        submit t (Service.Mutate { file; ops = int_at 6 (arg 3) });
        loop ()
      | "audit" :: t :: file :: _ ->
        submit t (Service.Audit_storage { file; samples = int_at 4 (arg 3) });
        loop ()
      | "compute" :: t :: file :: _ ->
        submit t
          (Service.Compute
             {
               file;
               n_tasks = int_at 4 (arg 3);
               samples = int_at 4 (arg 4);
             });
        loop ()
      | cmd :: _ ->
        Printf.printf "unknown command %S\n" cmd;
        loop ())
  in
  loop ()

(* `trace analyze`: offline reconstruction of the JSONL span trace
   written by `simulate --trace` / `stats --trace`, with an optional
   declarative SLO gate (exit 1 on violation). *)
let trace_analyze file slo out =
  let module A = Sc_telemetry.Trace_analysis in
  let spans, skipped = A.load file in
  let report = A.analyze ~skipped_lines:skipped spans in
  let slos =
    match slo with
    | None -> None
    | Some path ->
      let ic = open_in path in
      let content = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (match A.check_slos report spans content with
      | Ok slos -> Some slos
      | Error msg ->
        Printf.eprintf "SLO file %s rejected:\n%s\n" path msg;
        exit 2)
  in
  A.print_report stdout ?slos report;
  (match out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (A.report_json ?slos report);
    output_char oc '\n';
    close_out oc;
    Printf.printf "\nreport written to %s\n" path);
  match slos with
  | Some slos when not (Sc_telemetry.Slo.all_pass slos) ->
    prerr_endline "SLO violations detected";
    exit 1
  | Some _ | None -> ()

(* The cost table behind `stats`, this implementation's Table II: one
   row per operation, holding its name, [columns] read before and
   after it, the paper's prediction and, where `--check` gates it, the
   invariant's name, measured value and bound.  A row without counters
   is a check spanning several operations or the whole registry. *)
let columns =
  [|
    "pairing.count", "pairing";
    "pairing.lines", "lines";
    "hash.sha256.digests", "sha256";
    "wire.tx.bytes", "wire B";
    "pairing.gt_member", "gt_memb";
    "pairing.gt_multi_exp_terms", "gt_mexp";
    "curve.msm.terms", "msm";
    "pairing.gt_pow", "gt_pow";
    "pairing.gt_comb_exp", "comb_exp";
    "curve.mul.wnaf", "wnaf";
    "curve.inv", "inv";
  |]

type row = {
  section : string;
  op : string;
  counts : (int array * int array) option;
      (* [columns], then minor words, before and after *)
  paper : string;
  bound : (string * int * int) option; (* invariant, measured, bound *)
}

let sections = [ "verifier side"; "signer side"; "verifier side, batched" ]

let check name measured bound =
  {
    section = "";
    op = name;
    counts = None;
    paper = "";
    bound = Some (name, measured, bound);
  }

(* The instrumented workload behind `stats`: one pass over Protocols
   I-III plus a batched two-job audit, with the audits' exchanges
   charged through the wire codec, so the registry ends up holding
   what a deployment of this size costs.  A final round runs the same
   conversation through the fault-injectable transport (rates from
   --drop/--tamper), so the registry also shows the retry/blame
   counters.  Returns the cost table in workload order and a
   transport-phase summary line. *)
let stats_workload (_, params) seed ~drop ~tamper =
  Telemetry.reset ();
  Telemetry.with_span ~name:"stats.workload" @@ fun () ->
  let rows = ref [] in
  (* Runs [f] as one row; [gate] bounds its pairings (column 0) and
     each of [count_gates = [(counter, invariant, bound); …]], in a
     check row of its own, the column of one other counter. *)
  let measure section ?gate ?(count_gates = []) op paper f =
    (* Minor words are counted per domain: this one's, which is all of
       them when SECCLOUD_DOMAINS=1.  Unlike the counter columns they do
       not repeat: between runs of one binary a row moves by up to ~8
       words, so no gate reads them. *)
    let snapshot () =
      let words = Gc.minor_words () in
      Array.append
        (Array.map (fun (c, _) -> Telemetry.counter_value c) columns)
        [| int_of_float words |]
    in
    let before = snapshot () in
    let result = f () in
    let after = snapshot () in
    let delta i = after.(i) - before.(i) in
    let bound = Option.map (fun (name, b) -> name, delta 0, b) gate in
    rows := { section; op; counts = Some (before, after); paper; bound }
            :: !rows;
    List.iter
      (fun (counter, name, b) ->
        let i = Option.get (Array.find_index (fun (c, _) -> c = counter) columns) in
        rows := check name (delta i) b :: !rows)
      count_gates;
    result
  in
  let verifier ?gate ?count_gates op =
    measure "verifier side" ?gate ?count_gates op
  in
  let signer ?gate ?count_gates op = measure "signer side" ?gate ?count_gates op in
  (* A count gate on [curve.inv], for rows whose inversions follow from
     their structure: one per normalized point or batch of points, three
     per MSM (its two table batches and its result). *)
  let inversions what b = "curve.inv", what ^ " inversions", b in
  let system =
    Seccloud.System.create ~params ~seed ~cs_ids:[ "cs-1"; "cs-2" ]
      ~da_id:"da" ()
  in
  let pub = Seccloud.System.public system in
  let da_key = Seccloud.System.da_key system in
  let user = Seccloud.User.create system ~id:"alice" in
  let key = Seccloud.System.register_user system "alice" in
  let cloud = Seccloud.Cloud.create system ~id:"cs-1" () in
  let cloud2 = Seccloud.Cloud.create system ~id:"cs-2" () in
  let da = Seccloud.Agency.create system in
  let drbg = Sc_hash.Drbg.create ~seed:("stats-data:" ^ seed) in
  let bs = Sc_hash.Drbg.bytes_source drbg in
  (* Rows that only price an operation sign from a stream of their
     own, so the rest of the workload draws the same data without
     them. *)
  let cost_bs =
    Sc_hash.Drbg.bytes_source
      (Sc_hash.Drbg.create ~seed:("stats-costs:" ^ seed))
  in
  let payloads =
    List.init 16 (fun i ->
        Sc_storage.Block.encode_ints
          (List.init 8 (fun j -> i + j + Sc_hash.Drbg.uniform_int drbg 50)))
  in
  let n = List.length payloads and t = 8 and samples = 4 in
  (* Protocol II: signed upload, charged over the wire.  The server
     folds every block's designated signature into one small-exponent
     batch (Agg.verify_batch): one pairing against a GT membership
     test, a short multi-exponentiation term and a
     multi-scalar-multiplication term per block. *)
  let upload =
    Seccloud.User.sign_file user ~cs_id:"cs-1" ~file:"ledger" payloads
  in
  ignore (Seccloud.Wire.encode pub (Seccloud.Wire.Upload upload));
  measure "verifier side, batched"
    ~gate:("upload verification pairings per upload", 1)
    ~count_gates:[ inversions "upload verification (1 MSM)" 3 ]
    (Printf.sprintf "Cloud.accept_upload (%d blocks)" n)
    "n pairings (1 per block)"
    (fun () -> assert (Seccloud.Cloud.accept_upload cloud upload));
  (* Protocol I: one IBS verification. *)
  let probe_key = Seccloud.System.register_user system "probe" in
  let s = Sc_ibc.Ibs.sign pub probe_key ~bytes_source:bs "probe-msg" in
  let probe () =
    assert (Sc_ibc.Ibs.verify pub ~signer:"probe" ~msg:"probe-msg" s)
  in
  (* Of the signature points only V is subgroup-checked (one wNAF
     multiplication each): torsion on U cannot change a verdict. *)
  verifier ~gate:("Ibs.verify pairings per signature", 1)
    ~count_gates:
      [
        "curve.mul.wnaf", "Ibs.verify subgroup multiplications per signature", 1;
        inversions "Ibs.verify (W)" 1;
      ]
    "Ibs.verify (1 sig)" "2 pairings" probe;
  (* That verification warmed every fixed-base table it needs (Miller
     lines for P and P_pub, comb for the signer's Q_ID), so verifying
     again must be all cache hits: 0 precomputation misses. *)
  let m0 = Telemetry.counter_value "pairing.precomp.miss" in
  probe ();
  let warm_misses =
    check "Ibs.verify precomputation misses after warm-up"
      (Telemetry.counter_value "pairing.precomp.miss" - m0)
      0
  in
  let batch =
    List.init t (fun i ->
        let m = Printf.sprintf "m-%d" i in
        "alice", m, Sc_ibc.Ibs.sign pub key ~bytes_source:cost_bs m)
  in
  verifier
    ~count_gates:
      [
        ( "curve.mul.wnaf",
          Printf.sprintf "Ibs.verify_batch (t=%d) subgroup multiplications" t,
          t );
        inversions (Printf.sprintf "Ibs.verify_batch (t=%d, 2 MSMs)" t) 6;
      ]
    (Printf.sprintf "Ibs.verify_batch (t=%d)" t) "2t pairings"
    (fun () -> assert (Sc_ibc.Ibs.verify_batch pub batch));
  (* One pairing from a cached line table (the generator's, warm since
     Ibs.verify): the replay multiplies in a tangent per NAF digit of q
     below the top one and a chord per non-zero digit but the top one
     and the last, whose chord is vertical. *)
  let prm = pub.Sc_ibc.Setup.prm in
  let naf = Sc_bignum.Nat.wnaf ~width:2 prm.q in
  let weight = Array.fold_left (fun w d -> w + Bool.to_int (d <> 0)) 0 naf in
  verifier
    ~count_gates:
      [ ( "pairing.lines",
          "replayed lines per cached pairing",
          Array.length naf - 1 + weight - 2 ) ]
    "Tate.pairing_precomp (1 cached table)" "1 pairing"
    (fun () ->
      ignore (Tate.pairing_precomp prm prm.g (Tate.precomp_for prm prm.g)));
  (* Table II "Ours": designated-verifier individual vs aggregate. *)
  let dvs_entries =
    List.init t (fun i ->
        let msg = Printf.sprintf "dvs-%d" i in
        let raw = Sc_ibc.Ibs.sign pub key ~bytes_source:cost_bs msg in
        {
          Sc_ibc.Agg.signer = "alice";
          msg;
          dvs = Sc_ibc.Dvs.designate pub raw ~verifier:"da";
        })
  in
  verifier
    ~count_gates:
      [ inversions (Printf.sprintf "Dvs.verify x%d (1 per W)" t) t ]
    (Printf.sprintf "Dvs.verify x%d (individual)" t) "2n pairings"
    (fun () ->
      List.iter
        (fun (e : Sc_ibc.Agg.entry) ->
          assert
            (Sc_ibc.Dvs.verify pub ~verifier_key:da_key
               ~q_id:(Sc_ibc.Setup.q_of_id pub e.signer) ~msg:e.msg e.dvs))
        dvs_entries);
  verifier
    ~count_gates:[ inversions (Printf.sprintf "Agg.verify_batch (n=%d, 1 MSM)" t) 3 ]
    (Printf.sprintf "Agg.verify_batch (n=%d)" t) "2 pairings"
    (fun () ->
      assert (Sc_ibc.Agg.verify_batch pub ~verifier_key:da_key dvs_entries));
  (* A lone fresh entry (a one-sample audit, or the one entry beside a
     suspect server's) costs what Dvs.verify does: a batch of one would
     add a GT membership test, an MSM and its inversions. *)
  let lone = "Agg.verify_each (1 fresh entry)" in
  verifier ~gate:(lone ^ " pairings", 1)
    ~count_gates:
      [
        "pairing.gt_member", lone ^ " GT membership tests", 0;
        "curve.msm.terms", lone ^ " MSM terms", 0;
        inversions lone 1;
      ]
    lone "2 pairings"
    (fun () ->
      assert (
        Sc_ibc.Agg.verify_each pub ~verifier_key:da_key
          [ Some (None, List.hd dvs_entries) ]
        = [ Some true ]));
  (* A new owner's first signature, or the first verification of it,
     builds the comb for its Q_ID (DESIGN §4h): one batch inversion
     normalizes the window bases 16^w·Q_ID, one their multiples.  The
     identity is hashed before the row, so the row is the build alone. *)
  let fresh_q_id = Sc_ibc.Setup.q_of_id pub "comb-probe" in
  signer
    ~count_gates:[ inversions "Params.precomp_for (1 new identity)" 2 ]
    "Params.precomp_for (1 new identity)" "-"
    (fun () -> ignore (Sc_pairing.Params.precomp_for prm fresh_q_id));
  (* Signer side: Σ_B = ê(sk_ID, Q_B)^(r+h) by bilinearity, so signing
     pays two pairings per owner and server (the bases, each kept as a
     fixed-base GT comb) and two comb exponentiations per block, where
     the paper pairs V_i with Q_CS and Q_DA per block. *)
  signer
    ~count_gates:[ inversions "Signer.sign_file (every U_i at once)" 1 ]
    (Printf.sprintf "Signer.sign_file (%d blocks)" n) "2n pairings"
    (fun () ->
      ignore
        (Sc_storage.Signer.sign_file pub key ~bytes_source:cost_bs
           ~bases:(Sc_storage.Signer.bases pub key ~cs_id:"cs-1" ~da_id:"da")
           ~file:"signed" payloads));
  let client, server =
    Sc_storage.Dynamic.init pub key ~bytes_source:cost_bs ~cs_id:"cs-1"
      ~da_id:"da" ~file:"dyn" payloads
  in
  signer ~count_gates:[ inversions "Dynamic update (U)" 1 ]
    "Dynamic update (1 block)" "2 pairings (re-sign 1 block)"
    (fun () ->
      assert (Sc_storage.Dynamic.update client server ~index:3 "rewritten"
              = Ok ()));
  (* Storage audits, charged over the wire: each row is
     Agency.audit_storage with the challenge and response for the
     blocks it samples encoded in between.  Every identity from here on
     was hashed above, so none is hashed again. *)
  let h0 = Telemetry.counter_value "pairing.id_hash" in
  let storage_audit ?gate samples =
    verifier ?gate (Printf.sprintf "storage audit (t=%d)" samples)
      "2t pairings naive; 1 aggregate eq. here" (fun () ->
        let reads =
          Option.get
            (Seccloud.Agency.read_samples da cloud ~file:"ledger" ~samples)
        in
        ignore
          (Seccloud.Wire.encode pub
             (Seccloud.Wire.Storage_challenge
                { file = "ledger"; indices = List.map fst reads }));
        ignore
          (Seccloud.Wire.encode pub (Seccloud.Wire.Storage_response reads));
        let report =
          Seccloud.Agency.check_blocks system ~server:"cs-1" ~owner:"alice"
            reads
        in
        assert report.Seccloud.Agency.intact)
  in
  storage_audit samples;
  storage_audit ~gate:("honest t=8 storage audit pairings", 1) t;
  (* A caught server: t = 8 storage audits of cs-1 serving k bad
     blocks, by one DA that keeps its suspect set.  An audit with a bad
     block pays the batch and the blame (1 + t pairings).  A server
     whose every block was bad is suspect: its next audit checks its
     entries one by one (t pairings, no batch), and so does the audit
     that finds them all good and clears it; the audit after that is
     back on the batch.  A server with a good block among its bad ones
     stays on the batch (DESIGN §4q). *)
  let ledger_reads =
    List.init t (fun i ->
        i, Sc_storage.Server.read (Seccloud.Cloud.storage cloud) ~file:"ledger"
             ~index:i)
  in
  let corrupt (r : Sc_storage.Server.read_result) =
    { r with
      claimed =
        { r.claimed with
          Sc_storage.Block.data = r.claimed.Sc_storage.Block.data ^ "!" } }
  in
  let corrupted k =
    List.map
      (fun (i, read) -> i, if i >= k then read else Option.map corrupt read)
      ledger_reads
  in
  let batches () = Telemetry.counter_value "agg.verify_batch" in
  List.iter
    (fun k ->
      let suspects = Sc_ibc.Digest_set.create () in
      let audit ?no_batch what bad pairings =
        let b0 = batches () in
        let name = Printf.sprintf "caught k=%d/%d, storage audit: %s" k t what in
        verifier
          ~gate:(Printf.sprintf "%s pairings" name, pairings)
          name "2t pairings naive" (fun () ->
            let report =
              Seccloud.Agency.check_blocks ~suspects system ~server:"cs-1"
                ~owner:"alice" (corrupted bad)
            in
            assert (report.Seccloud.Agency.invalid_indices = List.init bad Fun.id));
        if no_batch = Some () then
          rows := check (name ^ " batches") (batches () - b0) 0 :: !rows
      in
      audit "fresh DA" k (if k = 0 then 1 else 1 + t);
      if k = 0 then audit "repeat" k 1
      else if k < t then begin
        audit "repeat" k (1 + t);
        audit "then honest" 0 1
      end
      else begin
        audit ~no_batch:() "repeat" k t;
        audit ~no_batch:() "honest, clears" 0 t;
        audit "honest again" 0 1
      end)
    [ 0; 1; 2; t ];
  (* A partial cheater, the paper's model (§III-B): each sampled read
     comes back corrupted with probability f, independently.  The same
     audits of t of the ledger's n blocks are checked by a DA that
     keeps its suspect set and by one that keeps none (the batch every
     time); on the sum the set must cost no more pairings. *)
  let partial_audits = 16 in
  List.iter
    (fun percent ->
      let drbg =
        Sc_hash.Drbg.create ~seed:(Printf.sprintf "stats-partial-%d" percent)
      in
      let audits =
        List.init partial_audits (fun _ ->
            List.map
              (fun i ->
                let read =
                  Sc_storage.Server.read (Seccloud.Cloud.storage cloud)
                    ~file:"ledger" ~index:i
                in
                ( i,
                  if Sc_hash.Drbg.uniform_int drbg 100 < percent then
                    Option.map corrupt read
                  else read ))
              (Array.to_list (Sc_hash.Drbg.sample_prefix drbg ~n ~k:t)))
      in
      let run what ?suspects () =
        let p0 = Sc_pairing.Tate.pairings_performed () in
        let invalid = ref [] in
        verifier
          (Printf.sprintf "%d storage audits (t=%d), %d%% bad reads: %s"
             partial_audits t percent what)
          "1 + t per audit with a bad read" (fun () ->
            invalid :=
              List.map
                (fun reads ->
                  (Seccloud.Agency.check_blocks ?suspects system
                     ~server:"cs-1" ~owner:"alice" reads)
                    .Seccloud.Agency.invalid_indices)
                audits);
        !invalid, Sc_pairing.Tate.pairings_performed () - p0
      in
      let plain, plain_pairings = run "batch only" () in
      let kept, kept_pairings =
        run "suspect set" ~suspects:(Sc_ibc.Digest_set.create ()) ()
      in
      assert (kept = plain);
      rows :=
        check
          (Printf.sprintf
             "%d%% bad reads: pairings with the suspect set (<= batch only)"
             percent)
          kept_pairings plain_pairings
        :: !rows)
    [ 10; 50; 100 ];
  (* Protocol III + Algorithm 1 audit round. *)
  let warrant =
    Seccloud.User.delegate_audit user ~now:0.0 ~lifetime:3600.0
      ~scope:"audit ledger"
  in
  let audit_round cloud file =
    let service =
      Sc_compute.Task.random_service ~drbg ~n_positions:16 ~n_tasks:8
    in
    let execution = Seccloud.Cloud.execute cloud ~owner:"alice" ~file service in
    let commitment = Sc_audit.Protocol.commitment_of_execution execution in
    let challenge =
      Sc_audit.Protocol.make_challenge ~drbg
        ~n_tasks:commitment.Sc_audit.Protocol.n_tasks ~samples ~warrant
    in
    match Sc_audit.Protocol.respond pub ~now:1.0 execution challenge with
    | None -> invalid_arg "stats: warrant rejected"
    | Some responses ->
      ( execution,
        { Sc_audit.Protocol.owner = "alice"; commitment; challenge; responses } )
  in
  (* alice uploaded "ledger" to cs-1 above, so this upload reuses her
     designation bases for cs-1. *)
  let upload =
    signer ~gate:("signer pairings for a returning owner's upload", 0)
      ~count_gates:[ inversions "returning owner's User.sign_file" 1 ]
      (Printf.sprintf "User.sign_file, returning owner (%d blocks)" n)
      "2n pairings"
      (fun () ->
        Seccloud.User.sign_file user ~cs_id:"cs-1" ~file:"ledger" payloads)
  in
  assert (Seccloud.Cloud.accept_upload cloud upload);
  let execution, job = audit_round cloud "ledger" in
  (* The root signature alone costs one inversion (its W), as in
     Ibs.verify, and the designated batch three (one MSM); a lone root
     going through Ibs.verify_batch would cost six. *)
  verifier ~gate:("honest Algorithm 1 round pairings (batch + root)", 2)
    ~count_gates:[ inversions "Algorithm 1 round (root W + 1 MSM)" 4 ]
    (Printf.sprintf "computation audit, Algorithm 1 (t=%d)" samples)
    "t+1 pairings (root sig + t sampled sigs)" (fun () ->
      let { Sc_audit.Protocol.commitment; challenge; responses; _ } = job in
      let results = Sc_compute.Executor.results execution in
      List.iter
        (fun m -> ignore (Seccloud.Wire.encode pub m))
        [
          Seccloud.Wire.Compute_commitment { results; commitment };
          Seccloud.Wire.Audit_challenge
            { owner = "alice"; file = "ledger"; challenge };
          Seccloud.Wire.Audit_response responses;
        ];
      let verdict =
        Sc_audit.Protocol.verify pub ~verifier_key:da_key ~role:`Da [ job ]
      in
      assert verdict.Sc_audit.Protocol.valid);
  let warm_id_hashes = Telemetry.counter_value "pairing.id_hash" - h0 in
  (* Batched audit: two jobs, one round of aggregate equations. *)
  assert (Seccloud.User.store user cloud2 ~file:"ledger-2" payloads);
  let jobs = [ job; snd (audit_round cloud2 "ledger-2") ] in
  let k = List.length jobs in
  verifier
    ~gate:
      (Printf.sprintf "batched audit pairings for k=%d jobs (<= k+1)" k, k + 1)
    ~count_gates:
      [ inversions (Printf.sprintf "batched audit, k=%d (3 MSMs)" k) 9 ]
    (Printf.sprintf "batched audit, k=%d jobs" k)
    "<= k+1 pairings (2 aggregate eqs. here)"
    (fun () ->
      let verdict =
        Sc_audit.Protocol.verify pub ~verifier_key:da_key ~role:`Da jobs
      in
      assert verdict.Sc_audit.Protocol.valid);
  (* The same conversation once more, this time as encoded Wire bytes
     through the fault-injectable transport against a server
     endpoint. *)
  let server_ep = Seccloud.Endpoint.Server.create system cloud in
  let da_ep = Seccloud.Endpoint.Da.create system in
  (* Pairings spent inside the server's handler, so that a round's
     cost splits into the server's share and the DA's. *)
  let server_pairings = ref 0 in
  let transport =
    Seccloud.Transport.create
      ~faults:(Seccloud.Transport.lossy ~drop ~tamper ())
      ~drbg:(Sc_hash.Drbg.create ~seed:("stats-transport:" ^ seed))
      ~peer:"cs-1" ~public:pub
      ~handler:(fun ~now data ->
        let p0 = Tate.pairings_performed () in
        let reply = Seccloud.Endpoint.Server.handle server_ep ~now data in
        server_pairings := !server_pairings + Tate.pairings_performed () - p0;
        reply)
      ()
  in
  let uploaded =
    Seccloud.User.store_over user ~transport ~cs_id:"cs-1" ~file:"wire-ledger"
      payloads
  in
  let wire_commitment =
    match uploaded with
    | Error e -> Error e
    | Ok _ -> (
      let service =
        Sc_compute.Task.random_service ~drbg ~n_positions:16 ~n_tasks:8
      in
      match
        Seccloud.Transport.call transport ~expect:"compute_commitment"
          (Seccloud.Wire.Compute_request
             { owner = "alice"; file = "wire-ledger"; service })
      with
      | Ok (Seccloud.Wire.Compute_commitment { commitment; _ }) ->
        Ok commitment
      | Ok _ -> Error Seccloud.Transport.Timeout
      | Error e -> Error e)
  in
  let wire_report =
    Seccloud.Endpoint.Da.audit_storage_over_wire da_ep ~transport
      ~owner:"alice" ~file:"wire-ledger" ~indices:(List.init 8 Fun.id)
  in
  let audit_over_wire commitment =
    Seccloud.Endpoint.Da.audit_computation_over_wire da_ep ~transport
      ~owner:"alice" ~file:"wire-ledger" ~commitment ~warrant
      ~now:(Seccloud.Transport.now transport)
      ~samples
  in
  let wire_verdict =
    match wire_commitment with
    | Error e ->
      {
        Sc_audit.Protocol.valid = false;
        failures =
          [
            (match e with
            | Seccloud.Transport.Timeout ->
              Sc_audit.Protocol.Transport_timeout "cs-1"
            | Seccloud.Transport.Tampered ->
              Sc_audit.Protocol.Transport_tampered "cs-1");
          ];
      }
    | Ok commitment -> audit_over_wire commitment
  in
  let perfect = drop = 0.0 && tamper = 0.0 in
  (* The same audit again, same warrant and commitment: the server's
     warrant memo and the DA's root memo answer both signatures.  What
     the DA pays beyond its designated batches (one pairing each when
     honest) is the root signature's cost.  On a lossy channel the
     first round may never have reached the server, or reached it
     mangled: a miss there is correct, so only a perfect channel gates
     the repeat. *)
  let repeat_checks =
    match wire_commitment with
    | Error _ -> []
    | Ok commitment ->
      server_pairings := 0;
      let p0 = Tate.pairings_performed () in
      let b0 = Telemetry.counter_value "agg.verify_batch" in
      let verdict = audit_over_wire commitment in
      let da_pairings = Tate.pairings_performed () - p0 - !server_pairings in
      let da_batches = Telemetry.counter_value "agg.verify_batch" - b0 in
      if not perfect then []
      else begin
        assert verdict.Sc_audit.Protocol.valid;
        [
          check "repeated warrant: server pairings" !server_pairings 0;
          check "re-audited commitment: DA root-signature pairings"
            (da_pairings - da_batches) 0;
        ]
      end
  in
  if perfect then begin
    (* On a perfect channel the over-the-wire round must agree with
       the direct one. *)
    assert (uploaded = Ok true);
    assert wire_report.Seccloud.Agency.intact;
    assert wire_verdict.Sc_audit.Protocol.valid
  end;
  let wire_summary =
    Printf.sprintf
      "over-the-wire round (drop=%.2f tamper=%.2f): upload=%s \
       storage_intact=%b computation_valid=%b retries=%d"
      drop tamper
      (match uploaded with
      | Ok ok -> string_of_bool ok
      | Error e -> Seccloud.Transport.error_to_string e)
      wire_report.Seccloud.Agency.intact wire_verdict.Sc_audit.Protocol.valid
      (Telemetry.counter_value "transport.retry")
  in
  ( List.rev_append !rows
      (warm_misses
      :: check "identity hashes after warm-up" warm_id_hashes 0
      :: repeat_checks),
    wire_summary )

(* Checks on the registry as the workload left it, spans closed. *)
let registry_checks ~perfect =
  let v = Telemetry.counter_value in
  let retries = v "transport.retry" in
  [
    check "pairing count matches single+multi breakdown"
      (abs (v "pairing.count" - (v "pairing.single" + v "pairing.multi")))
      0;
    check "transport attempts reconcile with rpc + retry"
      (abs (v "transport.attempts" - (v "transport.rpc" + retries)))
      0;
    check "no spans leaked open after the workload" (Telemetry.open_spans ()) 0;
    (if perfect then check "no retries on a perfect channel" retries 0
     else
       check "lossy channel exercised the retry path"
         (if retries > 0 then 0 else 1)
         0);
  ]

(* Rows grouped by [sections] in workload order, registry checks
   last: the order of the printed table and of the invariants. *)
let table_order rows =
  List.concat_map
    (fun s -> List.filter (fun r -> r.section = s) rows)
    (sections @ [ "" ])

let print_table rows =
  let header s = "operation (" ^ s ^ ")" in
  let width =
    List.fold_left
      (fun w r ->
        if r.counts = None then w
        else max w (max (String.length r.op) (String.length (header r.section))))
      0 rows
  in
  ignore
    (List.fold_left
       (fun section r ->
         match r.counts with
         | None -> section
         | Some (before, after) ->
           if r.section <> section then begin
             Printf.printf "\n%-*s" width (header r.section);
             Array.iter (fun (_, label) -> Printf.printf " %8s" label) columns;
             Printf.printf " %10s %6s   %s\n" "words" "bound" "paper prediction"
           end;
           Printf.printf "%-*s" width r.op;
           Array.iteri
             (fun i b ->
               Printf.printf
                 (if i < Array.length columns then " %8d" else " %10d")
                 (after.(i) - b))
             before;
           Printf.printf " %6s   %s\n"
             (match r.bound with
             | Some (_, _, b) -> Printf.sprintf "<= %d" b
             | None -> "")
             r.paper;
           r.section)
       "" rows);
  Printf.printf
    "\n(the multi-pairing rewrite folds the paper's 2-pairing equations into \
     one\n shared-Miller evaluation, so measured counts undercut the \
     predictions)\n"

let stats verbose ((name, _) as preset) seed drop tamper trace openmetrics
    check =
  setup_logging verbose;
  let run () = stats_workload preset seed ~drop ~tamper in
  let rows, wire_summary =
    match trace with
    | Some path -> Telemetry.with_trace_file path run
    | None -> run ()
  in
  let rows =
    table_order
      (rows @ registry_checks ~perfect:(drop = 0.0 && tamper = 0.0))
  in
  Printf.printf
    "Telemetry after one instrumented workload (params=%s): Protocols I-III, \
     a batched storage audit and a 2-job batched computation audit.\n\n"
    name;
  Printf.printf "%s\n\n" wire_summary;
  Telemetry.print_tree stdout;
  Printf.printf "\nMeasured Table II (params=%s): counter deltas per operation\n"
    name;
  print_table rows;
  (match trace with
  | Some path -> Printf.printf "\nspan trace (JSONL) written to %s\n" path
  | None -> ());
  (match openmetrics with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Sc_telemetry.Openmetrics.render ());
    close_out oc;
    Printf.printf "\nOpenMetrics exposition written to %s\n" path);
  if check then begin
    Printf.printf "\ncost invariants:\n";
    let failures =
      List.fold_left
        (fun failures r ->
          match r.bound with
          | None -> failures
          | Some (name, measured, bound) ->
            let ok = measured <= bound in
            Printf.printf "  %-52s %d (bound %d) %s\n" name measured bound
              (if ok then "ok" else "FAIL");
            if ok then failures
            else begin
              Printf.eprintf "cost invariant regressed: %s: %d (bound %d)\n"
                name measured bound;
              failures + 1
            end)
        0 rows
    in
    if failures > 0 then begin
      Printf.printf "%d invariant(s) regressed\n" failures;
      exit 1
    end
    else Printf.printf "all invariants hold\n"
  end

(* A preset is its name and its parameters; names differ, so
   [Arg.enum] compares two presets by name alone. *)
let preset_arg =
  let presets =
    List.map
      (fun ((name, _) as preset) -> name, preset)
      Sc_pairing.Params.presets
  in
  Arg.(
    value
    & opt (enum presets) (List.assoc "toy" presets)
    & info [ "params"; "preset" ] ~doc:"Parameter preset: toy, small or mid.")

let seed_arg =
  Arg.(value & opt string "cli" & info [ "seed" ] ~doc:"Deterministic seed.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Show protocol event logs.")

let demo_cmd =
  Cmd.v (Cmd.info "demo" ~doc:"End-to-end Protocols I-III walkthrough")
    Term.(const demo $ verbose_arg $ preset_arg $ seed_arg)

let samplesize_cmd =
  let csc = Arg.(value & opt float 0.5 & info [ "csc" ] ~doc:"Computing secure confidence.") in
  let ssc = Arg.(value & opt float 0.5 & info [ "ssc" ] ~doc:"Storage secure confidence.") in
  let range = Arg.(value & opt float 0.0 & info [ "range" ] ~doc:"|R| (0 = infinite).") in
  let eps = Arg.(value & opt float 1e-4 & info [ "eps" ] ~doc:"Target cheat probability.") in
  Cmd.v (Cmd.info "samplesize" ~doc:"Required audit sample size (Figure 4 math)")
    Term.(const samplesize $ csc $ ssc $ range $ eps)

let drop_arg =
  Arg.(
    value
    & opt float 0.0
    & info [ "drop" ]
        ~doc:"Per-direction message drop probability on the transport.")

let tamper_arg =
  Arg.(
    value
    & opt float 0.0
    & info [ "tamper" ]
        ~doc:"Per-direction bit-flip probability on the transport.")

let stats_cmd =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE" ~doc:"Write a JSONL span trace to $(docv).")
  in
  let openmetrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "openmetrics" ] ~docv:"FILE"
          ~doc:"Write an OpenMetrics text exposition of the registry to $(docv).")
  in
  let check =
    Arg.(
      value
      & flag
      & info [ "check" ]
          ~doc:"Enforce protocol cost invariants; exit 1 on regression.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run an instrumented demo/audit workload and print the metrics tree")
    Term.(
      const stats $ verbose_arg $ preset_arg $ seed_arg $ drop_arg
      $ tamper_arg $ trace $ openmetrics $ check)

let trace_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE" ~doc:"Write a JSONL span trace to $(docv).")

let simulate_main epochs servers byzantine users drop tamper seed trace
    service identities shards heavy corrupt queue_cap quantum lookup_stride
    audit_rounds dynamic_ops out slo identity_check =
  if service then
    simulate_service ~identities ~shards ~heavy ~corrupt ~queue_cap ~quantum
      ~lookup_stride ~audit_rounds ~dynamic_ops ~drop ~tamper ~seed ~trace
      ~out ~slo ~identity_check
  else simulate epochs servers byzantine users drop tamper seed trace

let simulate_cmd =
  let epochs = Arg.(value & opt int 5 & info [ "epochs" ] ~doc:"Epochs.") in
  let servers = Arg.(value & opt int 4 & info [ "servers" ] ~doc:"Cloud servers.") in
  let byzantine = Arg.(value & opt int 1 & info [ "byzantine" ] ~doc:"Adversary bound b.") in
  let users = Arg.(value & opt int 2 & info [ "users" ] ~doc:"Cloud users.") in
  let service =
    Arg.(
      value & flag
      & info [ "service" ]
          ~doc:
            "Run the sharded multi-tenant service soak campaign instead of \
             the epoch simulation.")
  in
  let identities =
    Arg.(
      value & opt int 20_000
      & info [ "identities" ] ~doc:"Service mode: distinct tenant identities.")
  in
  let shards =
    Arg.(value & opt int 16 & info [ "shards" ] ~doc:"Service mode: shards.")
  in
  let heavy =
    Arg.(
      value & opt int 64
      & info [ "heavy" ]
          ~doc:"Service mode: tenants doing full store/audit/compute crypto.")
  in
  let corrupt =
    Arg.(
      value & opt int 8
      & info [ "corrupt" ]
          ~doc:"Service mode: heavy tenants whose stored data rots.")
  in
  let queue_cap =
    Arg.(
      value & opt int 1024
      & info [ "queue-cap" ] ~doc:"Service mode: per-shard queue capacity.")
  in
  let quantum =
    Arg.(
      value & opt int 64
      & info [ "quantum" ]
          ~doc:"Service mode: max requests per shard per drain round.")
  in
  let lookup_stride =
    Arg.(
      value & opt int 16
      & info [ "lookup-stride" ]
          ~doc:"Service mode: every k-th identity also sends a lookup.")
  in
  let audit_rounds =
    Arg.(
      value & opt int 2
      & info [ "audit-rounds" ] ~doc:"Service mode: audit rounds.")
  in
  let dynamic_ops =
    Arg.(
      value & opt int 6
      & info [ "dynamic-ops" ]
          ~doc:
            "Service mode: dynamic mutation ops (update/append/tombstone) \
             per heavy tenant, one signed root transition per burst; 0 \
             disables the mutation wave.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Service mode: write the JSON report (BENCH_service.json).")
  in
  let slo =
    Arg.(
      value
      & opt (some file) None
      & info [ "slo" ] ~docv:"FILE"
          ~doc:"Service mode: declarative SLO gate; exit 1 on violation.")
  in
  let identity_check =
    Arg.(
      value & flag
      & info [ "identity-check" ]
          ~doc:
            "Service mode: re-run the campaign at a different domain count \
             and fail unless digests and ledgers are value-identical.")
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Run the Byzantine cloud simulation")
    Term.(
      const simulate_main $ epochs $ servers $ byzantine $ users $ drop_arg
      $ tamper_arg $ seed_arg $ trace_file_arg $ service $ identities $ shards
      $ heavy $ corrupt $ queue_cap $ quantum $ lookup_stride $ audit_rounds
      $ dynamic_ops $ out $ slo $ identity_check)

let serve_cmd =
  let shards =
    Arg.(value & opt int 4 & info [ "shards" ] ~doc:"Shard count.")
  in
  let queue_cap =
    Arg.(
      value & opt int 64
      & info [ "queue-cap" ] ~doc:"Per-shard queue capacity.")
  in
  let quantum =
    Arg.(
      value & opt int 8
      & info [ "quantum" ] ~doc:"Max requests per shard per drain round.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Interactive multi-tenant service: line commands through the real \
          shard queues")
    Term.(const serve $ preset_arg $ seed_arg $ shards $ queue_cap $ quantum)

let trace_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE" ~doc:"JSONL span trace to analyze.")
  in
  let slo =
    Arg.(
      value
      & opt (some file) None
      & info [ "slo" ] ~docv:"FILE"
          ~doc:"Declarative SLO assertions; exit 1 on violation.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the JSON report to $(docv).")
  in
  let analyze_cmd =
    Cmd.v
      (Cmd.info "analyze"
         ~doc:
           "Reconstruct trace trees; report critical paths, per-layer \
            attribution and per-protocol latency quantiles")
      Term.(const trace_analyze $ file $ slo $ out)
  in
  Cmd.group (Cmd.info "trace" ~doc:"Span-trace analysis") [ analyze_cmd ]

let () =
  let info = Cmd.info "seccloud" ~version:"1.0" ~doc:"SecCloud demo CLI" in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            demo_cmd;
            samplesize_cmd;
            simulate_cmd;
            serve_cmd;
            stats_cmd;
            trace_cmd;
          ]))
