(* Quick, machine-readable perf tracking: times the pairing hot path
   and writes BENCH_pairing.json (ns/op per benchmark) so the perf
   trajectory is comparable across commits; wired into
   `make bench-check`.  Operation counts per protocol are
   `seccloud_cli stats`, the paper's tables `repro`. *)

module Params = Sc_pairing.Params
module Tate = Sc_pairing.Tate
module Curve = Sc_ec.Curve
module Nat = Sc_bignum.Nat
module Json = Sc_telemetry.Json

let drbg = Sc_hash.Drbg.create ~seed:"bench-quick"
let bs = Sc_hash.Drbg.bytes_source drbg

let time_ns ?(iters = 100) f =
  for _ = 1 to 3 do
    ignore (f ())
  done;
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    ignore (f ())
  done;
  let t1 = Unix.gettimeofday () in
  (t1 -. t0) *. 1e9 /. float_of_int iters

(* The committed BENCH_pairing.json, read before this run overwrites
   it, so the report below can show each row's delta against the
   baseline (`make bench-check` surfaces regressions that way). *)
let baseline =
  match open_in "BENCH_pairing.json" with
  | exception Sys_error _ -> None
  | ic ->
    Json.parse
      (Fun.protect
         ~finally:(fun () -> close_in_noerr ic)
         (fun () -> really_input_string ic (in_channel_length ic)))

let baseline_of name =
  Option.bind baseline (fun v -> Json.to_float (Json.member name v))

let vs_baseline name ns =
  match baseline_of name with
  | Some old when old > 0. && ns > 0. ->
    Printf.sprintf "  (baseline %10.1f us, x%.2f)" (old /. 1e3) (old /. ns)
  | _ -> ""

let () =
  let prm = Lazy.force Params.toy in
  let prm_small = Lazy.force Params.small in
  let g = prm.Params.g and gs = prm_small.Params.g in
  let scalar_small = Params.random_scalar prm_small ~bytes_source:bs in
  let var_point =
    Curve.mul prm_small.Params.curve
      (Params.random_scalar prm_small ~bytes_source:bs)
      gs
  in
  let pc_small = Tate.precomp_for prm_small gs in
  let pairs8 =
    List.init 8 (fun _ ->
        let a = Params.random_scalar prm_small ~bytes_source:bs in
        let b = Params.random_scalar prm_small ~bytes_source:bs in
        ( Curve.mul prm_small.Params.curve a gs,
          Curve.mul prm_small.Params.curve b gs ))
  in
  let results =
    [
      "pairing(toy)", time_ns ~iters:200 (fun () -> Tate.pairing prm g g);
      ( "pairing(small)",
        time_ns ~iters:100 (fun () -> Tate.pairing prm_small gs gs) );
      ( "pairing_precomp(small)",
        time_ns ~iters:100 (fun () ->
            Tate.pairing_precomp prm_small var_point pc_small) );
      ( "multi_pairing(k=8)",
        time_ns ~iters:30 (fun () -> Tate.multi_pairing prm_small pairs8) );
      ( "point_mul",
        time_ns ~iters:200 (fun () ->
            Curve.mul prm_small.Params.curve scalar_small gs) );
      ( "point_mul_wnaf",
        time_ns ~iters:200 (fun () ->
            Curve.mul prm_small.Params.curve scalar_small var_point) );
    ]
  in
  (* The kernel under every row above: one Montgomery multiply-reduce
     (k = 5 limbs on small, 20 on mid; ns/op over an inner loop, as a
     single call is below timer resolution) and one Fermat inversion. *)
  let module Fp = Sc_field.Fp in
  let mont_mul_ns (prm : Params.t) =
    let fp = prm.Params.fp in
    let a = Fp.Mont.enter fp (Fp.random fp ~bytes_source:bs) in
    let b = Fp.Mont.enter fp (Fp.random fp ~bytes_source:bs) in
    time_ns ~iters:100 (fun () ->
        for _ = 1 to 1000 do
          ignore (Fp.Mont.mul fp a b)
        done)
    /. 1000.
  in
  let fp_small = prm_small.Params.fp in
  let x_small = Fp.random fp_small ~bytes_source:bs in
  let results =
    results
    @ [
        "fp_mont_mul(small)", mont_mul_ns prm_small;
        "fp_mont_mul(mid)", mont_mul_ns (Lazy.force Params.mid);
        "fp_inv(small)", time_ns ~iters:500 (fun () -> Fp.inv fp_small x_small);
      ]
  in
  (* The signer's GT work: one comb build per designation base, then
     one comb exponentiation per block and verifier, at a full-width
     exponent below q; gt_pow is the square-and-multiply it replaces. *)
  let gt_small = Tate.pairing prm_small gs var_point in
  let comb_small = Tate.gt_comb prm_small gt_small in
  let results =
    results
    @ [
        ( "gt_pow(small)",
          time_ns ~iters:200 (fun () -> Tate.gt_pow prm_small gt_small scalar_small) );
        ( "gt_comb_build(small)",
          time_ns ~iters:200 (fun () -> Tate.gt_comb prm_small gt_small) );
        ( "gt_comb_exp(small)",
          time_ns ~iters:500 (fun () ->
              Tate.gt_comb_exp prm_small comb_small scalar_small) );
      ]
  in
  (* The designated-verifier auditing hot path: pairings per Ibs.verify
     (the seed needed 2; the multi-pairing rewrite needs 1). *)
  let sio = Sc_ibc.Setup.create prm ~bytes_source:bs in
  let pub = Sc_ibc.Setup.public sio in
  let alice = Sc_ibc.Setup.extract sio "alice" in
  let s = Sc_ibc.Ibs.sign pub alice ~bytes_source:bs "bench" in
  let batch8 =
    List.init 8 (fun i ->
        let m = Printf.sprintf "bench-%d" i in
        "alice", m, Sc_ibc.Ibs.sign pub alice ~bytes_source:bs m)
  in
  let results =
    results
    @ [
        ( "ibs_verify(toy)",
          time_ns ~iters:50 (fun () ->
              Sc_ibc.Ibs.verify pub ~signer:"alice" ~msg:"bench" s) );
        ( "ibs_verify_batch(t=8,toy)",
          time_ns ~iters:20 (fun () -> Sc_ibc.Ibs.verify_batch pub batch8) );
      ]
  in
  (* Telemetry overhead: the metric fast paths (ns/op, measured over
     an inner loop because a single op is below timer resolution) and
     what a null-sink trace adds to a full enveloped RPC round trip. *)
  let module Telemetry = Sc_telemetry.Telemetry in
  let module Labels = Sc_telemetry.Labels in
  let c_bench = Telemetry.counter "bench.telemetry.incr" in
  let h_bench = Telemetry.histogram "bench.telemetry.observe" in
  let v_bench = Labels.counter_vec ~label:"kind" "bench.telemetry.labeled" in
  let inner = 1000 in
  let per_op ns = ns /. float_of_int inner in
  let sys_rpc =
    Seccloud.System.create ~params:Sc_pairing.Params.toy ~seed:"bench-rpc"
      ~cs_ids:[ "cs" ] ~da_id:"da" ()
  in
  let cloud_rpc = Seccloud.Cloud.create sys_rpc ~id:"cs" () in
  let server_rpc = Seccloud.Endpoint.Server.create sys_rpc cloud_rpc in
  let transport_rpc =
    Seccloud.Transport.create ~peer:"cs"
      ~public:(Seccloud.System.public sys_rpc)
      ~handler:(Seccloud.Endpoint.Server.handle server_rpc)
      ()
  in
  let rpc () =
    match
      Seccloud.Transport.call transport_rpc ~expect:"storage_response"
        (Seccloud.Wire.Storage_challenge { file = "none"; indices = [ 0 ] })
    with
    | Ok _ -> ()
    | Error _ -> assert false
  in
  Telemetry.set_sink None;
  let rpc_plain_ns = time_ns ~iters:200 rpc in
  Telemetry.set_sink (Some ignore);
  let rpc_traced_ns = time_ns ~iters:200 rpc in
  Telemetry.set_sink None;
  let results =
    results
    @ [
        ( "telemetry_incr",
          per_op
            (time_ns ~iters:100 (fun () ->
                 for _ = 1 to inner do
                   Telemetry.incr c_bench
                 done)) );
        ( "telemetry_incr_labeled",
          per_op
            (time_ns ~iters:100 (fun () ->
                 for _ = 1 to inner do
                   Labels.incr v_bench "upload"
                 done)) );
        ( "telemetry_observe_hdr",
          per_op
            (time_ns ~iters:100 (fun () ->
                 for i = 1 to inner do
                   Telemetry.observe h_bench (float_of_int i)
                 done)) );
        "rpc_roundtrip", rpc_plain_ns;
        "rpc_roundtrip_traced", rpc_traced_ns;
      ]
  in
  Tate.reset_pairing_count ();
  assert (Sc_ibc.Ibs.verify pub ~signer:"alice" ~msg:"bench" s);
  let ibs_verify_pairings = Tate.pairings_performed () in
  let h0 = Telemetry.counter_value "hash.sha256.digests" in
  assert (Sc_ibc.Ibs.verify pub ~signer:"alice" ~msg:"bench" s);
  let ibs_verify_sha256 = Telemetry.counter_value "hash.sha256.digests" - h0 in
  Tate.reset_pairing_count ();
  assert (Sc_ibc.Ibs.verify_batch pub batch8);
  let ibs_verify_batch8_pairings = Tate.pairings_performed () in
  let counters =
    [
      "ibs_verify_pairings", ibs_verify_pairings;
      "ibs_verify_sha256_digests", ibs_verify_sha256;
      "ibs_verify_batch8_pairings", ibs_verify_batch8_pairings;
    ]
  in
  let json =
    Json.obj
      (List.map (fun (name, ns) -> name, Json.float (Float.round ns)) results
      @ List.map (fun (name, v) -> name, Json.int v) counters)
  in
  let oc = open_out "BENCH_pairing.json" in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  List.iter
    (fun (name, ns) ->
      Printf.printf "%-28s %12.1f us/op%s\n" name (ns /. 1e3)
        (vs_baseline name ns))
    results;
  List.iter
    (fun (name, v) ->
      let old =
        match baseline_of name with
        | Some o when int_of_float o <> v ->
          Printf.sprintf "  (baseline %d)" (int_of_float o)
        | _ -> ""
      in
      Printf.printf "%-28s %12d%s\n" name v old)
    counters;
  print_endline "wrote BENCH_pairing.json"

(* --- Domain-pool fan-out: 1 domain vs N ------------------------------

   Times three hot paths at both domain counts and — the part
   `make bench-check` actually gates on — verifies the results are
   value-identical, so parallelism can never change a root, a verdict
   or a Monte-Carlo outcome.  The Merkle build is sequential; its row
   is the control. *)

module Merkle = Sc_merkle.Dynamic_tree
module Mc = Sc_sim.Montecarlo
module Protocol = Sc_audit.Protocol
module Batch = Sc_audit.Batch
module Executor = Sc_compute.Executor
module Task = Sc_compute.Task

let bench_domains =
  match Sys.getenv_opt "SECCLOUD_BENCH_DOMAINS" with
  | Some s -> (
    match int_of_string_opt s with Some n -> max 2 n | None -> 4)
  | None -> 4

let with_domains d f =
  let saved = Sc_parallel.domain_count () in
  Sc_parallel.set_domain_count d;
  Fun.protect ~finally:(fun () -> Sc_parallel.set_domain_count saved) f

(* Counter-ledger delta of one run of [f]: every counter the workload
   moved, by how much.  Identical at 1 and N domains iff the fan-out
   neither loses nor duplicates work. *)
let counter_deltas f =
  let module Telemetry = Sc_telemetry.Telemetry in
  let counters () =
    List.filter_map
      (function n, Telemetry.Counter v -> Some (n, v) | _ -> None)
      (Telemetry.snapshot ())
  in
  let before = counters () in
  ignore (f ());
  List.filter_map
    (fun (n, v) ->
      let v0 = Option.value ~default:0 (List.assoc_opt n before) in
      if v <> v0 then Some (n, v - v0) else None)
    (counters ())

let () =
  let system =
    Seccloud.System.create ~params:Sc_pairing.Params.toy ~seed:"bench-parallel"
      ~cs_ids:[ "cs-1" ] ~da_id:"da" ()
  in
  let pub = Seccloud.System.public system in
  let da_key = Seccloud.System.da_key system in
  let cs_key = Seccloud.System.cs_key system "cs-1" in
  let alice = Seccloud.System.register_user system "alice" in
  let bs = Seccloud.System.bytes_source system in
  (* Merkle workload. *)
  let payloads = List.init 16_384 (fun i -> "leaf-" ^ string_of_int i) in
  let merkle () = Merkle.root (Merkle.build payloads) in
  (* Batched-audit workload: 4 jobs x 8 samples over honest executions. *)
  let warrant =
    Sc_ibc.Warrant.issue pub alice ~bytes_source:bs ~delegatee:"da" ~now:0.0
      ~lifetime:1e9 ~scope:"bench"
  in
  let make_job tag =
    let blocks =
      List.init 20 (fun i -> Sc_storage.Block.encode_ints [ i; i * 2; i * 3 ])
    in
    let server =
      Sc_storage.Server.create Sc_storage.Server.Honest
        ~drbg:(Sc_hash.Drbg.create ~seed:("bench-server:" ^ tag))
    in
    Sc_storage.Server.store server
      (Sc_storage.Signer.sign_file pub alice ~bytes_source:bs ~bases:(Sc_storage.Signer.bases pub alice ~cs_id:"cs-1" ~da_id:"da") ~file:"data" blocks);
    let drbg = Sc_hash.Drbg.create ~seed:("bench-exec:" ^ tag) in
    let service =
      List.init 16 (fun i -> { Task.func = Task.Sum; position = i mod 20 })
    in
    let execution =
      Executor.run pub ~cs_key ~server ~behaviour:Executor.Honest ~drbg
        ~owner:"alice" ~file:"data" service
    in
    let commitment = Protocol.commitment_of_execution execution in
    let challenge =
      Protocol.make_challenge
        ~drbg:(Sc_hash.Drbg.create ~seed:("bench-chal:" ^ tag))
        ~n_tasks:commitment.Protocol.n_tasks ~samples:8 ~warrant
    in
    let responses =
      Option.get (Protocol.respond pub ~now:1.0 execution challenge)
    in
    { Batch.owner = "alice"; commitment; challenge; responses }
  in
  let jobs = List.map make_job [ "a"; "b"; "c"; "d" ] in
  let batch () = Batch.verify_jobs pub ~verifier_key:da_key ~role:`Da jobs in
  (* Monte-Carlo workload; fresh same-seed DRBG per run so both domain
     counts consume an identical trial stream. *)
  let mc () =
    Mc.combined_experiment
      ~drbg:(Sc_hash.Drbg.create ~seed:"bench-mc")
      ~csc:0.5 ~ssc:0.5 ~range:2.0 ~sig_forge:0.0 ~t:6 ~trials:10_000
  in
  let measure d =
    with_domains d (fun () ->
        let t_merkle = time_ns ~iters:5 merkle in
        let t_batch = time_ns ~iters:5 batch in
        let t_mc = time_ns ~iters:3 mc in
        let ledger = counter_deltas (fun () -> ignore (merkle ()); batch ()) in
        ( t_merkle, t_batch, t_mc, merkle (), batch (), (mc ()).Mc.survived,
          ledger ))
  in
  let m1, b1, c1, root1, verdict1, surv1, ledger1 = measure 1 in
  let mn, bn, cn, rootn, verdictn, survn, ledgern = measure bench_domains in
  let identity_ok =
    String.equal root1 rootn && verdict1 = verdictn && surv1 = survn
    && ledger1 = ledgern
  in
  let entries =
    [
      "merkle_build_16384", m1, mn;
      "audit_batch_4x8", b1, bn;
      "montecarlo_10k", c1, cn;
    ]
  in
  let json =
    Printf.sprintf "{\n  \"domains\": %d,\n%s,\n  \"identity_ok\": %b\n}\n"
      bench_domains
      (String.concat ",\n"
         (List.map
            (fun (name, t1, tn) ->
              Printf.sprintf
                "  \"%s_1d_ns\": %.0f,\n  \"%s_%dd_ns\": %.0f,\n  \
                 \"%s_speedup\": %.2f"
                name t1 name bench_domains tn name (t1 /. tn))
            entries))
      identity_ok
  in
  let oc = open_out "BENCH_parallel.json" in
  output_string oc json;
  close_out oc;
  List.iter
    (fun (name, t1, tn) ->
      Printf.printf "%-28s 1d %10.1f us  %dd %10.1f us  (x%.2f)\n" name
        (t1 /. 1e3) bench_domains (tn /. 1e3) (t1 /. tn))
    entries;
  Printf.printf "value identity at %d domains: %s\n" bench_domains
    (if identity_ok then "ok" else "MISMATCH");
  if ledger1 <> ledgern then
    List.iter
      (fun (n, d) ->
        let d' = Option.value ~default:0 (List.assoc_opt n ledgern) in
        if d <> d' then
          Printf.printf "  counter %-32s 1d %+d  %dd %+d\n" n d bench_domains d')
      ledger1;
  print_endline "wrote BENCH_parallel.json";
  if not identity_ok then exit 1
