(* The SecCloud end-to-end benchmark.

   seccloud_bench --workload NAME --seed S --seconds N --trace 0|1

   Sets the workload up a fixed number of times (the median is
   setup_s; the last instance is measured), then runs it for
   [--seconds].  With --trace 0 it prints the end-to-end metrics; with
   --trace 1 it measures half the time untraced and half traced, then
   prints the per-layer metrics, the unit-cost model and the trace
   overhead, and writes the span trace as JSONL.  The last stdout line is one JSON object
   {correct, attempted, failed, metrics}; the exit code is 1 when any
   correctness check failed. *)

module Telemetry = Sc_telemetry.Telemetry
module Json = Sc_telemetry.Json
module Analysis = Sc_telemetry.Trace_analysis

let workloads = [ W_ingest.workload; W_audit.workload; W_dynamic.workload; W_service.workload ]

type opts = {
  mutable workload : string;
  mutable seed : string;
  mutable seconds : float;
  mutable trace : bool;
  mutable ops : int;  (* > 0: exactly this many steps per phase *)
  mutable tiny : bool;
  mutable mislabel : bool;
}

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("seccloud_bench: " ^ s); exit 2) fmt

let parse () =
  let o =
    { workload = ""; seed = "1"; seconds = 10.0; trace = false; ops = 0;
      tiny = false; mislabel = false }
  in
  Arg.parse
    [
      "--workload", Arg.String (fun s -> o.workload <- s), "NAME workload to run";
      "--seed", Arg.String (fun s -> o.seed <- s), "S input seed";
      "--seconds", Arg.Float (fun s -> o.seconds <- s), "N measured seconds";
      "--trace", Arg.Int (fun t -> o.trace <- t <> 0), "0|1 traced run";
      "--ops", Arg.Int (fun n -> o.ops <- n), "N fixed steps per phase instead of seconds";
      "--tiny", Arg.Unit (fun () -> o.tiny <- true), " smoke-test sizes, one set-up";
      "--mislabel", Arg.Unit (fun () -> o.mislabel <- true),
      " name an honest server as the cheater (the checks must fail)";
    ]
    (fun a -> die "unexpected argument %s" a)
    "seccloud_bench --workload NAME --seed S --seconds N --trace 0|1";
  o

(* Run steps for a phase; returns (ops completed, wall seconds).  The
   phase's time spent sampling the host's speed is left in
   [Probe.kernel_s]. *)
let phase o (inst : Wl.instance) ~seconds =
  List.iter Probe.reset inst.classes;
  Hashtbl.reset Probe.window_factors;
  Probe.kernel_s := 0.0;
  Probe.phase_t0 := Probe.now_s ();
  inst.start_phase ();
  let t0 = !Probe.phase_t0 in
  let step () =
    Probe.note_window ();
    inst.step ()
  in
  if o.ops > 0 then
    for _ = 1 to o.ops do
      step ()
    done
  else begin
    let deadline = t0 +. seconds in
    while Probe.now_s () < deadline do
      step ()
    done
  end;
  let wall = Probe.now_s () -. t0 in
  let ops = List.fold_left (fun acc c -> acc + Probe.Samples.count c.Probe.lat) 0 inst.classes in
  ops, wall

let ms c q = 1e3 *. Probe.Samples.quantile c.Probe.lat q

let mean_ms c =
  let n = Probe.Samples.count c.Probe.lat in
  if n = 0 then nan else 1e3 *. Probe.Samples.sum c.Probe.lat /. float_of_int n

(* Live heap after a full collection: what the run keeps (stored data,
   the never-evicting precomputation caches).  The top heap also counts
   garbage awaiting collection and swings with GC timing. *)
let live_heap_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.0

(* --- end-to-end ------------------------------------------------------- *)

(* Sample [i] of [s] at reference speed. *)
let scaled factor (s : Probe.Samples.t) i =
  let v = s.data.{i} in
  v *. factor (s.at.{i} +. (v /. 2.0))

(* End-to-end timings are reported at reference host speed: each
   latency is scaled by the host factor at its midpoint (see
   [Probe.host_factor]), so the host's own speed swings do not read as
   regressions.  Throughput is scaled by the mean factor.  The unscaled
   figures are printed beside them. *)
let at_reference_speed classes =
  let open Probe in
  let factors = Hashtbl.fold (fun _ (_, f) acc -> f :: acc) window_factors [] in
  let factor = factor_at () in
  let scale c =
    let r = cls c.name in
    for i = 0 to Samples.count c.lat - 1 do
      Samples.add r.lat ~at:c.lat.at.{i} (scaled factor c.lat i)
    done;
    r
  in
  let mean = List.fold_left ( +. ) 0.0 factors /. float_of_int (max 1 (List.length factors)) in
  List.map scale classes, (if factors = [] then 1.0 else mean)

(* Mean latency of the last phase at reference speed: for a closed
   loop, the inverse of its throughput less the loop's own
   bookkeeping. *)
let work_per_op (inst : Wl.instance) =
  let factor = Probe.factor_at () in
  let sum = ref 0.0 and n = ref 0 in
  List.iter
    (fun c ->
      for i = 0 to Probe.Samples.count c.Probe.lat - 1 do
        sum := !sum +. scaled factor c.Probe.lat i;
        incr n
      done)
    inst.classes;
  !sum /. float_of_int (max 1 !n)

let end_to_end (w : Wl.t) (inst : Wl.instance) ~setup_s ~ops ~wall =
  let classes, mean_factor = at_reference_speed inst.classes in
  let main, side =
    match classes with m :: s :: _ -> m, s | _ -> assert false
  in
  Printf.printf "env host_factor_mean=%.4f\n" mean_factor;
  (* An open loop's host-speed samples take time from its sleeps, not
     from its work. *)
  let busy = if w.Wl.open_loop then wall else wall -. !Probe.kernel_s in
  let ops_per_s = float_of_int ops /. busy /. mean_factor in
  [
    "setup_s", setup_s, "s";
    "ops_per_s", ops_per_s, "ops/s";
    "heap_live_mb", live_heap_mb (), "MB";
    "main_mean_ms", mean_ms main, "ms";
    "side_mean_ms", mean_ms side, "ms";
  ]

(* The whole run under the class names a reader of the paper would
   use; printed and recorded, not part of the gated set. *)
let named name (inst : Wl.instance) =
  let c n = List.find (fun c -> c.Probe.name = n) inst.classes in
  let pair prefix cls unit scale =
    [ prefix ^ "_p50_" ^ unit, scale *. ms cls 0.5, unit;
      prefix ^ "_p90_" ^ unit, scale *. ms cls 0.9, unit ]
  in
  match name with
  | "ingest" ->
    let all = Probe.cls "store" in
    List.iter
      (fun c ->
        for i = 0 to Probe.Samples.count c.Probe.lat - 1 do
          Probe.Samples.add all.Probe.lat ~at:0.0 c.Probe.lat.Probe.Samples.data.{i}
        done)
      inst.classes;
    pair "write" all "ms" 1.0 @ pair "write_new_owner" (c "store_new_owner") "ms" 1.0
  | "audit" ->
    pair "storage_audit" (c "storage_audit") "ms" 1.0
    @ pair "compute_audit" (c "compute_audit") "ms" 1.0
    @ pair "batch_audit" (c "batch_audit") "ms" 1.0
  | "dynamic_rw" -> pair "read" (c "read") "us" 1e3 @ pair "write" (c "write") "ms" 1.0
  | "service_mix" ->
    pair "heavy" (c "heavy") "ms" 1.0 @ [ "light_p90_ms", ms (c "light") 0.9, "ms" ]
  | _ -> []

(* --- per-layer -------------------------------------------------------- *)

let per_layer (inst : Wl.instance) units ~overhead_pct =
  let open Probe in
  let total = List.fold_left (fun acc c -> add acc c.work) zero inst.classes in
  let n = List.fold_left (fun acc c -> acc + Samples.count c.lat) 0 inst.classes in
  let per x = if n = 0 then 0.0 else x /. float_of_int n in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let g = get total in
  let hsum h = hist_sum_us total h and hcount h = hist_count total h in
  let handler_s =
    if total.handler > 0.0 then total.handler else hsum "span.endpoint.handle" *. 1e-6
  in
  let da_s = List.fold_left (fun acc c -> acc +. c.da_s) 0.0 inst.classes in
  let da_calls = List.fold_left (fun acc c -> acc + c.da_calls) 0 inst.classes in
  let writes = [ "span.dynamic.update"; "span.dynamic.append"; "span.dynamic.delete" ] in
  let residual c =
    let ops = Samples.count c.lat in
    if ops = 0 then 0.0
    else
      let measured = Samples.sum c.lat /. float_of_int ops in
      100.0 *. Float.abs (measured -. Calib.predict units c.work ~ops) /. measured
  in
  let main, side = match inst.classes with m :: s :: _ -> m, s | _ -> assert false in
  let generic =
    [
      "sc_pairing.pairings_per_op", per (g "pairing.count");
      "sc_pairing.multi_terms_per_op", per (g "pairing.multi_terms");
      "sc_pairing.final_expo_per_op", per (g "pairing.final_expo");
      "sc_pairing.precomp_miss_share",
      ratio (g "pairing.precomp.miss") (g "pairing.precomp.miss" +. g "pairing.precomp.hit");
      "sc_ec.wnaf_muls_per_op", per (g "curve.mul.wnaf");
      "sc_hash.sha256_digests_per_op", per (g "hash.sha256.digests");
      "sc_hash.sha256_bytes_per_op", per (g "hash.sha256.bytes");
      "sc_ibc.signs_per_op", per (g "ibs.sign");
      "sc_ibc.verifies_per_op", per (g "ibs.verify" +. g "ibs.verify_batch_sigs");
      "sc_storage.sign_file_ms_per_block",
      1e-3 *. ratio (hsum "span.user.sign_file") (if hcount "span.user.sign_file" > 0.0 then g "ibs.sign" else 0.0);
      "sc_storage.dyn_read_us", 0.0;
      "sc_storage.dyn_verify_read_us", 0.0;
      "sc_storage.dyn_write_ms",
      1e-3 *. ratio (List.fold_left (fun a h -> a +. hsum h) 0.0 writes)
                 (List.fold_left (fun a h -> a +. hcount h) 0.0 writes);
      "sc_merkle.proof_checks_per_op", per (g "merkle.proof_checks");
      "sc_merkle.rank_checks_per_op", per (g "merkle.dynamic.rank_checks");
      "sc_merkle.leaves_built_per_op", per (g "merkle.leaves_built");
      "sc_compute.tasks_per_op", per (g "compute.tasks");
      "sc_compute.execute_ms", 1e-3 *. ratio (hsum "span.compute.execute") (hcount "span.compute.execute");
      "sc_audit.samples_checked_per_op", per (g "audit.samples_checked");
      "sc_audit.da_self_ms", 1e3 *. ratio da_s (float_of_int da_calls);
      "seccloud.server_handle_ms", 1e3 *. per handler_s;
      "seccloud.transport_self_us",
      1e6 *. ratio (hsum "span.transport.rpc" *. 1e-6 -. handler_s) (g "transport.rpc");
      "seccloud.wire_bytes_per_op", per (g "wire.tx.bytes");
      "seccloud.attempts_per_rpc", ratio (g "transport.attempts") (g "transport.rpc");
      "sc_service.queue_wait_p50_ms", 0.0;
      "sc_service.queue_wait_p90_ms", 0.0;
      "sc_service.drain_ms", 0.0;
      "sc_service.requests_per_drain", 0.0;
      "sc_service.rejected_share", 0.0;
      "sc_service.generator_lag_p90_ms", 0.0;
      "sc_parallel.fanout_efficiency", 0.0;
      "sc_telemetry.trace_overhead_pct", overhead_pct;
      "model.residual_main_pct", residual main;
      "model.residual_side_pct", residual side;
    ]
    @ Calib.metrics units
  in
  let specific = inst.layer () in
  let generic =
    match List.assoc_opt "model.heavy_processing_ms" specific with
    | None -> generic
    | Some proc_ms ->
      (* Open loop: price a heavy request's processing time, since its
         latency is mostly queueing. *)
      let ops = Samples.count main.lat in
      let pred = 1e3 *. Calib.predict units main.work ~ops in
      List.map
        (fun (k, v) ->
          if k = "model.residual_main_pct" then
            k, (if proc_ms > 0.0 then 100.0 *. Float.abs (proc_ms -. pred) /. proc_ms else 0.0)
          else k, v)
        generic
  in
  List.map
    (fun (k, v) -> k, Option.value ~default:v (List.assoc_opt k specific))
    generic

(* Units of the per-layer metrics; anything unlisted is a count. *)
let unit_of name =
  let units =
    [
      "sc_pairing.precomp_miss_share", "ratio"; "sc_hash.sha256_bytes_per_op", "B";
      "sc_storage.sign_file_ms_per_block", "ms"; "sc_storage.dyn_read_us", "us";
      "sc_storage.dyn_verify_read_us", "us"; "sc_storage.dyn_write_ms", "ms";
      "sc_compute.execute_ms", "ms"; "sc_audit.da_self_ms", "ms";
      "seccloud.server_handle_ms", "ms"; "seccloud.transport_self_us", "us";
      "seccloud.wire_bytes_per_op", "B"; "seccloud.attempts_per_rpc", "ratio";
      "sc_service.queue_wait_p50_ms", "ms"; "sc_service.queue_wait_p90_ms", "ms";
      "sc_service.drain_ms", "ms"; "sc_service.rejected_share", "ratio";
      "sc_service.generator_lag_p90_ms", "ms"; "sc_parallel.fanout_efficiency", "ratio";
      "sc_telemetry.trace_overhead_pct", "%"; "model.residual_main_pct", "%";
      "model.residual_side_pct", "%"; "sc_pairing.unit_pairing_us", "us";
      "sc_pairing.unit_multi_term_us", "us"; "sc_pairing.unit_mul_g_us", "us";
      "sc_ec.unit_curve_mul_us", "us"; "sc_hash.unit_sha256_us_per_kib", "us/KiB";
      "sc_merkle.unit_proof_verify_us", "us";
    ]
  in
  Option.value ~default:"count" (List.assoc_opt name units)

(* Per-class breakdown and the per-layer self-time table of the trace. *)
let print_trace_report (inst : Wl.instance) units trace =
  let open Probe in
  Printf.printf "\nper-class (traced phase):\n";
  List.iter
    (fun c ->
      let ops = Samples.count c.lat in
      if ops > 0 then begin
        let per x = x /. float_of_int ops in
        let mean = per (Samples.sum c.lat) in
        let pred = Calib.predict units c.work ~ops in
        Printf.printf
          "  %-16s ops=%-6d mean=%.3fms model=%.3fms residual=%+.1f%% server=%.3fms \
           wire=%.0fB rpcs=%.2f\n"
          c.name ops (1e3 *. mean) (1e3 *. pred)
          (100.0 *. (mean -. pred) /. mean)
          (1e3 *. per c.work.handler)
          (per (get c.work "wire.tx.bytes"))
          (per (get c.work "transport.rpc"))
      end)
    inst.classes;
  let spans = List.filter_map Analysis.span_of_line trace in
  let report = Analysis.analyze spans in
  let ops = List.fold_left (fun acc c -> acc + Samples.count c.lat) 0 inst.classes in
  Printf.printf "\nself time by layer (spans=%d, us per op):\n" report.Analysis.spans;
  List.iter
    (fun (l, us) -> Printf.printf "  %-10s %12.1f\n" l (us /. float_of_int (max 1 ops)))
    report.Analysis.layer_us

let out_dir = Filename.concat "perfbench" "out"

let git_commit () = Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_COMMIT")

let () =
  let o = parse () in
  let w =
    match List.find_opt (fun w -> w.Wl.name = o.workload) workloads with
    | Some w -> w
    | None ->
      die "unknown workload %S (one of: %s)" o.workload
        (String.concat ", " (List.map (fun w -> w.Wl.name) workloads))
  in
  let cores = Domain.recommended_domain_count () in
  if w.Wl.domains > cores then
    die "workload %s needs %d domains but only %d cores are available" w.name w.domains cores;
  (match Sys.getenv_opt "SECCLOUD_DOMAINS" with
  | Some d when int_of_string_opt d <> Some w.domains ->
    die "SECCLOUD_DOMAINS=%s but workload %s pins %d" d w.name w.domains
  | _ -> ());
  Sc_parallel.set_domain_count w.domains;
  (* The span histograms' bucket bounds are a lazy value that is not
     safe to force from two domains at once: force it here, before any
     parallel drain closes its first span. *)
  ignore (Telemetry.log_buckets ());
  let ctx = Wl.create_ctx ~tiny:o.tiny ~mislabel:o.mislabel in
  (* A fixed number of set-ups, each of a fresh deployment; the last
     one, seeded from the run seed alone, is measured.  The earlier ones
     are timed only, so setup_s is a median. *)
  let reps = if o.tiny then 1 else w.Wl.setups in
  let set_up k =
    Gc.full_major ();
    let seed = if k = reps then o.seed else Printf.sprintf "%s/setup-%d" o.seed k in
    Probe.timed_setup (fun () -> w.setup ctx ~seed)
  in
  let rec set_up_all k times =
    let i, t = set_up k in
    if k = reps then i, List.rev (t :: times) else set_up_all (k + 1) (t :: times)
  in
  let inst, setups = set_up_all 1 [] in
  let setup_s = Probe.median_of setups in
  let metrics, extra =
    if not o.trace then begin
      let ops, wall = phase o inst ~seconds:o.seconds in
      let e2e = end_to_end w inst ~setup_s ~ops ~wall in
      e2e, ("all_ops_per_s", float_of_int ops /. wall, "ops/s") :: named w.name inst
    end
    else begin
      let half = o.seconds /. 2.0 in
      ignore (phase o inst ~seconds:half);
      let untraced = work_per_op inst in
      Probe.start_trace ();
      ignore (phase o inst ~seconds:half);
      Probe.stop_trace ();
      let traced = work_per_op inst in
      let units = Calib.measure () in
      let overhead_pct = 100.0 *. (traced -. untraced) /. untraced in
      let lines = Probe.trace_lines () in
      (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
      let path = Filename.concat out_dir (Printf.sprintf "trace-%s-%s.jsonl" w.name o.seed) in
      let oc = open_out path in
      List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
      close_out oc;
      Printf.printf "trace: %s (%d spans)\n" path (List.length lines);
      print_trace_report inst units lines;
      List.map (fun (k, v) -> k, v, unit_of k) (per_layer inst units ~overhead_pct), []
    end
  in
  inst.finish ();
  let correct = ctx.wrong = [] in
  List.iter (fun m -> Printf.printf "MISMATCH %s\n" m) (List.rev ctx.wrong);
  let env =
    [
      "workload", w.name; "seed", o.seed; "trace", string_of_bool o.trace;
      "nproc", string_of_int cores; "SECCLOUD_DOMAINS", string_of_int w.domains;
      "params", "small"; "ocaml", Sys.ocaml_version; "commit", git_commit ();
      "seconds", Printf.sprintf "%g" o.seconds; "setups", string_of_int reps;
      "setups_s", String.concat "," (List.map (Printf.sprintf "%.4f") setups);
    ]
    @ inst.info ()
  in
  List.iter (fun (k, v) -> Printf.printf "env %s=%s\n" k v) env;
  List.iter (fun (k, v, u) -> Printf.printf "metric %-34s %14.6f %s\n" k v u) (metrics @ extra);
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let jmetrics ms =
    Json.obj (List.map (fun (k, v, u) -> k, Json.obj [ "value", num v; "unit", Json.str u ]) ms)
  in
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let oc =
    open_out_gen [ Open_append; Open_creat ] 0o644 (Filename.concat out_dir "results.jsonl")
  in
  output_string oc
    (Json.obj
       [ "env", Json.obj (List.map (fun (k, v) -> k, Json.str v) env);
         "correct", string_of_bool correct; "metrics", jmetrics (metrics @ extra) ]);
  output_char oc '\n';
  close_out oc;
  print_endline
    (Json.obj
       [
         "correct", string_of_bool correct;
         "attempted", Json.int ctx.attempted;
         "failed", Json.int ctx.failed;
         "metrics", jmetrics metrics;
       ]);
  exit (if correct then 0 else 1)
