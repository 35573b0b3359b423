(* service_mix — the sharded multi-tenant front end (Service.submit /
   drain), open loop on two domains.  Setup admits 16k tenants; 128
   heavy tenants each store an 8-block file and run a first Mutate.
   Arrivals come on fixed ticks whose contents depend only on the
   seed: per tick, Binomial(4, ½) heavy requests (40% Audit_storage
   t = 4, 40% Compute of 8 tasks t = 4, 20% Mutate of 4 ops) and
   Binomial(36, ½) light ones (80% Lookup, 20% Admit of one of 4096
   new tenants).  The tick period is fixed at 25 ms at reference host
   speed — 80 heavy requests per second, about 60% of the capacity of
   a 2-vCPU 2.1 GHz Xeon in its fast state — so a parent and a child
   commit face the same offered load; the capacity is measured and
   recorded after the run.  On a slower host state each period
   stretches by the host factor, so the load stays the same share of
   what the host can do: a fixed wall-clock rate saturated the service
   whenever the host ran slow, and queueing does not scale linearly.
   On each tick the generator submits what is due and drains; a
   request's latency runs from its due time to the return of the drain
   that processed it. *)

open Seccloud
module Service = Sc_service.Service

type arrival = {
  tenant : string;
  req : Service.request;
  heavy : bool;
  due : float;  (* in ticks *)
}

let tick_s = 0.025
let probe_ticks = 16
let probe_rounds = 3
let checkpoint_tick = 32

let op_of = function
  | Service.Admit -> "admit"
  | Lookup -> "lookup"
  | Store _ -> "store"
  | Corrupt _ -> "corrupt"
  | Audit_storage _ -> "audit"
  | Compute _ -> "compute"
  | Mutate _ -> "mutate"

let ops = [ "admit"; "lookup"; "audit"; "compute"; "mutate" ]

let good = function
  | Service.Admitted _ -> true
  | Info { known; _ } -> known
  | Stored ok -> ok
  | Audited { report; _ } -> report.Agency.intact && report.Agency.channel = None
  | Computed { verdict; _ } -> verdict.Sc_audit.Protocol.valid
  | Mutated { intact; diverged; _ } -> intact && not diverged
  | Store_failed _ | Compute_failed _ | Corrupted | Denied _ -> false

let setup (ctx : Wl.ctx) ~seed =
  let heavy_n, light_n = if ctx.tiny then 8, 256 else 128, 16384 in
  let domains = Sc_parallel.domain_count () in
  let seed = "perfbench/service_mix/" ^ seed in
  let svc = Service.create ~seed () in
  let check (tenant, req, resp) =
    Wl.judge ctx (good resp) (Printf.sprintf "%s by %s answered wrongly" (op_of req) tenant)
  in
  let submit tenant req =
    match Service.submit svc ~tenant req with
    | Ok () -> true
    | Error e ->
      Wl.fail ctx ~backpressure:true (Format.asprintf "%a" Service.pp_error e);
      false
  in
  let batch reqs =
    List.iteri
      (fun i (tenant, req) ->
        if i mod 2048 = 2047 then List.iter check (Service.drain svc);
        ignore (submit tenant req))
      reqs;
    List.iter check (Service.drain svc)
  in
  let heavy = Array.init heavy_n (Printf.sprintf "h-%d") in
  let light = Array.init light_n (Printf.sprintf "t-%d") in
  let rs = Wl.rng ~seed "service_mix" in
  batch (List.map (fun t -> t, Service.Admit) (Array.to_list light @ Array.to_list heavy));
  batch
    (List.map
       (fun t ->
         t, Service.Store { file = "data"; payloads = List.init 8 (fun _ -> Wl.ints rs 8) })
       (Array.to_list heavy));
  batch (List.map (fun t -> t, Service.Mutate { file = "data"; ops = 4 }) (Array.to_list heavy));
  let fresh = ref 0 in
  let binomial rs n = List.length (List.filter (fun _ -> Random.State.bool rs) (List.init n Fun.id)) in
  let gen_tick rs k =
    let heavy_reqs =
      List.init (binomial rs 4) (fun _ ->
          let tenant = heavy.(Random.State.int rs heavy_n) in
          let req =
            match Random.State.int rs 5 with
            | 0 | 1 -> Service.Audit_storage { file = "data"; samples = 4 }
            | 2 | 3 -> Service.Compute { file = "data"; n_tasks = 8; samples = 4 }
            | _ -> Service.Mutate { file = "data"; ops = 4 }
          in
          tenant, req, true)
    in
    let light_reqs =
      List.init (binomial rs 36) (fun _ ->
          if Random.State.int rs 5 = 0 then begin
            incr fresh;
            Printf.sprintf "n-%d" (!fresh mod 4096), Service.Admit, false
          end
          else light.(Random.State.int rs light_n), Service.Lookup, false)
    in
    List.map
      (fun (tenant, req, heavy) ->
        { tenant; req; heavy; due = float_of_int (k - 1) +. Random.State.float rs 1.0 })
      (heavy_reqs @ light_reqs)
    |> List.sort (fun a b -> compare a.due b.due)
  in
  (* Submit one tick's arrivals and drain; returns the drain's wall time
     and the processed triples matched back to their arrivals. *)
  let run_tick arrivals =
    let accepted = List.filter (fun a -> submit a.tenant a.req) arrivals in
    let t0 = Probe.now_s () in
    let out = Service.drain svc in
    let t1 = Probe.now_s () in
    List.iter check out;
    t1, t1 -. t0, accepted
  in
  (* Capacity, measured after the run: rounds of back-to-back ticks of
     the same shape, no sleeping; the median round is recorded. *)
  let probe_rs = Wl.rng ~seed "service_mix/probe" in
  let round () =
    let t0 = Probe.now_s () in
    for k = 1 to probe_ticks do
      ignore (run_tick (gen_tick probe_rs k))
    done;
    (Probe.now_s () -. t0) /. float_of_int probe_ticks
  in
  let capacity_tick_s = ref nan in
  let finish () =
    capacity_tick_s := Probe.median_of (List.init probe_rounds (fun _ -> round ()))
  in
  let heavy_cls = Probe.cls "heavy" and light_cls = Probe.cls "light" in
  let lag = Probe.Samples.create () in
  let drain_s = ref 0.0 and drains = ref 0 and processed = ref 0 in
  let submitted = ref 0 and rejected0 = ref 0 in
  let sojourn = ref [] in
  let hist0 = ref [] in
  let last_fire = ref 0.0 and next_tick = ref 1 and ticks = ref 0 in
  let digest_at_checkpoint = ref "" in
  let proc_hists () = List.map (fun op -> op, Probe.hist ("span.service." ^ op)) ops in
  let start_phase () =
    last_fire := !Probe.phase_t0;
    next_tick := 1;
    drain_s := 0.0;
    drains := 0;
    processed := 0;
    submitted := 0;
    rejected0 := ctx.Wl.failed;
    sojourn := [];
    lag.Probe.Samples.n <- 0;
    hist0 := proc_hists ()
  in
  let step () =
    let k = !next_tick in
    incr next_tick;
    incr ticks;
    let fire = !last_fire +. (tick_s /. !Probe.last_factor) in
    (* wall-clock due time of an arrival due at [due] ticks *)
    let due_at a = !last_fire +. ((a.due -. float_of_int (k - 1)) *. (fire -. !last_fire)) in
    let now = Probe.now_s () in
    if now < fire then Unix.sleepf (fire -. now);
    Probe.Samples.add lag ~at:0.0 (Float.max 0.0 (Probe.now_s () -. fire));
    let arrivals = gen_tick rs k in
    submitted := !submitted + List.length arrivals;
    let r0 = if !Probe.tracing then Some (Probe.read ()) else None in
    let t_end, d, accepted =
      Probe.span "bench.service.tick" (fun () -> run_tick arrivals)
    in
    (match r0 with
    | Some r0 -> heavy_cls.Probe.work <- Probe.add heavy_cls.Probe.work (Probe.diff r0 (Probe.read ()))
    | None -> ());
    drain_s := !drain_s +. d;
    incr drains;
    processed := !processed + List.length accepted;
    List.iter
      (fun a ->
        let due = due_at a in
        let l = t_end -. due in
        Probe.Samples.add (if a.heavy then heavy_cls else light_cls).Probe.lat
          ~at:(due -. !Probe.phase_t0) l;
        if !Probe.tracing then sojourn := (op_of a.req, l) :: !sojourn)
      accepted;
    last_fire := fire;
    if !ticks = checkpoint_tick then digest_at_checkpoint := Service.digest svc
  in
  let layer () =
    let h1 = proc_hists () in
    let proc =
      List.map2
        (fun (op, (c0, s0)) (_, (c1, s1)) ->
          op, (if c1 > c0 then (s1 -. s0) /. float_of_int (c1 - c0) *. 1e-6 else 0.0), (s1 -. s0) *. 1e-6)
        !hist0 h1
    in
    let busy_s = List.fold_left (fun acc (_, _, s) -> acc +. s) 0.0 proc in
    let wait = Probe.Samples.create () in
    List.iter
      (fun (op, l) ->
        let _, mean, _ = List.find (fun (o, _, _) -> o = op) proc in
        Probe.Samples.add wait ~at:0.0 (l -. mean))
      !sojourn;
    let heavy_proc =
      List.fold_left (fun acc (op, _, s) -> if List.mem op [ "audit"; "compute"; "mutate" ] then acc +. s else acc) 0.0 proc
    in
    let heavy_n = Probe.Samples.count heavy_cls.Probe.lat in
    let per n x = if n = 0 then 0.0 else x /. float_of_int n in
    [
      "sc_service.queue_wait_p50_ms", 1e3 *. Probe.Samples.quantile wait 0.5;
      "sc_service.queue_wait_p90_ms", 1e3 *. Probe.Samples.quantile wait 0.9;
      "sc_service.drain_ms", 1e3 *. per !drains !drain_s;
      "sc_service.requests_per_drain", per !drains (float_of_int !processed);
      "sc_service.rejected_share", per !submitted (float_of_int (ctx.Wl.failed - !rejected0));
      "sc_service.generator_lag_p90_ms", 1e3 *. Probe.Samples.quantile lag 0.9;
      "sc_parallel.fanout_efficiency",
      (if !drain_s > 0.0 then busy_s /. (!drain_s *. float_of_int domains) else 0.0);
      (* The model prices a heavy request's processing, not its queueing. *)
      "model.heavy_processing_ms", 1e3 *. per heavy_n heavy_proc;
    ]
  in
  {
    Wl.classes = [ heavy_cls; light_cls ];
    start_phase;
    step;
    finish;
    layer;
    info =
      (fun () ->
        [
          "heavy_rate_per_s", Printf.sprintf "%.1f" (2.0 /. tick_s);
          "capacity_heavy_per_s", Printf.sprintf "%.1f" (2.0 /. !capacity_tick_s);
          "tick_ms", Printf.sprintf "%.3f" (1e3 *. tick_s);
          "ticks", string_of_int !ticks;
          "digest_at_tick_" ^ string_of_int checkpoint_tick, !digest_at_checkpoint;
          "digest", Service.digest svc;
        ]);
  }

let workload = { Wl.name = "service_mix"; domains = 2; open_loop = true; setups = 5; setup }
