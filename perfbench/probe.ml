(* Measurement plumbing shared by every workload: latency samples,
   the trace switch, the benchmark's own spans, the timed server
   handler, and counter/histogram reads through the public telemetry
   registry.  Nothing here reaches inside the library: the spans wrap
   calls into public entry points, and every count comes from
   [Telemetry.snapshot]-visible metrics. *)

module Telemetry = Sc_telemetry.Telemetry

let now_s () = Int64.to_float (Telemetry.now_ns ()) *. 1e-9

(* --- samples -------------------------------------------------------- *)

module Samples = struct
  (* Values with the phase-relative time each began at, kept outside
     the OCaml heap so the benchmark's own bookkeeping does not show in
     the live-heap metric. *)
  type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
  type t = { mutable data : buf; mutable at : buf; mutable n : int }

  let buf n : buf = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n
  let create () = { data = buf 256; at = buf 256; n = 0 }

  let grow a n =
    let bigger = buf (2 * n) in
    Bigarray.Array1.blit a (Bigarray.Array1.sub bigger 0 n);
    bigger

  let add t ~at v =
    if t.n = Bigarray.Array1.dim t.data then begin
      t.data <- grow t.data t.n;
      t.at <- grow t.at t.n
    end;
    t.data.{t.n} <- v;
    t.at.{t.n} <- at;
    t.n <- t.n + 1

  let count t = t.n

  let sum t =
    let s = ref 0.0 in
    for i = 0 to t.n - 1 do
      s := !s +. t.data.{i}
    done;
    !s

  (* Linear interpolation between closest ranks; nan when empty. *)
  let quantile t p =
    if t.n = 0 then nan
    else begin
      let a = Array.init t.n (fun i -> t.data.{i}) in
      Array.sort compare a;
      let pos = p *. float_of_int (t.n - 1) in
      let lo = truncate pos in
      let hi = min (t.n - 1) (lo + 1) in
      let frac = pos -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
    end

  let median t = quantile t 0.5
end

let median_of l =
  let s = Samples.create () in
  List.iter (Samples.add s ~at:0.0) l;
  Samples.median s

(* Start of the current measured phase. *)
let phase_t0 = ref 0.0

(* --- host speed ------------------------------------------------------- *)

(* A shared cloud VM (measured on a 2-vCPU 2.1 GHz Xeon) can alternate
   between two speeds about 1.9x apart, for a tenth of a second to
   minutes at a time; the slow state hits allocation- and memory-heavy
   code (bignum arithmetic, hashing) and spares tight integer loops.  This
   allocation-heavy kernel, which shares no code with the library,
   slows down the same way, so timing it gives the host's current
   speed. *)
let reference_kernel () =
  let acc = ref 0L in
  for i = 1 to 100_000 do
    let l = [ Int64.of_int i; Int64.mul (Int64.of_int i) 3L; !acc ] in
    acc := List.fold_left Int64.add 0L l
  done;
  !acc

(* The kernel's time on the fast state of that 2.1 GHz Xeon. *)
let reference_s = 1.4e-3

(* reference_s / the kernel's time now (best of two): 1.0 on the fast
   state, about 0.55 on the slow one.  Multiplying a time by it gives
   the time at reference speed. *)
let host_factor () =
  let time () =
    let t0 = now_s () in
    ignore (Sys.opaque_identity (reference_kernel ()));
    now_s () -. t0
  in
  let t1 = time () in
  reference_s /. Float.min t1 (time ())

(* The host factor, sampled at the first step of each 100 ms window of
   the current phase (the host can change speed several times a
   second), with the phase-relative time it was sampled at.
   [kernel_s] is the phase's time spent sampling; [last_factor] the
   latest sample. *)
let window_s = 0.1
let window_factors : (int, float * float) Hashtbl.t = Hashtbl.create 512
let kernel_s = ref 0.0
let last_factor = ref 1.0

let note_window () =
  let t = now_s () in
  let w = int_of_float ((t -. !phase_t0) /. window_s) in
  if not (Hashtbl.mem window_factors w) then begin
    let f = host_factor () in
    Hashtbl.replace window_factors w (t -. !phase_t0, f);
    last_factor := f;
    kernel_s := !kernel_s +. (now_s () -. t)
  end

(* The host factor at phase-relative time [t], interpolated between the
   samples around it; 1.0 when there are none. *)
let factor_at () =
  let pts = Array.of_list (List.sort compare (Hashtbl.fold (fun _ p acc -> p :: acc) window_factors [])) in
  let n = Array.length pts in
  fun t ->
    if n = 0 then 1.0
    else if t <= fst pts.(0) then snd pts.(0)
    else if t >= fst pts.(n - 1) then snd pts.(n - 1)
    else begin
      (* the last sample at or before t *)
      let lo = ref 0 and hi = ref (n - 1) in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if fst pts.(mid) <= t then lo := mid else hi := mid
      done;
      let (t0, f0), (t1, f1) = pts.(!lo), pts.(!hi) in
      f0 +. ((f1 -. f0) *. (t -. t0) /. (t1 -. t0))
    end

(* [f ()] and its time at reference speed.  A set-up is a few long
   calls into the library, so a sampler thread of the same domain
   interrupts it every 50 to 100 ms (a waiting thread gets the runtime
   lock at the next 50 ms tick) to time the kernel.  Each stretch
   between two samples is scaled by the mean of the factors at its
   ends; the samples' own time is left out. *)
let timed_setup f =
  let samples = ref [] in  (* (kernel start, kernel end, factor), newest first *)
  let sample () =
    let t0 = now_s () in
    let h = host_factor () in
    samples := (t0, now_s (), h) :: !samples
  in
  let running = Atomic.make true in
  let sampler () =
    while Atomic.get running do
      Thread.delay 0.05;
      if Atomic.get running then sample ()
    done
  in
  sample ();
  let th = Thread.create sampler () in
  let v = f () in
  let t_done = now_s () in
  Atomic.set running false;
  Thread.join th;
  samples := (t_done, t_done, host_factor ()) :: !samples;
  let rec total acc = function
    | (start1, _, h1) :: ((_, end0, h0) :: _ as rest) ->
      total (acc +. (Float.max 0.0 (start1 -. end0) *. (h0 +. h1) /. 2.0)) rest
    | _ -> acc
  in
  v, total 0.0 !samples

(* --- tracing -------------------------------------------------------- *)

(* Off for the end-to-end run: no benchmark spans, no trace sink, no
   per-op counter reads.  The library's own spans still feed their
   [span.*] histograms either way (they are always on). *)
let tracing = ref false

let span name f = if !tracing then Telemetry.with_span ~name f else f ()

(* Spans stay in memory (newest first) and are written once at the end. *)
let lines : string list ref = ref []

let start_trace () =
  tracing := true;
  lines := [];
  Telemetry.set_sink (Some (fun l -> lines := l :: !lines))

let stop_trace () =
  Telemetry.set_sink None;
  tracing := false

let trace_lines () = List.rev !lines

(* --- the server handler, timed ---------------------------------------- *)

(* Time spent inside [Endpoint.Server.handle], accumulated across all
   wrapped handlers: the split between client-side and server-side
   work of every over-the-wire call. *)
let handler_s = ref 0.0

let wrap_handler handle ~now data =
  if not !tracing then handle ~now data
  else begin
    let t0 = now_s () in
    let reply = Telemetry.with_span ~name:"cloud.handle" (fun () -> handle ~now data) in
    handler_s := !handler_s +. (now_s () -. t0);
    reply
  end

(* --- registry reads --------------------------------------------------- *)

let counter = Telemetry.counter_value

(* (count, sum in µs) of a span histogram; zeros when never observed. *)
let hist name =
  match Telemetry.find name with
  | Some (Telemetry.Histogram h) -> h.Telemetry.count, h.Telemetry.sum
  | _ -> 0, 0.0

(* The counters the per-layer report divides by operations.  Read by
   name (a registry lookup each), so a snapshot of them is cheap enough
   to take around every operation of a traced run. *)
let counter_names =
  [
    "pairing.count"; "pairing.single"; "pairing.multi"; "pairing.multi_terms";
    "pairing.final_expo"; "pairing.precomp.hit"; "pairing.precomp.miss";
    "curve.mul.wnaf"; "hash.sha256.digests"; "hash.sha256.bytes"; "ibs.sign";
    "ibs.verify"; "ibs.verify_batch_sigs"; "merkle.proof_checks";
    "merkle.dynamic.rank_checks"; "merkle.leaves_built"; "compute.tasks";
    "audit.samples_checked"; "transport.rpc"; "transport.attempts";
    "wire.tx.bytes";
  ]

let hist_names =
  [
    "span.transport.rpc"; "span.endpoint.handle"; "span.compute.execute";
    "span.user.sign_file"; "span.dynamic.update"; "span.dynamic.append";
    "span.dynamic.delete";
  ]

(* A point-in-time reading of every counter and histogram above plus the
   handler clock; [diff] of two readings is the work between them. *)
type reading = {
  counts : (string * float) list;
  hists : (string * (float * float)) list;  (* count, sum µs *)
  handler : float;
}

let read () =
  {
    counts = List.map (fun n -> n, float_of_int (counter n)) counter_names;
    hists =
      List.map
        (fun n ->
          let c, s = hist n in
          n, (float_of_int c, s))
        hist_names;
    handler = !handler_s;
  }

let diff a b =
  {
    counts = List.map2 (fun (n, x) (_, y) -> n, y -. x) a.counts b.counts;
    hists =
      List.map2
        (fun (n, (c0, s0)) (_, (c1, s1)) -> n, (c1 -. c0, s1 -. s0))
        a.hists b.hists;
    handler = b.handler -. a.handler;
  }

let zero = diff (read ()) (read ())

let add a b =
  {
    counts = List.map2 (fun (n, x) (_, y) -> n, x +. y) a.counts b.counts;
    hists =
      List.map2
        (fun (n, (c0, s0)) (_, (c1, s1)) -> n, (c0 +. c1, s0 +. s1))
        a.hists b.hists;
    handler = a.handler +. b.handler;
  }

let get r name = List.assoc name r.counts
let hist_count r name = fst (List.assoc name r.hists)
let hist_sum_us r name = snd (List.assoc name r.hists)

(* --- per-class accounting -------------------------------------------- *)

(* One operation class of a workload ("store", "read", ...): its
   latencies, plus — on a traced run — the work it caused and the time
   the benchmark spent in the DA endpoint on its behalf. *)
type cls = {
  name : string;
  lat : Samples.t;  (* seconds *)
  mutable work : reading;
  mutable da_s : float;
  mutable da_calls : int;
}

let cls name =
  { name; lat = Samples.create (); work = zero; da_s = 0.0; da_calls = 0 }

let reset c =
  c.lat.Samples.n <- 0;
  c.work <- zero;
  c.da_s <- 0.0;
  c.da_calls <- 0

(* Time one operation of class [c].  On a traced run it also opens the
   benchmark's root span for the operation and charges the counter
   deltas to the class. *)
let timed c f =
  if not !tracing then begin
    let t0 = now_s () in
    let v = f () in
    Samples.add c.lat ~at:(t0 -. !phase_t0) (now_s () -. t0);
    v
  end
  else begin
    let r0 = read () in
    let t0 = now_s () in
    let v = Telemetry.with_span ~name:("bench." ^ c.name) f in
    Samples.add c.lat ~at:(t0 -. !phase_t0) (now_s () -. t0);
    c.work <- add c.work (diff r0 (read ()));
    v
  end

(* A call into [Endpoint.Da] on behalf of class [c]: its wall time
   minus the server-handler time it waited for is the DA's own work. *)
let da c name f =
  if not !tracing then f ()
  else begin
    let h0 = !handler_s in
    let t0 = now_s () in
    let v = Telemetry.with_span ~name:("agency." ^ name) f in
    c.da_s <- c.da_s +. (now_s () -. t0 -. (!handler_s -. h0));
    c.da_calls <- c.da_calls + 1;
    v
  end
