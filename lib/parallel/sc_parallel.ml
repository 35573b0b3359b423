(* Fixed-size domain pool for the embarrassingly parallel hot paths
   (Merkle level construction, per-sample audit checks, Monte-Carlo
   trials, shard execution).  Stdlib-only: Domain + Mutex/Condition,
   no domainslib.

   Design notes:

   - One process-wide pool.  Workers are spawned lazily on the first
     parallel call and never exit; they block on a condition variable
     when the queue is empty.  Process exit does not wait for them.
   - The submitting domain *helps*: while waiting for its batch it
     pops and runs queued tasks.  This makes nested fan-out (a
     parallel audit whose per-job verification builds Merkle trees in
     parallel) deadlock-free — every waiter makes progress whenever
     the queue is non-empty, and a single condition variable is
     broadcast on both task arrival and batch completion so no waiter
     sleeps through runnable work.
   - Degenerate sequential mode: with a domain count of 1 (the default
     on small machines) every entry point runs inline in the caller,
     touching neither the pool nor any lock, so tier-1 behavior is
     bit-identical by default.  Results are position-addressed, so at
     any domain count the output of [parallel_map]/[map_array] equals
     the sequential map — only the schedule changes. *)

let parse_env () =
  match Sys.getenv_opt "SECCLOUD_DOMAINS" with
  | None -> None
  | Some s ->
    (match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | Some _ | None -> None)

let default_count () =
  match parse_env () with
  | Some n -> n
  | None -> max 1 (Domain.recommended_domain_count () - 1)

(* 0 = not yet initialised; read/written from the main domain (workers
   never reconfigure the pool). *)
let configured = ref 0

let domain_count () =
  if !configured < 1 then configured := default_count ();
  !configured

let set_domain_count n = configured := max 1 n

type pool = {
  m : Mutex.t;
  cv : Condition.t; (* task arrival AND batch completion *)
  q : (unit -> unit) Queue.t;
  mutable spawned : int;
}

let pool =
  { m = Mutex.create (); cv = Condition.create (); q = Queue.create ();
    spawned = 0 }

let worker () =
  let rec loop () =
    Mutex.lock pool.m;
    let task =
      let rec take () =
        match Queue.take_opt pool.q with
        | Some t -> t
        | None ->
          Condition.wait pool.cv pool.m;
          take ()
      in
      take ()
    in
    Mutex.unlock pool.m;
    task ();
    loop ()
  in
  loop ()

let ensure_workers () =
  let want = domain_count () - 1 in
  if pool.spawned < want then begin
    Mutex.lock pool.m;
    while pool.spawned < want do
      ignore (Domain.spawn worker : unit Domain.t);
      pool.spawned <- pool.spawned + 1
    done;
    Mutex.unlock pool.m
  end

(* Run every thunk, distributing across the pool, and return once all
   have finished.  The first exception (if any) is re-raised in the
   caller after the whole batch has drained.

   Trace propagation: the submitter's span context is captured at
   submission and installed as the ambient remote context around each
   task, so spans opened on a worker domain attach to the submitting
   span's trace instead of starting unrelated trees.  (On the helping
   submitter the install is a no-op — its own span stack already
   provides the parent.) *)
let run_tasks thunks =
  match thunks with
  | [] -> ()
  | [ t ] -> t ()
  | thunks ->
    ensure_workers ();
    let ctx = Sc_telemetry.Telemetry.current_context () in
    let remaining = ref (List.length thunks) in
    let failure = ref None in
    let wrap f () =
      (try Sc_telemetry.Telemetry.with_context ctx f
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         Mutex.lock pool.m;
         if !failure = None then failure := Some (e, bt);
         Mutex.unlock pool.m);
      Mutex.lock pool.m;
      decr remaining;
      if !remaining = 0 then Condition.broadcast pool.cv;
      Mutex.unlock pool.m
    in
    Mutex.lock pool.m;
    List.iter (fun f -> Queue.add (wrap f) pool.q) thunks;
    Condition.broadcast pool.cv;
    let rec drain () =
      if !remaining > 0 then begin
        match Queue.take_opt pool.q with
        | Some task ->
          Mutex.unlock pool.m;
          task ();
          Mutex.lock pool.m;
          drain ()
        | None ->
          Condition.wait pool.cv pool.m;
          drain ()
      end
    in
    drain ();
    Mutex.unlock pool.m;
    (match !failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ())

(* Chunked index fan-out over [0, n): [body lo hi] covers [lo, hi).
   Chunks are at least [min_chunk] wide so tiny workloads never pay
   task overhead; with one domain the whole range runs inline. *)
let iter_ranges ?(min_chunk = 1) n body =
  if n > 0 then begin
    let d = domain_count () in
    let max_chunks = if min_chunk <= 1 then n else max 1 (n / min_chunk) in
    let k = min (4 * d) max_chunks in
    if d <= 1 || k <= 1 then body 0 n
    else
      run_tasks
        (List.init k (fun i ->
             let lo = i * n / k and hi = (i + 1) * n / k in
             fun () -> body lo hi))
  end

let map_array ?min_chunk f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else if domain_count () <= 1 then Array.map f arr
  else begin
    let out = Array.make n None in
    iter_ranges ?min_chunk n (fun lo hi ->
        for i = lo to hi - 1 do
          out.(i) <- Some (f arr.(i))
        done);
    Array.map (function Some v -> v | None -> assert false) out
  end

let parallel_map ?min_chunk f xs =
  if domain_count () <= 1 then List.map f xs
  else Array.to_list (map_array ?min_chunk f (Array.of_list xs))
