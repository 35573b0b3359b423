module Ibs = Sc_ibc.Ibs
module Agg = Sc_ibc.Agg
module Warrant = Sc_ibc.Warrant
module Merkle = Sc_merkle.Dynamic_tree
module Executor = Sc_compute.Executor
module Task = Sc_compute.Task
module Signer = Sc_storage.Signer
module Telemetry = Sc_telemetry.Telemetry

let c_rounds = Telemetry.counter "audit.rounds"
let c_samples_drawn = Telemetry.counter "audit.samples_drawn"
let c_samples_checked = Telemetry.counter "audit.samples_checked"
let c_blocks_recomputed = Telemetry.counter "audit.blocks_recomputed"

type commitment = {
  root : string;
  root_signature : Ibs.t;
  cs_id : string;
  n_tasks : int;
}

let commitment_of_execution e =
  {
    root = Executor.root e;
    root_signature = Executor.root_signature e;
    cs_id = Executor.server_id e;
    n_tasks = List.length (Executor.service e);
  }

type challenge = { sample_indices : int list; warrant : Warrant.signed }

type failure =
  | Warrant_invalid
  | Missing_response of int
  | Signature_wrong of int
  | Computing_wrong of int
  | Root_wrong of int
  | Root_signature_wrong
  | Transport_timeout of string
  | Transport_tampered of string

type verdict = { valid : bool; failures : failure list }

let pp_failure fmt = function
  | Warrant_invalid -> Format.pp_print_string fmt "warrant invalid or expired"
  | Missing_response i -> Format.fprintf fmt "missing response for sample %d" i
  | Signature_wrong i -> Format.fprintf fmt "IsSignatureWrong(%d)" i
  | Computing_wrong i -> Format.fprintf fmt "IsComputingWrong(%d)" i
  | Root_wrong i -> Format.fprintf fmt "IsRootWrong(%d)" i
  | Root_signature_wrong -> Format.pp_print_string fmt "root signature invalid"
  | Transport_timeout peer ->
    Format.fprintf fmt "transport timeout: %s unresponsive" peer
  | Transport_tampered peer ->
    Format.fprintf fmt "transport tampering detected talking to %s" peer

let is_transport_failure = function
  | Transport_timeout _ | Transport_tampered _ -> true
  | Warrant_invalid | Missing_response _ | Signature_wrong _ | Computing_wrong _
  | Root_wrong _ | Root_signature_wrong ->
    false

let make_challenge ~drbg ~n_tasks ~samples ~warrant =
  Telemetry.with_span ~name:"audit.challenge" @@ fun () ->
  Telemetry.add c_samples_drawn (min samples n_tasks);
  let idx = Sc_hash.Drbg.sample_prefix drbg ~n:n_tasks ~k:samples in
  { sample_indices = Array.to_list idx; warrant }

(* Challenge / proof / verification each get their own span
   ([audit.challenge] / [audit.respond] / [audit.verify]) so the trace
   analyzer can attribute per-phase cost, the axis the auditing
   literature reports. *)
let respond ?memo pub ~now execution chal =
  Telemetry.with_span ~name:"audit.respond"
    ~attrs:[ "samples", string_of_int (List.length chal.sample_indices) ]
  @@ fun () ->
  if not (Warrant.verify ?memo pub ~now chal.warrant) then None
  else Some (List.map (Executor.respond execution) chal.sample_indices)

(* Everything in Algorithm 1 but the designated signature, which is
   checked in one batch over all samples instead. *)
let non_signature_checks ~commitment (resp : Executor.response) =
  let i = resp.Executor.task_index in
  let request = resp.Executor.request in
  (* 3. IsRootWrong: rebuild R* from the leaf and its siblings.  The
     path must open the challenged slot [i] of an [n_tasks]-leaf tree;
     another slot's honest path is a relocation. *)
  let proof = resp.Executor.proof in
  let leaf =
    Executor.leaf_payload ~result:resp.Executor.result
      ~position:request.Task.position
  in
  let root_failures =
    if
      proof.Merkle.index = i
      && proof.Merkle.total = commitment.n_tasks
      && Merkle.verify ~root:commitment.root ~leaf_hash:(Merkle.leaf_hash leaf)
           proof
    then []
    else [ Root_wrong i ]
  in
  let read_failures =
    match resp.Executor.read with
    | None -> [ Signature_wrong i ]
    | Some { Sc_storage.Server.claimed; _ } ->
      Telemetry.incr c_blocks_recomputed;
      (* Consistency: the block must be claimed at the audited
         position. *)
      let position =
        if claimed.Sc_storage.Block.index = request.Task.position then []
        else [ Signature_wrong i ]
      in
      (* 2. IsComputingWrong: recompute f_i on the claimed data. *)
      let computing =
        match Task.eval request.Task.func claimed with
        | Some y when y = resp.Executor.result -> []
        | Some _ | None -> [ Computing_wrong i ]
      in
      position @ computing
  in
  root_failures @ read_failures

(* Algorithm 1 for challenged index [i] of one job, minus the
   signature equation: its failures, and the designated signature the
   server returned, if any, for the one batch over all samples. *)
let sample_checks ~role ~owner ~commitment responses =
  let by_index =
    List.fold_left
      (fun acc (r : Executor.response) -> (r.Executor.task_index, r) :: acc)
      [] responses
  in
  fun i ->
    match List.assoc_opt i by_index with
    | None -> [ Missing_response i ], None
    | Some resp ->
      ( non_signature_checks ~commitment resp,
        Option.map
          (fun { Sc_storage.Server.claimed; signed } ->
            Signer.agg_entry role ~owner claimed signed)
          resp.Executor.read )

type job = {
  owner : string;
  commitment : commitment;
  challenge : challenge;
  responses : Executor.response list;
}

(* The first [n] elements of [xs], and the rest. *)
let rec take n xs =
  match xs with
  | x :: rest when n > 0 ->
    let first, rest = take (n - 1) rest in
    x :: first, rest
  | _ -> [], xs

let verify ?memo ?suspects pub ~verifier_key ~role jobs =
  match jobs with
  | [] -> { valid = true; failures = [] }
  | _ ->
    let samples job = job.challenge.sample_indices in
    Telemetry.incr c_rounds;
    Telemetry.with_span ~name:"audit.verify"
      ~attrs:
        [
          "jobs", string_of_int (List.length jobs);
          ( "samples",
            string_of_int
              (List.fold_left (fun n job -> n + List.length (samples job)) 0 jobs)
          );
        ]
    @@ fun () ->
    (* Root commitment authenticity, Sig_CS(R), of every job at once. *)
    let roots_ok =
      Ibs.verify_each ?memo pub
        (List.map
           (fun { commitment = c; _ } ->
             Some (c.cs_id, "root:" ^ c.root, c.root_signature))
           jobs)
    in
    (* Per-sample recomputation and path checks are independent: fan
       the samples of every job out across the domain pool together.
       Only a root signature under [cs_id] names the server of a job's
       designated signatures. *)
    let checks =
      List.concat
        (List.map2
           (fun job root_ok ->
             let check =
               sample_checks ~role ~owner:job.owner ~commitment:job.commitment
                 job.responses
             in
             let server =
               if root_ok = Some true then Some job.commitment.cs_id else None
             in
             List.map (fun i -> check, server, i) (samples job))
           jobs roots_ok)
    in
    let checked =
      Sc_parallel.parallel_map
        (fun (check, server, i) ->
          let fs, entry = check i in
          i, fs, Option.map (fun e -> server, e) entry)
        checks
    in
    (* [Missing_response] comes only from an unanswered index. *)
    Telemetry.add c_samples_checked
      (List.length
         (List.filter
            (function _, [ Missing_response _ ], None -> false | _ -> true)
            checked));
    (* 1. IsSignatureWrong for every sample at once: the designated
       signature must cover the claimed (file, position, data).  Each
       sample's signature failure follows its other failures. *)
    let per_sample =
      List.map2
        (fun (i, fs, _) ok ->
          if ok = Some false then fs @ [ Signature_wrong i ] else fs)
        checked
        (Agg.verify_each pub ~verifier_key ?suspects
           (List.map (fun (_, _, entry) -> entry) checked))
    in
    (* Job by job: its root failure, then its samples in the order of
       its challenge, so verdicts are identical at any domain count. *)
    let _, per_job =
      List.fold_left_map
        (fun rest (job, root_ok) ->
          let own, rest = take (List.length (samples job)) rest in
          ( rest,
            (if root_ok = Some false then [ Root_signature_wrong ] else [])
            @ List.concat own ))
        per_sample (List.combine jobs roots_ok)
    in
    let failures = List.concat per_job in
    { valid = failures = []; failures }
