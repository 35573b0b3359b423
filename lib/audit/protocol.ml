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

let root_signature_ok ?memo pub commitment =
  Ibs.verify ?memo pub ~signer:commitment.cs_id
    ~msg:("root:" ^ commitment.root)
    commitment.root_signature

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

let verify ?memo ?suspects pub ~verifier_key ~role ~owner commitment chal
    responses =
  Telemetry.incr c_rounds;
  Telemetry.with_span ~name:"audit.verify"
    ~attrs:[ "samples", string_of_int (List.length chal.sample_indices) ]
  @@ fun () ->
  (* Root commitment authenticity: Sig_CS(R). *)
  let root_ok = root_signature_ok ?memo pub commitment in
  let root_failures = if root_ok then [] else [ Root_signature_wrong ] in
  (* Per-sample recomputation and path checks are independent: fan
     them out across the domain pool.  Then 1. IsSignatureWrong for
     every sample at once: the designated signature must cover the
     claimed (file, position, data).  Each sample's signature failure
     follows its other failures, in the sample order of the challenge,
     so verdicts are identical at any domain count. *)
  let check = sample_checks ~role ~owner ~commitment responses in
  let per_sample =
    Sc_parallel.parallel_map (fun i -> i, check i) chal.sample_indices
  in
  (* [Missing_response] comes only from an unanswered index. *)
  Telemetry.add c_samples_checked
    (List.length
       (List.filter
          (function _, ([ Missing_response _ ], None) -> false | _ -> true)
          per_sample));
  (* Only a root signature under [cs_id] names the server. *)
  let server = if root_ok then Some commitment.cs_id else None in
  let signatures_ok =
    Agg.verify_each pub ~verifier_key ?suspects
      (List.map
         (fun (_, (_, entry)) -> Option.map (fun e -> server, e) entry)
         per_sample)
  in
  let failures =
    root_failures
    @ List.concat
        (List.map2
           (fun (i, (fs, _)) ok ->
             if ok = Some false then fs @ [ Signature_wrong i ] else fs)
           per_sample signatures_ok)
  in
  { valid = failures = []; failures }
