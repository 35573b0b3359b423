module Server = Sc_storage.Server
module Signer = Sc_storage.Signer
module Protocol = Sc_audit.Protocol
module Sampling = Sc_audit.Sampling
module Agg = Sc_ibc.Agg
module Block = Sc_storage.Block

let src = Logs.Src.create "seccloud.agency" ~doc:"Designated-agency audit events"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  system : System.t;
  drbg : Sc_hash.Drbg.t;
  roots : Sc_ibc.Ibs.Memo.t;  (* commitment root signatures accepted *)
  suspects : Sc_ibc.Digest_set.t;  (* servers whose last audit was all bad *)
}

let create system =
  {
    system;
    drbg = Sc_hash.Drbg.create ~seed:"designated-agency";
    roots = Sc_ibc.Ibs.Memo.create "root";
    suspects = Sc_ibc.Digest_set.create ();
  }

type storage_report = {
  sampled : int;
  valid_blocks : int;
  invalid_indices : int list;
  intact : bool;
  channel : Transport.error option;
      (* [Some _] when the report was produced by channel failure
         rather than block verification *)
}

let read_samples t cloud ~file ~samples =
  match Server.file_size (Cloud.storage cloud) file with
  | None -> None
  | Some n ->
    let indices = Sc_hash.Drbg.sample_prefix t.drbg ~n ~k:samples in
    Some
      (List.map
         (fun i -> i, Server.read (Cloud.storage cloud) ~file ~index:i)
         (Array.to_list indices))

let report_of_checks checks =
  let sampled = List.length checks in
  let invalid_indices =
    List.filter_map (fun (i, ok) -> if ok then None else Some i) checks
  in
  {
    sampled;
    valid_blocks = sampled - List.length invalid_indices;
    invalid_indices;
    intact = invalid_indices = [];
    channel = None;
  }

(* A read that claims its own index goes into one batch; any other,
   a missing read included, is invalid without a signature check. *)
let check_blocks ?suspects system ~server ~owner reads =
  let slots =
    List.map
      (fun (i, read) ->
        match read with
        | Some { Server.claimed; signed } when claimed.Block.index = i ->
          Some (Some server, Signer.agg_entry `Da ~owner claimed signed)
        | Some _ | None -> None)
      reads
  in
  report_of_checks
    (List.map2
       (fun (i, _) ok -> i, ok = Some true)
       reads
       (Agg.verify_each (System.public system)
          ~verifier_key:(System.da_key system) ?suspects slots))

let audit_storage t cloud ~owner ~file ~samples =
  match read_samples t cloud ~file ~samples with
  | None ->
    { sampled = 0; valid_blocks = 0; invalid_indices = []; intact = false;
      channel = None }
  | Some reads ->
    let report =
      check_blocks ~suspects:t.suspects t.system ~server:(Cloud.id cloud)
        ~owner reads
    in
    Log.info (fun m ->
        m "storage audit %s/%s: %d/%d valid, intact=%b" owner file
          report.valid_blocks report.sampled report.intact);
    report

let choose_sample_size ?(eps = 1e-4) ?(range = infinity) ~csc ~ssc () =
  match
    Sampling.required_samples ~csc ~ssc ~range ~sig_forge:1e-9 ~eps ()
  with
  | Some tt -> tt
  | None -> max_int

let audit_computation_batched t jobs ~now ~samples =
  let pub = System.public t.system in
  let da_key = System.da_key t.system in
  let prepared =
    List.filter_map
      (fun (cloud, owner, execution, warrant) ->
        let commitment = Protocol.commitment_of_execution execution in
        let challenge =
          Protocol.make_challenge ~drbg:t.drbg
            ~n_tasks:commitment.Protocol.n_tasks ~samples ~warrant
        in
        match
          Cloud.respond_to_audit cloud ~now execution challenge
        with
        | None -> None
        | Some responses ->
          Some { Protocol.owner; commitment; challenge; responses })
      jobs
  in
  if List.length prepared < List.length jobs then
    { Protocol.valid = false; failures = [ Protocol.Warrant_invalid ] }
  else begin
    let verdict =
      Protocol.verify ~memo:t.roots ~suspects:t.suspects pub
        ~verifier_key:da_key ~role:`Da prepared
    in
    Log.info (fun m ->
        m "computation audit of %s (t=%d): valid=%b, %d failures"
          (String.concat ", " (List.map (fun (_, owner, _, _) -> owner) jobs))
          samples verdict.Protocol.valid
          (List.length verdict.Protocol.failures));
    verdict
  end

let audit_computation t cloud ~owner ~execution ~warrant ~now ~samples =
  audit_computation_batched t [ cloud, owner, execution, warrant ] ~now ~samples
