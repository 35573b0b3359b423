module Server = Sc_storage.Server
module Signer = Sc_storage.Signer
module Executor = Sc_compute.Executor

type t = {
  system : System.t;
  id : string;
  key : Sc_ibc.Setup.identity_key;
  server : Server.t;
  compute : Executor.behaviour;
  drbg : Sc_hash.Drbg.t;
  warrants : Sc_ibc.Ibs.Memo.t;
      (* warrant signatures this server has verified; see
         [respond_to_audit] *)
}

let create system ~id ?(storage = Server.Honest) ?(compute = Executor.Honest) () =
  let key = System.cs_key system id in
  let drbg = Sc_hash.Drbg.create ~seed:("cloud-server:" ^ id) in
  {
    system;
    id;
    key;
    server = Server.create storage ~drbg;
    compute;
    drbg;
    warrants = Sc_ibc.Ibs.Memo.create "warrant";
  }

let id t = t.id
let storage t = t.server
let storage_confidence t = Server.storage_confidence t.server
let computing_confidence t = Executor.computing_confidence t.compute

(* One small-exponent batch over every block: it accepts exactly when
   each block's designated signature verifies, and an upload is
   accepted or rejected whole, so no per-block fallback is needed. *)
let accept_upload t (upload : Signer.upload) =
  let ok =
    Sc_ibc.Agg.verify_batch (System.public t.system) ~verifier_key:t.key
      (List.map
         (fun (sb : Signer.signed_block) ->
           Signer.agg_entry `Cs ~owner:upload.Signer.owner sb.Signer.block sb)
         (Array.to_list upload.Signer.blocks))
  in
  if ok then Server.store t.server upload;
  ok

let accept_upload_unchecked t upload = Server.store t.server upload

let execute t ~owner ~file service =
  Executor.run (System.public t.system) ~cs_key:t.key ~server:t.server
    ~behaviour:t.compute ~drbg:t.drbg ~owner ~file service

(* The warrant must be from the owner whose data the execution read,
   delegated to the DA; that and its expiry are checked on every
   request, and only its signature is looked up in the memo. *)
let respond_to_audit t ~now execution
    (challenge : Sc_audit.Protocol.challenge) =
  let w = challenge.Sc_audit.Protocol.warrant.Sc_ibc.Warrant.warrant in
  if
    w.Sc_ibc.Warrant.delegator = Executor.owner execution
    && w.Sc_ibc.Warrant.delegatee = System.da_id t.system
  then
    Sc_audit.Protocol.respond ~memo:t.warrants (System.public t.system) ~now
      execution challenge
  else None
