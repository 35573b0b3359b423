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
}

let create system ~id ?(storage = Server.Honest) ?(compute = Executor.Honest) () =
  let key = System.cs_key system id in
  let drbg = Sc_hash.Drbg.create ~seed:("cloud-server:" ^ id) in
  { system; id; key; server = Server.create storage ~drbg; compute; drbg }

let id t = t.id
let storage t = t.server
let storage_confidence t = Server.storage_confidence t.server
let computing_confidence t = Executor.computing_confidence t.compute

let accept_upload t (upload : Signer.upload) =
  let pub = System.public t.system in
  let q_id = Sc_ibc.Setup.q_of_id pub upload.Signer.owner in
  let ok =
    Array.for_all
      (fun (sb : Signer.signed_block) ->
        Signer.verify_block pub ~verifier_key:t.key ~role:`Cs ~q_id
          sb.Signer.block sb)
      upload.Signer.blocks
  in
  if ok then Server.store t.server upload;
  ok

let accept_upload_unchecked t upload = Server.store t.server upload

let execute t ~owner ~file service =
  Executor.run (System.public t.system) ~cs_key:t.key ~server:t.server
    ~behaviour:t.compute ~drbg:t.drbg ~owner ~file service

let respond_to_audit t ~now execution challenge =
  Sc_audit.Protocol.respond (System.public t.system) ~now execution challenge
