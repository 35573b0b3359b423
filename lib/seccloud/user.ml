module Signer = Sc_storage.Signer
module Warrant = Sc_ibc.Warrant

type t = { system : System.t; id : string; key : Sc_ibc.Setup.identity_key }

let create system ~id = { system; id; key = System.register_user system id }
let id t = t.id
let key t = t.key

let sign_file t ~cs_id ~file payloads =
  Sc_telemetry.Telemetry.with_span ~name:"user.sign_file"
    ~attrs:[ "blocks", string_of_int (List.length payloads) ]
  @@ fun () ->
  Signer.sign_file (System.public t.system) t.key
    ~bytes_source:(System.bytes_source t.system)
    ~cs_id ~da_id:(System.da_id t.system) ~file payloads

let store t cloud ~file payloads =
  let upload = sign_file t ~cs_id:(Cloud.id cloud) ~file payloads in
  Cloud.accept_upload cloud upload

let store_over t ~transport ~cs_id ~file payloads =
  let upload = sign_file t ~cs_id ~file payloads in
  match Transport.call transport ~expect:"ack" (Wire.Upload upload) with
  | Error e -> Error e
  | Ok (Wire.Ack { ok; _ }) -> Ok ok
  | Ok _ -> Ok false

let delegate_audit t ~now ~lifetime ~scope =
  Warrant.issue (System.public t.system) t.key
    ~bytes_source:(System.bytes_source t.system)
    ~delegatee:(System.da_id t.system) ~now ~lifetime ~scope

let verify_own_block t ~role ~verifier_key
    { Sc_storage.Server.claimed; signed } =
  Signer.verify_block (System.public t.system) ~verifier_key ~role
    ~q_id:t.key.Sc_ibc.Setup.q_id claimed signed
