module Signer = Sc_storage.Signer
module Warrant = Sc_ibc.Warrant

module SMap = Map.Make (String)

(* Designation bases per cloud-server id; the DA is fixed per system.
   Published like [Params.cache_get]'s maps — an immutable map behind
   an [Atomic] — but without a lock: bases are deterministic, so two
   domains that race on a miss build equal values, and whichever
   publish lands last is as good as the other. *)
type t = {
  system : System.t;
  id : string;
  key : Sc_ibc.Setup.identity_key;
  bases : Signer.bases SMap.t Atomic.t;
}

let create system ~id =
  { system; id; key = System.register_user system id; bases = Atomic.make SMap.empty }

let id t = t.id
let key t = t.key

let bases t ~cs_id =
  match SMap.find_opt cs_id (Atomic.get t.bases) with
  | Some b -> b
  | None ->
    let b =
      Signer.bases (System.public t.system) t.key ~cs_id
        ~da_id:(System.da_id t.system)
    in
    let rec publish () =
      let m = Atomic.get t.bases in
      if not (Atomic.compare_and_set t.bases m (SMap.add cs_id b m)) then
        publish ()
    in
    publish ();
    b

let sign_file t ~cs_id ~file payloads =
  Sc_telemetry.Telemetry.with_span ~name:"user.sign_file"
    ~attrs:[ "blocks", string_of_int (List.length payloads) ]
  @@ fun () ->
  Signer.sign_file (System.public t.system) t.key
    ~bytes_source:(System.bytes_source t.system)
    ~bases:(bases t ~cs_id) ~file payloads

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
