module Setup = Sc_ibc.Setup

let src = Logs.Src.create "seccloud.system" ~doc:"System initialization events"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  sio : Setup.sio;
  pub : Setup.public;
  da_id : string;
  da_key : Setup.identity_key;
  cs_ids : string list;
  cs_keys : (string, Setup.identity_key) Hashtbl.t;
  users : (string, Setup.identity_key) Hashtbl.t;
  users_lock : Mutex.t;
      (* guards [users]: shard workers of the service layer register
         tenants concurrently from pool domains *)
  drbg : Sc_hash.Drbg.t;
}

let create ?(params = Sc_pairing.Params.small) ~seed ~cs_ids ~da_id () =
  let prm = Lazy.force params in
  let drbg = Sc_hash.Drbg.create ~seed:("seccloud-system:" ^ seed) in
  let bytes_source = Sc_hash.Drbg.bytes_source drbg in
  let sio = Setup.create prm ~bytes_source in
  let pub = Setup.public sio in
  let cs_keys = Hashtbl.create 8 in
  List.iter (fun id -> Hashtbl.replace cs_keys id (Setup.extract sio id)) cs_ids;
  Log.info (fun m ->
      m "system initialized: %d servers, da=%s, |q|=%d bits"
        (List.length cs_ids) da_id
        (Sc_bignum.Nat.bit_length prm.Sc_pairing.Params.q));
  {
    sio;
    pub;
    da_id;
    da_key = Setup.extract sio da_id;
    cs_ids;
    cs_keys;
    users = Hashtbl.create 8;
    users_lock = Mutex.create ();
    drbg;
  }

let public t = t.pub
let da_id t = t.da_id
let da_key t = t.da_key
let cs_ids t = t.cs_ids
let cs_key t id = Hashtbl.find t.cs_keys id

(* Extraction is outside the critical section (it is the expensive
   part and is a pure function of [id]); the table update is guarded
   so concurrent shard workers can register tenants safely.  A lost
   race extracts the same key twice and stores one copy — identical
   either way, so results never depend on the schedule. *)
let register_user t id =
  Mutex.lock t.users_lock;
  let known = Hashtbl.find_opt t.users id in
  Mutex.unlock t.users_lock;
  match known with
  | Some key -> key
  | None ->
    let key = Setup.extract t.sio id in
    Mutex.lock t.users_lock;
    let key =
      match Hashtbl.find_opt t.users id with
      | Some existing -> existing
      | None ->
        Hashtbl.replace t.users id key;
        key
    in
    Mutex.unlock t.users_lock;
    Log.info (fun m -> m "registered user %s" id);
    key

let bytes_source t = Sc_hash.Drbg.bytes_source t.drbg
