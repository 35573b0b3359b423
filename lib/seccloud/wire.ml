module Block = Sc_storage.Block
module Signer = Sc_storage.Signer
module Server = Sc_storage.Server
module Task = Sc_compute.Task
module Executor = Sc_compute.Executor
module Protocol = Sc_audit.Protocol
module Merkle = Sc_merkle.Dynamic_tree
module Setup = Sc_ibc.Setup
module Ibs = Sc_ibc.Ibs
module Warrant = Sc_ibc.Warrant
module Curve = Sc_ec.Curve
module Tate = Sc_pairing.Tate

module Telemetry = Sc_telemetry.Telemetry
module Labels = Sc_telemetry.Labels

exception Decode_error = Codec.Decode_error

type msg =
  | Upload of Signer.upload
  | Storage_challenge of { file : string; indices : int list }
  | Storage_response of (int * Server.read_result option) list
  | Compute_request of { owner : string; file : string; service : Task.service }
  | Compute_commitment of {
      results : int array;
      commitment : Protocol.commitment;
    }
  | Audit_challenge of { owner : string; file : string; challenge : Protocol.challenge }
  | Audit_response of Executor.response list
  | Ack of { ok : bool; detail : string }

(* Per-message-kind byte accounting: [wire.tx.*] counts every encode
   (exactly what the simulator charges the network for), [wire.rx.*]
   every successful decode. *)

let kind_name = function
  | Upload _ -> "upload"
  | Storage_challenge _ -> "storage_challenge"
  | Storage_response _ -> "storage_response"
  | Compute_request _ -> "compute_request"
  | Compute_commitment _ -> "compute_commitment"
  | Audit_challenge _ -> "audit_challenge"
  | Audit_response _ -> "audit_response"
  | Ack _ -> "ack"

let kinds =
  [ "upload"; "storage_challenge"; "storage_response"; "compute_request";
    "compute_commitment"; "audit_challenge"; "audit_response"; "ack" ]

(* Per-kind accounting goes through the bounded-cardinality labeled
   families [wire.{tx,rx}.{msgs,bytes}] with label [kind] — the cells
   are resolved once here and held, so the per-event cost is a plain
   counter bump. *)
let counters_of prefix =
  let msgs = Labels.counter_vec ~label:"kind" ("wire." ^ prefix ^ ".msgs") in
  let bytes =
    Labels.counter_vec ~label:"kind" ("wire." ^ prefix ^ ".kind_bytes")
  in
  List.map
    (fun kind -> kind, (Labels.counter msgs kind, Labels.counter bytes kind))
    kinds

let tx_by_kind = counters_of "tx"
let rx_by_kind = counters_of "rx"
let c_tx_bytes = Telemetry.counter "wire.tx.bytes"
let c_rx_bytes = Telemetry.counter "wire.rx.bytes"

let account by_kind total kind bytes =
  let msgs, kind_bytes = List.assoc kind by_kind in
  Telemetry.incr msgs;
  Telemetry.add kind_bytes bytes;
  Telemetry.add total bytes

(* --- primitive serializers ----------------------------------------- *)

let w_point pub b pt =
  Codec.w_bytes b (Curve.to_bytes pub.Setup.prm.Sc_pairing.Params.curve pt)

let r_point pub r =
  match Curve.of_bytes pub.Setup.prm.Sc_pairing.Params.curve (Codec.r_bytes r) with
  | Some pt -> pt
  | None -> raise (Codec.Decode_error "invalid curve point")

let w_gt pub b g = Codec.w_bytes b (Tate.gt_to_bytes pub.Setup.prm g)

let r_gt pub r =
  match Tate.gt_of_bytes pub.Setup.prm (Codec.r_bytes r) with
  | Some g -> g
  | None -> raise (Codec.Decode_error "invalid GT element")

let w_ibs pub b s = Codec.w_bytes b (Ibs.to_bytes pub s)

let r_ibs pub r =
  match Ibs.of_bytes pub (Codec.r_bytes r) with
  | Some s -> s
  | None -> raise (Codec.Decode_error "invalid IBS signature")

let w_block b (blk : Block.t) =
  Codec.w_bytes b blk.Block.file;
  Codec.w_u32 b blk.Block.index;
  Codec.w_bytes b blk.Block.data

let r_block r =
  let file = Codec.r_bytes r in
  let index = Codec.r_u32 r in
  let data = Codec.r_bytes r in
  { Block.file; index; data }

let w_signed_block pub b (sb : Signer.signed_block) =
  w_block b sb.Signer.block;
  w_point pub b sb.Signer.u;
  w_gt pub b sb.Signer.sigma_cs;
  w_gt pub b sb.Signer.sigma_da

let r_signed_block pub r =
  let block = r_block r in
  let u = r_point pub r in
  let sigma_cs = r_gt pub r in
  let sigma_da = r_gt pub r in
  { Signer.block; u; sigma_cs; sigma_da }

let rec w_func b = function
  | Task.Sum -> Codec.w_u8 b 0
  | Task.Average -> Codec.w_u8 b 1
  | Task.Max -> Codec.w_u8 b 2
  | Task.Min -> Codec.w_u8 b 3
  | Task.Count -> Codec.w_u8 b 4
  | Task.Dot ws ->
    Codec.w_u8 b 5;
    Codec.w_list b (fun b v -> Codec.w_i64 b v) ws
  | Task.Polynomial cs ->
    Codec.w_u8 b 6;
    Codec.w_list b (fun b v -> Codec.w_i64 b v) cs
  | Task.Compose (outer, inners) ->
    Codec.w_u8 b 7;
    w_func b outer;
    Codec.w_list b w_func inners

let rec r_func r =
  match Codec.r_u8 r with
  | 0 -> Task.Sum
  | 1 -> Task.Average
  | 2 -> Task.Max
  | 3 -> Task.Min
  | 4 -> Task.Count
  | 5 -> Task.Dot (Codec.r_list r Codec.r_i64)
  | 6 -> Task.Polynomial (Codec.r_list r Codec.r_i64)
  | 7 ->
    let outer = r_func r in
    let inners = Codec.r_list r r_func in
    Task.Compose (outer, inners)
  | _ -> raise (Codec.Decode_error "invalid function tag")

let w_request b (req : Task.request) =
  w_func b req.Task.func;
  Codec.w_u32 b req.Task.position

let r_request r =
  let func = r_func r in
  let position = Codec.r_u32 r in
  { Task.func; position }

let w_proof b (p : Merkle.proof) =
  Codec.w_u32 b p.Merkle.index;
  Codec.w_u32 b p.Merkle.total;
  Codec.w_list b Codec.w_bytes p.Merkle.path

(* The claim is validated, and the hash count checked against the
   depth it dictates (at most 32 for a u32 total), before anything is
   sized by it. *)
let r_proof r =
  let index = Codec.r_u32 r in
  let total = Codec.r_u32 r in
  if total = 0 then raise (Codec.Decode_error "proof over zero leaves");
  if index >= total then raise (Codec.Decode_error "proof index out of range");
  let depth = List.length (Merkle.expected_geometry ~total ~index) in
  if Codec.r_u32 r <> depth then
    raise (Codec.Decode_error "proof length differs from its geometry");
  let path = List.init depth (fun _ -> Codec.r_bytes r) in
  { Merkle.index; total; path }

let w_warrant pub b (w : Warrant.signed) =
  Codec.w_bytes b w.Warrant.warrant.Warrant.delegator;
  Codec.w_bytes b w.Warrant.warrant.Warrant.delegatee;
  Codec.w_float b w.Warrant.warrant.Warrant.issued_at;
  Codec.w_float b w.Warrant.warrant.Warrant.expires_at;
  Codec.w_bytes b w.Warrant.warrant.Warrant.scope;
  w_ibs pub b w.Warrant.signature

let r_warrant pub r =
  let delegator = Codec.r_bytes r in
  let delegatee = Codec.r_bytes r in
  let issued_at = Codec.r_float r in
  let expires_at = Codec.r_float r in
  let scope = Codec.r_bytes r in
  let signature = r_ibs pub r in
  {
    Warrant.warrant = { Warrant.delegator; delegatee; issued_at; expires_at; scope };
    signature;
  }

let w_read_result pub b { Server.claimed; signed } =
  w_block b claimed;
  w_signed_block pub b signed

let r_read_result pub r =
  let claimed = r_block r in
  let signed = r_signed_block pub r in
  { Server.claimed; signed }

let w_response pub b (resp : Executor.response) =
  Codec.w_u32 b resp.Executor.task_index;
  w_request b resp.Executor.request;
  Codec.w_option b (w_read_result pub) resp.Executor.read;
  Codec.w_i64 b resp.Executor.result;
  w_proof b resp.Executor.proof

let r_response pub r =
  let task_index = Codec.r_u32 r in
  let request = r_request r in
  let read = Codec.r_option r (r_read_result pub) in
  let result = Codec.r_i64 r in
  let proof = r_proof r in
  { Executor.task_index; request; read; result; proof }

let w_commitment pub b (c : Protocol.commitment) =
  Codec.w_bytes b c.Protocol.root;
  w_ibs pub b c.Protocol.root_signature;
  Codec.w_bytes b c.Protocol.cs_id;
  Codec.w_u32 b c.Protocol.n_tasks

let r_commitment pub r =
  let root = Codec.r_bytes r in
  let root_signature = r_ibs pub r in
  let cs_id = Codec.r_bytes r in
  let n_tasks = Codec.r_u32 r in
  { Protocol.root; root_signature; cs_id; n_tasks }

(* --- message framing ------------------------------------------------ *)

let encode pub msg =
  let b = Buffer.create 256 in
  (match msg with
  | Upload u ->
    Codec.w_u8 b 1;
    Codec.w_bytes b u.Signer.file;
    Codec.w_bytes b u.Signer.owner;
    Codec.w_list b (w_signed_block pub) (Array.to_list u.Signer.blocks)
  | Storage_challenge { file; indices } ->
    Codec.w_u8 b 2;
    Codec.w_bytes b file;
    Codec.w_list b (fun b i -> Codec.w_u32 b i) indices
  | Storage_response items ->
    Codec.w_u8 b 3;
    Codec.w_list b
      (fun b (i, read) ->
        Codec.w_u32 b i;
        Codec.w_option b (w_read_result pub) read)
      items
  | Compute_request { owner; file; service } ->
    Codec.w_u8 b 4;
    Codec.w_bytes b owner;
    Codec.w_bytes b file;
    Codec.w_list b w_request service
  | Compute_commitment { results; commitment } ->
    Codec.w_u8 b 5;
    Codec.w_list b (fun b v -> Codec.w_i64 b v) (Array.to_list results);
    w_commitment pub b commitment
  | Audit_challenge { owner; file; challenge } ->
    Codec.w_u8 b 6;
    Codec.w_bytes b owner;
    Codec.w_bytes b file;
    Codec.w_list b (fun b i -> Codec.w_u32 b i) challenge.Protocol.sample_indices;
    w_warrant pub b challenge.Protocol.warrant
  | Audit_response responses ->
    Codec.w_u8 b 7;
    Codec.w_list b (w_response pub) responses
  | Ack { ok; detail } ->
    Codec.w_u8 b 8;
    Codec.w_bool b ok;
    Codec.w_bytes b detail);
  let data = Buffer.contents b in
  account tx_by_kind c_tx_bytes (kind_name msg) (String.length data);
  data

let decode pub data =
  let r = Codec.reader data in
  let msg =
    match Codec.r_u8 r with
    | 1 ->
      let file = Codec.r_bytes r in
      let owner = Codec.r_bytes r in
      let blocks = Array.of_list (Codec.r_list r (r_signed_block pub)) in
      Upload { Signer.file; owner; blocks }
    | 2 ->
      let file = Codec.r_bytes r in
      let indices = Codec.r_list r Codec.r_u32 in
      Storage_challenge { file; indices }
    | 3 ->
      Storage_response
        (Codec.r_list r (fun r ->
             let i = Codec.r_u32 r in
             let read = Codec.r_option r (r_read_result pub) in
             i, read))
    | 4 ->
      let owner = Codec.r_bytes r in
      let file = Codec.r_bytes r in
      let service = Codec.r_list r r_request in
      Compute_request { owner; file; service }
    | 5 ->
      let results = Array.of_list (Codec.r_list r Codec.r_i64) in
      let commitment = r_commitment pub r in
      Compute_commitment { results; commitment }
    | 6 ->
      let owner = Codec.r_bytes r in
      let file = Codec.r_bytes r in
      let sample_indices = Codec.r_list r Codec.r_u32 in
      let warrant = r_warrant pub r in
      Audit_challenge
        { owner; file; challenge = { Protocol.sample_indices; warrant } }
    | 7 -> Audit_response (Codec.r_list r (r_response pub))
    | 8 ->
      let ok = Codec.r_bool r in
      let detail = Codec.r_bytes r in
      Ack { ok; detail }
    | _ -> raise (Codec.Decode_error "unknown message tag")
  in
  Codec.expect_end r;
  account rx_by_kind c_rx_bytes (kind_name msg) (String.length data);
  msg
