module Setup = Sc_ibc.Setup
module Ibs = Sc_ibc.Ibs
module Dvs = Sc_ibc.Dvs
module Dtree = Sc_merkle.Dynamic_tree
module Frontier = Dtree.Frontier
module Telemetry = Sc_telemetry.Telemetry

(* Deletion is a *typed* leaf state, not a magic payload.  The old
   scheme encoded tombstones as the reserved payload
   "\x00__tombstone__", so a user block whose bytes happened to equal
   the sentinel was silently reported deleted and [delete] was
   indistinguishable from storing that payload — the regression test
   keeps the collision on record.  Every framing below carries an
   explicit kind tag instead. *)
type content = Data of string | Tombstone

let kind_tag = function Data _ -> "data" | Tombstone -> "gone"
let payload_bytes = function Data p -> p | Tombstone -> ""

(* Canonical length-prefixed encodings (see Sc_hash.Encode): the old
   "dblock|%s|%d|%d|%s" and "%d|%d|%s" formats were ambiguous under
   delimiter injection — a '|' in the file name or payload could
   cross-bind a signature or leaf to a different tuple. *)
let signing_message_c ~file ~index ~version content =
  Sc_hash.Encode.canonical
    [
      "dblock"; file; string_of_int index; string_of_int version;
      kind_tag content; payload_bytes content;
    ]

let signing_message ~file ~index ~version ~payload =
  signing_message_c ~file ~index ~version (Data payload)

(* Leaf contents bind version, index, kind and payload, so stale
   replays, cross-position swaps and data/tombstone confusion all
   change the leaf hash. *)
let leaf_content_c ~index ~version content =
  Sc_hash.Encode.canonical
    [
      "dleaf"; string_of_int version; string_of_int index;
      kind_tag content; payload_bytes content;
    ]

type entry = {
  content : content;
  version : int;
  u : Sc_ec.Curve.point;
  sigma_cs : Sc_pairing.Tate.gt;
  sigma_da : Sc_pairing.Tate.gt;
}

type server = {
  mutable s_entries : entry array;  (* capacity-doubling; s_count live *)
  mutable s_count : int;
  mutable s_tree : Dtree.t;
  mutable s_lazy : bool;  (* simulated misbehaviour: skip tree writes *)
}

(* The owner keeps the O(log n) frontier — the perfect-subtree roots
   named by the binary representation of the block count — instead of
   a bare root: appends become local, and the root/count are derived
   on demand.  Still no block data client-side.  The designation
   bases ê(sk_ID, Q_CS) and ê(sk_ID, Q_DA) are built once at [init],
   so a signed write pays two comb exponentiations and no pairing. *)
type client = {
  pub : Setup.public;
  key : Setup.identity_key;
  bases : Signer.bases;
  c_file : string;
  mutable c_frontier : Frontier.frontier;
  c_bytes : int -> string;
}

type read_proof = {
  content : content;
  version : int;
  u : Sc_ec.Curve.point;
  sigma_cs : Sc_pairing.Tate.gt;
  sigma_da : Sc_pairing.Tate.gt;
  proof : Dtree.proof;
}

(* Signs (index, version, content) triples as one batch: the initial
   file is one batch, a single write the one-entry case. *)
let sign_entries client items =
  let signed =
    Dvs.sign_batch client.pub client.key ~bytes_source:client.c_bytes
      client.bases
      (List.map
         (fun (index, version, content) ->
           signing_message_c ~file:client.c_file ~index ~version content)
         items)
  in
  List.map2
    (fun (_, version, content) (u, sigma_cs, sigma_da) ->
      { content; version; u; sigma_cs; sigma_da })
    items signed

let sign_entry client ~index ~version content =
  List.hd (sign_entries client [ index, version, content ])

let entry_leaf_hash ~index (e : entry) =
  Dtree.leaf_hash (leaf_content_c ~index ~version:e.version e.content)

let init pub key ~bytes_source ~cs_id ~da_id ~file payloads =
  if payloads = [] then invalid_arg "Dynamic.init: empty payload list";
  let client =
    {
      pub;
      key;
      bases = Signer.bases pub key ~cs_id ~da_id;
      c_file = file;
      c_frontier = [];
      c_bytes = bytes_source;
    }
  in
  let entries =
    Array.of_list
      (sign_entries client
         (List.mapi (fun index payload -> index, 0, Data payload) payloads))
  in
  let tree =
    Dtree.of_leaf_hashes
      (Array.to_list (Array.mapi (fun i e -> entry_leaf_hash ~index:i e) entries))
  in
  let server =
    { s_entries = entries; s_count = Array.length entries; s_tree = tree;
      s_lazy = false }
  in
  client.c_frontier <- Frontier.of_tree tree;
  client, server

let root client = Frontier.root client.c_frontier
let count client = Frontier.total client.c_frontier
let server_root server = Dtree.root server.s_tree
let make_lazy server = server.s_lazy <- true

let read server index =
  if index < 0 || index >= server.s_count then None
  else begin
    let (e : entry) = server.s_entries.(index) in
    Some
      {
        content = e.content;
        version = e.version;
        u = e.u;
        sigma_cs = e.sigma_cs;
        sigma_da = e.sigma_da;
        proof = Dtree.proof server.s_tree index;
      }
  end

let verify_read client ~index (rp : read_proof) =
  rp.proof.Dtree.index = index
  && rp.proof.Dtree.total = count client
  && Dtree.verify ~root:(root client)
       ~leaf_hash:
         (Dtree.leaf_hash
            (leaf_content_c ~index ~version:rp.version rp.content))
       rp.proof

let is_deleted (rp : read_proof) = rp.content = Tombstone

(* --- mutations ------------------------------------------------------ *)

type update_error =
  | Not_found
  | Bad_proof
  | Diverged of { expected : string; server : string }

let set_entry server index entry =
  server.s_entries.(index) <- entry

let push_entry server entry =
  let cap = Array.length server.s_entries in
  if server.s_count = cap then begin
    let bigger = Array.make (max 1 (2 * cap)) server.s_entries.(0) in
    Array.blit server.s_entries 0 bigger 0 cap;
    server.s_entries <- bigger
  end;
  server.s_entries.(server.s_count) <- entry;
  server.s_count <- server.s_count + 1

(* Shared path of update/delete: verify the server's pre-state proof,
   sign the new versioned content, move both sides in O(log n), then
   cross-check the server's root against the client's independently
   computed one — a lying or lazy server is caught *now*, as a typed
   [Diverged], not on the next read. *)
let write client server ~index content =
  match read server index with
  | None -> Error Not_found
  | Some pre ->
    if not (verify_read client ~index pre) then Error Bad_proof
    else begin
      let version = pre.version + 1 in
      let entry = sign_entry client ~index ~version content in
      let new_leaf =
        Dtree.leaf_hash (leaf_content_c ~index ~version content)
      in
      (* New root from the *old* authentication path and the *new*
         leaf: O(log n) client-side work, no trust in the server.  The
         path's geometry was accepted by [verify_read], so it folds. *)
      let expected =
        Option.get (Dtree.root_of_proof ~leaf_hash:new_leaf pre.proof)
      in
      set_entry server index entry;
      if not server.s_lazy then
        server.s_tree <- Dtree.modify server.s_tree index new_leaf;
      client.c_frontier <-
        Frontier.modify client.c_frontier pre.proof ~leaf_hash:new_leaf;
      let server_now = server_root server in
      if String.equal server_now expected then Ok ()
      else Error (Diverged { expected; server = server_now })
    end

let update client server ~index payload =
  Telemetry.with_span ~name:"dynamic.update" @@ fun () ->
  write client server ~index (Data payload)

let delete client server ~index =
  Telemetry.with_span ~name:"dynamic.delete" @@ fun () ->
  write client server ~index Tombstone

(* Append is local on both sides: the client folds the new leaf into
   its frontier (O(log n), no server data needed — the old
   implementation fetched *all* leaf hashes and rebuilt), the server
   extends its tree down the right spine. *)
let append client server payload =
  Telemetry.with_span ~name:"dynamic.append" @@ fun () ->
  let index = count client in
  if server.s_count <> index then
    Error
      (Diverged
         { expected = root client; server = server_root server })
  else begin
    let entry = sign_entry client ~index ~version:0 (Data payload) in
    let leaf = entry_leaf_hash ~index entry in
    push_entry server entry;
    if not server.s_lazy then
      server.s_tree <- Dtree.append server.s_tree leaf;
    client.c_frontier <- Frontier.append client.c_frontier leaf;
    let expected = root client in
    let server_now = server_root server in
    if String.equal server_now expected then Ok ()
    else Error (Diverged { expected; server = server_now })
  end

(* --- batched root transitions --------------------------------------- *)

type batch_op =
  | Update of { index : int; payload : string }
  | Append of { payload : string }
  | Delete of { index : int }

(* Apply k mutations under one span and — the point of batching — one
   subsequent [publish_root]: intermediate roots exist (each op is
   individually verified) but only the final one needs a signature. *)
let batch client server ops =
  Telemetry.with_span ~name:"dynamic.batch"
    ~attrs:[ "ops", string_of_int (List.length ops) ]
  @@ fun () ->
  let rec go applied = function
    | [] -> Ok applied
    | op :: rest -> (
      let result =
        match op with
        | Update { index; payload } -> write client server ~index (Data payload)
        | Delete { index } -> write client server ~index Tombstone
        | Append { payload } -> append client server payload
      in
      match result with
      | Ok () -> go (applied + 1) rest
      | Error e -> Error e)
  in
  go 0 ops

(* --- auditing ------------------------------------------------------- *)

type audit_report = {
  sampled : int;
  valid : int;
  invalid_indices : int list;
  intact : bool;
}

let root_statement_msg ~file ~count ~root =
  Sc_hash.Encode.canonical
    [ "droot"; file; string_of_int count; Sc_hash.Sha256.hex_of_digest root ]

let publish_root client ~bytes_source =
  let msg =
    root_statement_msg ~file:client.c_file ~count:(count client)
      ~root:(root client)
  in
  msg, Ibs.sign client.pub client.key ~bytes_source msg

let parse_root_statement msg =
  match Sc_hash.Encode.decode msg with
  | Some [ "droot"; file; count; root_hex ] ->
    (match int_of_string_opt count with
    | Some count when count > 0 -> Some (file, count, root_hex)
    | Some _ | None -> None)
  | Some _ | None -> None

(* Hard ceiling on the block count an audit will honour.  The stated
   count arrives inside a signed-but-possibly-stale (or forged)
   statement; sizing any allocation from it before validation let a
   bogus statement with count = 2^60 DoS the auditor.  Anything above
   the cap — or beyond what the server actually holds — now classifies
   as [intact = false] without allocating. *)
let audit_count_cap = 1 lsl 22

let audit pub ~verifier_key ~owner ~file ~root_statement server ~drbg ~samples =
  Telemetry.with_span ~name:"dynamic.audit" @@ fun () ->
  let failure = { sampled = 0; valid = 0; invalid_indices = []; intact = false } in
  let stmt, stmt_sig = root_statement in
  if not (Ibs.verify pub ~signer:owner ~msg:stmt stmt_sig) then failure
  else
    match parse_root_statement stmt with
    | None -> failure
    | Some (stated_file, count, root_hex) ->
      if not (String.equal stated_file file) then failure
      else if count > audit_count_cap || count > server.s_count then failure
      else begin
        let idx = Sc_hash.Drbg.sample_prefix drbg ~n:count ~k:samples in
        (* The designated signature of a block whose path checks out,
           or [None] when the block already fails. *)
        let signature index =
          match read server index with
          | None -> None
          | Some rp ->
            let leaf =
              leaf_content_c ~index ~version:rp.version rp.content
            in
            (* Position-bound path check: the proof must claim exactly
               this index within exactly the signed population, and the
               fold along that claim's geometry must land on the
               published root. *)
            let path_ok =
              rp.proof.Dtree.index = index
              && rp.proof.Dtree.total = count
              && Option.map Sc_hash.Sha256.hex_of_digest
                   (Dtree.root_of_proof ~leaf_hash:(Dtree.leaf_hash leaf)
                      rp.proof)
                 = Some root_hex
            in
            if not path_ok then None
            else
              Some
                {
                  Sc_ibc.Agg.signer = owner;
                  msg =
                    signing_message_c ~file ~index ~version:rp.version
                      rp.content;
                  dvs = { Dvs.u = rp.u; sigma = rp.sigma_da };
                }
        in
        let indices = Array.to_list idx in
        let results =
          List.map2
            (fun i ok -> i, ok = Some true)
            indices
            (Sc_ibc.Agg.verify_each pub ~verifier_key
               (List.map signature indices))
        in
        let invalid =
          List.filter_map (fun (i, ok) -> if ok then None else Some i) results
        in
        {
          sampled = Array.length idx;
          valid = Array.length idx - List.length invalid;
          invalid_indices = invalid;
          intact = invalid = [];
        }
      end

(* Simulated storage rot for campaigns: flip one payload byte in an
   entry without touching the tree — exactly what a lazy server that
   lost data but kept serving old proofs looks like. *)
let corrupt_entry server index =
  if index >= 0 && index < server.s_count then begin
    let e = server.s_entries.(index) in
    match e.content with
    | Tombstone -> ()
    | Data p when String.length p = 0 -> ()
    | Data p ->
      let b = Bytes.of_string p in
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
      server.s_entries.(index) <-
        { e with content = Data (Bytes.to_string b) }
  end

(* Simulated misplacement for tests: entry [index] serves what entry
   [from] stores — the whole block, or only its U or its Σ_DA — again
   without touching the tree. *)
let serve_from server ~index ~from part =
  if index >= 0 && index < server.s_count && from >= 0 && from < server.s_count
  then begin
    let e = server.s_entries.(index) and d = server.s_entries.(from) in
    server.s_entries.(index) <-
      (match part with
      | `Block -> d
      | `U -> { e with u = d.u }
      | `Sigma_da -> { e with sigma_da = d.sigma_da })
  end
