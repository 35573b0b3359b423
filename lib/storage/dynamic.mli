(** Dynamic data storage: authenticated update / append / delete.

    The paper's Protocol II is static (sign once, store, audit).  The
    related work it builds on (Wang et al. [5], Erway et al. [15])
    adds *dynamics* via Merkle hash trees; this module provides that
    extension on top of {!Signer}/{!Server}, now backed by the
    persistent {!Sc_merkle.Dynamic_tree}:

    - the client (data owner) keeps only the O(log n) tree frontier
      and its keys — no block data, no full tree;
    - every block is signed over (file, index, version, kind,
      payload), so a server replaying a stale version fails the tree
      check, a server moving data across positions fails the
      signature check, and a tombstone can never collide with user
      data (deletion is a typed leaf state, not a magic payload);
    - [update]/[delete] verify the server's pre-state proof and fold
      the *new* leaf through the same authentication path: O(log n)
      hashing on both sides, no rebuild;
    - [append] is local on both sides (frontier increment / right-
      spine extension) — the previous fetch-all-leaf-hashes O(n)
      round trip is gone;
    - every mutation cross-checks the server's resulting root against
      the client's independently computed one and surfaces a lying or
      lazy server as a typed {!update_error} immediately;
    - [batch] folds k mutations into one root transition so the owner
      signs a single root statement for the lot;
    - the DA audits against a client-signed root statement, checking
      the designated signature, the version, and the rank-annotated
      Merkle path of each sampled block; the stated block count is
      validated against the server's entry range and a hard cap
      before any allocation. *)

type content = Data of string | Tombstone
(** Leaf state.  Deletion is represented structurally — any byte
    string, including former sentinel values, is valid data. *)

type client
(** Owner-side state: frontier, count, keys.  O(log n) in the file
    size, independent of block contents. *)

type server
(** Cloud-side state: versioned signed blocks plus the persistent
    tree. *)

val signing_message :
  file:string -> index:int -> version:int -> payload:string -> string
(** The versioned message covered by a data block's signature. *)

val root_statement_msg : file:string -> count:int -> root:string -> string
(** Canonical statement the owner signs when publishing a root. *)

val parse_root_statement : string -> (string * int * string) option
(** Inverse of {!root_statement_msg}: [(file, count, root_hex)].
    Rejects anything that is not a canonical root statement. *)

val init :
  Sc_ibc.Setup.public ->
  Sc_ibc.Setup.identity_key ->
  bytes_source:(int -> string) ->
  cs_id:string ->
  da_id:string ->
  file:string ->
  string list ->
  client * server
(** Sign every payload at version 0, build the tree on both sides.
    The client keeps its two designation bases ({!Sc_ibc.Dvs.base},
    one pairing each), so later writes sign without pairings.
    @raise Invalid_argument on an empty payload list. *)

val root : client -> string
val count : client -> int
val server_root : server -> string
val server_count : server -> int

type read_proof = {
  content : content;
  version : int;
  u : Sc_ec.Curve.point;
  sigma_cs : Sc_pairing.Tate.gt;
  sigma_da : Sc_pairing.Tate.gt;
  proof : Sc_merkle.Dynamic_tree.proof;
}

val read : server -> int -> read_proof option
(** Server answers a read with the block, its signature material and
    its rank-annotated authentication path. *)

val verify_read : client -> index:int -> read_proof -> bool
(** Owner-side check of a read against the held root: Merkle path,
    path geometry for (index, count), version binding — no pairing
    needed. *)

val is_deleted : read_proof -> bool

type update_error =
  | Not_found  (** index outside the live range *)
  | Bad_proof  (** the server's pre-state failed verification *)
  | Diverged of { expected : string; server : string }
      (** the server's post-op root does not match the client's
          independently computed one — a lying or lazy server, caught
          at mutation time rather than on the next read.  The client
          state holds the correct [expected] root. *)

val update :
  client -> server -> index:int -> string -> (unit, update_error) result
(** Replace block [index] with a new payload (version bumped).  The
    client verifies the server's pre-state, signs the new version,
    computes the new root from the authentication path alone, and
    both sides move in O(log n).  Client state is unchanged on
    [Not_found] / [Bad_proof]. *)

val append : client -> server -> string -> (unit, update_error) result
(** Add a block at index [count]: frontier increment client-side,
    right-spine extension server-side — O(log n), no block transfer. *)

val delete : client -> server -> index:int -> (unit, update_error) result
(** Tombstone a block (authenticated logical delete, version bumped).
    Encoded as a typed leaf state — no payload can collide with it. *)

type batch_op =
  | Update of { index : int; payload : string }
  | Append of { payload : string }
  | Delete of { index : int }

val batch : client -> server -> batch_op list -> (int, update_error) result
(** Apply the ops in order under one telemetry span; each op is
    individually proof-checked but only the final root needs a
    {!publish_root} signature — k mutations, one signed root
    transition.  Returns the number applied; stops at the first
    error. *)

type audit_report = {
  sampled : int;
  valid : int;
  invalid_indices : int list;
  intact : bool;
}

val publish_root :
  client -> bytes_source:(int -> string) -> string * Sc_ibc.Ibs.t
(** A root statement over (file, count, root) signed by the owner,
    handed to the DA so audits do not need the owner online. *)

val audit_count_cap : int
(** Hard ceiling on the block count an audit will honour; a statement
    claiming more classifies as not intact without allocating. *)

val audit :
  Sc_ibc.Setup.public ->
  verifier_key:Sc_ibc.Setup.identity_key ->
  owner:string ->
  file:string ->
  root_statement:string * Sc_ibc.Ibs.t ->
  server ->
  drbg:Sc_hash.Drbg.t ->
  samples:int ->
  audit_report
(** DA-side audit: verifies the owner's root statement, validates the
    stated count against the server's entry range and
    {!audit_count_cap} {e before} sizing any allocation from it, then
    for each sampled index checks the designated signature
    (version- and kind-bound) and the rank-annotated Merkle path —
    position as well as content — against the stated root.  Any
    validation failure yields [intact = false] rather than an
    exception. *)

val make_lazy : server -> unit
(** Simulated misbehaviour for tests and campaigns: subsequent
    mutations write the entry but skip the tree update, so the
    server's root silently stops tracking the client's — exactly the
    divergence {!update_error.Diverged} exists to catch. *)

val corrupt_entry : server -> int -> unit
(** Simulated storage rot for campaigns: flip one payload byte of a
    stored data block without touching the tree. *)
