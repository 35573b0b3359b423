(** Merkle hash trees (eq. 6 and Figure 3 of the paper): one
    persistent, path-copying, rank-annotated tree serves computation
    commitments and dynamic storage alike.

    Leaves are domain-separated SHA-256 hashes of caller payloads;
    interior nodes are Omega(V) = H("node:" || Omega(left) ||
    Omega(right)).  The shape is canonical (left child = largest power
    of two strictly below the leaf count; equivalently, pair nodes level
    by level and promote an odd last node unchanged), so a single-leaf
    tree has root = leaf hash and a build-once commitment is the
    degenerate case of the dynamic tree.  Mutations copy one path
    instead of rebuilding every level:

    - {!modify} and {!append} are O(log n) hashes, all untouched nodes
      shared between versions.  There is no structural insert or
      delete: a deletion is a tombstone {!modify}, so leaf positions
      never shift;
    - a {!proof} is the claimed (index, total) plus the sibling hashes
      -- the "sibling sets" the cloud server returns in the Audit
      Response step.  {!verify} derives every sibling's side from the
      claim, so position is bound as strongly as content: the data
      dynamics of Wang-style public auditing (arXiv:1405.6263,
      arXiv:1612.08029) on SecCloud's tree;
    - {!Frontier} is the O(log n) owner-side digest state that makes
      appends local (no fetch-all-leaf-hashes round trip). *)

type t
(** Immutable; every operation returns a new version sharing structure
    with the old one. *)

type side = L | R

type proof = {
  index : int;  (** claimed leaf position *)
  total : int;  (** leaf count at proof time *)
  path : string list;  (** sibling hashes, bottom-up *)
}

val leaf_hash : string -> string
(** Domain-separated hash of a leaf payload. *)

val build : string list -> t
(** From leaf payloads. @raise Invalid_argument on the empty list. *)

val of_leaf_hashes : string list -> t
(** From precomputed leaf hashes.
    @raise Invalid_argument on the empty list. *)

val root : t -> string

val leaf : t -> int -> string
(** Stored hash of leaf [i]. @raise Invalid_argument out of bounds. *)

val leaf_hashes : t -> string list

val modify : t -> int -> string -> t
(** [modify t i h] replaces leaf [i]'s hash: O(log n).
    @raise Invalid_argument out of bounds. *)

val append : t -> string -> t
(** Add a leaf hash at the end: O(log n). *)

val proof : t -> int -> proof
(** Authentication path for leaf [i]: O(log n).
    @raise Invalid_argument out of bounds. *)

val expected_geometry : total:int -> index:int -> side list
(** The bottom-up sibling sides the canonical shape dictates for
    [index] among [total] leaves; its length is the number of hashes a
    proof for that claim carries.
    @raise Invalid_argument unless [0 <= index < total]. *)

val root_of_proof : leaf_hash:string -> proof -> string option
(** Fold a leaf hash up the path along {!expected_geometry} for the
    proof's claim: the root the proof yields, or [None] when the claim
    is out of range or the hash count differs from the geometry depth.
    Folding a {e new} leaf through an old path gives the post-modify
    root. *)

val verify : root:string -> leaf_hash:string -> proof -> bool
(** [root_of_proof] lands on [root].  The sides are pure arithmetic on
    ([index], [total]), so a lying server cannot relocate a leaf; the
    caller is expected to bind [index] to the slot it asked for and
    [total] to a signed count. *)

(** Owner-side append state: the <= log2(n)+1 perfect-subtree roots
    named by the binary representation of the leaf count.  The
    canonical root is their right-fold, so a client holding a frontier
    can append and re-root locally — O(log n) state, zero server
    round-trips. *)
module Frontier : sig
  type frontier = (int * string) list
  (** (rank, hash) pairs, decreasing ranks. *)

  val of_tree : t -> frontier
  val total : frontier -> int

  val root : frontier -> string
  (** @raise Invalid_argument on the empty frontier. *)

  val append : frontier -> string -> frontier
  (** Binary-counter increment: O(1) amortized, O(log n) worst. *)

  val modify : frontier -> proof -> leaf_hash:string -> frontier
  (** Re-root after replacing the proved leaf: folds the in-block
      prefix of the (already verified) path onto the one affected
      frontier block. *)
end
