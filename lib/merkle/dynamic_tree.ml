(* Persistent, path-copying Merkle tree (eq. 6 and Figure 3 of the
   paper): the one tree behind computation commitments and dynamic
   storage.

   Leaves are SHA-256 hashes of caller payloads; an interior node is
   Omega(V) = H("node:" || Omega(left) || Omega(right)).  The shape is
   canonical: a node over [n] leaves has a perfect left subtree of
   [split n] leaves, the largest power of two strictly below [n], and
   the rest on the right.  That is exactly the tree level-by-level
   pairing produces (a trailing odd node promotes unchanged), so a
   build-once commitment is just the degenerate case, and

   - [modify] / [append] copy one root-to-leaf path: O(log n) hashes,
     everything else is shared between versions;
   - [insert] / [delete] at position [i] share every node left of [i]
     and rebuild only the suffix whose pairing shifts (O(log n) at the
     tail, O(n - i) hashes in the middle -- re-pairing a shifted suffix
     is a lower bound for any shape-canonical Merkle tree).

   Every node carries its leaf count (rank).  Because the shape is a
   function of the leaf count alone, a proof is just the claimed
   (index, total) and the sibling hashes: the verifier derives each
   sibling's side from the claim and rejects a path of the wrong
   length, so position is bound as strongly as content. *)

type node =
  | Leaf of string
  | Node of { h : string; n : int; l : node; r : node }

type t = node

module Telemetry = Sc_telemetry.Telemetry

let c_builds = Telemetry.counter "merkle.builds"
let c_leaves = Telemetry.counter "merkle.leaves_built"
let c_proof_checks = Telemetry.counter "merkle.proof_checks"
let c_modify = Telemetry.counter "merkle.dynamic.update"
let c_insert = Telemetry.counter "merkle.dynamic.insert"
let c_delete = Telemetry.counter "merkle.dynamic.delete"
let c_append = Telemetry.counter "merkle.dynamic.append"
let c_rank_checks = Telemetry.counter "merkle.dynamic.rank_checks"

let leaf_hash payload = Sc_hash.Sha256.digest_concat [ "leaf:"; payload ]
let node_hash left right = Sc_hash.Sha256.digest_concat [ "node:"; left; right ]
let size = function Leaf _ -> 1 | Node { n; _ } -> n
let hash = function Leaf h -> h | Node { h; _ } -> h
let root = hash

let mk l r =
  Node { h = node_hash (hash l) (hash r); n = size l + size r; l; r }

(* Largest power of two strictly below [n] (n >= 2): the canonical
   left-subtree span.  [p < n - p] is [2p < n] without overflow. *)
let split n =
  let rec go p = if p < n - p then go (p * 2) else p in
  go 1

let is_pow2 n = n land (n - 1) = 0

let rec build_range arr lo n =
  if n = 1 then Leaf arr.(lo)
  else
    let s = split n in
    mk (build_range arr lo s) (build_range arr (lo + s) (n - s))

let of_leaf_hashes hashes =
  if hashes = [] then invalid_arg "Dynamic_tree: empty leaf list";
  let arr = Array.of_list hashes in
  let n = Array.length arr in
  Telemetry.incr c_builds;
  Telemetry.add c_leaves n;
  Telemetry.with_span ~name:"merkle.build" ~attrs:[ "leaves", string_of_int n ]
    (fun () -> build_range arr 0 n)

let build payloads = of_leaf_hashes (List.map leaf_hash payloads)

let rec leaf t i =
  match t with
  | Leaf h -> if i = 0 then h else invalid_arg "Dynamic_tree.leaf: out of bounds"
  | Node { l; r; _ } ->
    let sl = size l in
    if i < sl then leaf l i else leaf r (i - sl)

let leaf t i =
  if i < 0 || i >= size t then invalid_arg "Dynamic_tree.leaf: out of bounds";
  leaf t i

let leaf_hashes t =
  let rec go t acc = match t with
    | Leaf h -> h :: acc
    | Node { l; r; _ } -> go l (go r acc)
  in
  go t []

(* --- O(log n) point operations ------------------------------------- *)

let modify t i h =
  if i < 0 || i >= size t then
    invalid_arg "Dynamic_tree.modify: out of bounds";
  Telemetry.incr c_modify;
  let rec go t i =
    match t with
    | Leaf _ -> Leaf h
    | Node { l; r; _ } ->
      let sl = size l in
      if i < sl then mk (go l i) r else mk l (go r (i - sl))
  in
  go t i

(* Canonical append: if [n] is a power of two the whole old tree
   becomes the (perfect) left child; otherwise the left child is
   untouched and the append recurses down the right spine. *)
let append_leaf t h =
  let rec go t =
    match t with
    | Leaf _ -> mk t (Leaf h)
    | Node { n; l; r; _ } -> if is_pow2 n then mk t (Leaf h) else mk l (go r)
  in
  go t

let append t h =
  Telemetry.incr c_append;
  append_leaf t h

(* --- structural insert / delete ------------------------------------ *)

(* Perfect, node-aligned subtrees covering leaves [0, i): the binary
   representation of [i], in decreasing size order.  In a canonical
   tree every left child is perfect, so this is O(log n) pieces found
   in O(log n) time; each piece's offset is a multiple of its size. *)
let prefix_pieces t i =
  let rec go t i off acc =
    if i = 0 then acc
    else
      match t with
      | Leaf _ -> (off, t) :: acc
      | Node { l; r; n; _ } ->
        let sl = size l in
        if i >= n then (off, t) :: acc
        else if i >= sl then go r (i - sl) (off + sl) ((off, l) :: acc)
        else go l i off acc
  in
  List.rev (go t i 0 [])

let suffix_leaf_hashes t i =
  let rec go t i acc =
    match t with
    | Leaf h -> if i = 0 then h :: acc else acc
    | Node { l; r; _ } ->
      let sl = size l in
      if i >= sl then go r (i - sl) acc else go l i (go r 0 acc)
  in
  go t i []

(* Rebuild a canonical tree over [pieces @ tail], reusing any piece
   whose span coincides with a node of the new shape (alignment is
   preserved for the untouched prefix, so in practice every piece is
   reused whole). *)
let rebuild ~pieces ~tail_off ~tail =
  let tail = Array.of_list tail in
  let total = tail_off + Array.length tail in
  let rec leaf_of lo =
    if lo >= tail_off then tail.(lo - tail_off)
    else
      let rec find = function
        | (off, p) :: rest ->
          if lo >= off && lo < off + size p then leaf p (lo - off) else find rest
        | [] -> invalid_arg "Dynamic_tree.rebuild: uncovered leaf"
      in
      find pieces
  and build lo n =
    match
      List.find_opt (fun (off, p) -> off = lo && size p = n) pieces
    with
    | Some (_, p) -> p
    | None ->
      if n = 1 then Leaf (leaf_of lo)
      else
        let s = split n in
        mk (build lo s) (build (lo + s) (n - s))
  in
  if total = 0 then invalid_arg "Dynamic_tree.rebuild: empty"
  else build 0 total

let insert t ~at h =
  let n = size t in
  if at < 0 || at > n then invalid_arg "Dynamic_tree.insert: out of bounds";
  Telemetry.incr c_insert;
  if at = n then append_leaf t h
  else
    rebuild ~pieces:(prefix_pieces t at) ~tail_off:at
      ~tail:(h :: suffix_leaf_hashes t at)

let delete t ~at =
  let n = size t in
  if at < 0 || at >= n then invalid_arg "Dynamic_tree.delete: out of bounds";
  if n = 1 then invalid_arg "Dynamic_tree.delete: last leaf";
  Telemetry.incr c_delete;
  rebuild ~pieces:(prefix_pieces t at) ~tail_off:at
    ~tail:(suffix_leaf_hashes t (at + 1))

(* --- batched root transitions -------------------------------------- *)

type op =
  | Modify of { index : int; leaf : string }
  | Insert of { index : int; leaf : string }
  | Append of { leaf : string }
  | Delete of { index : int }

let apply_op t = function
  | Modify { index; leaf } -> modify t index leaf
  | Insert { index; leaf } -> insert t ~at:index leaf
  | Append { leaf } -> append t leaf
  | Delete { index } -> delete t ~at:index

(* Apply [ops] in order and return the final version: k updates, one
   root transition — the caller signs a single root statement for the
   batch instead of one per mutation. *)
let apply t ops = List.fold_left apply_op t ops

(* --- proofs ----------------------------------------------------------- *)

type side = L | R

(* [index] is the claimed leaf position among [total] leaves (the
   population a signed root statement also binds); [path] holds only
   the sibling hashes, bottom-up. *)
type proof = { index : int; total : int; path : string list }

let proof t i =
  if i < 0 || i >= size t then invalid_arg "Dynamic_tree.proof: out of bounds";
  let rec go t i acc =
    match t with
    | Leaf _ -> acc
    | Node { l; r; _ } ->
      let sl = size l in
      if i < sl then go l i (hash r :: acc) else go r (i - sl) (hash l :: acc)
  in
  { index = i; total = size t; path = go t i [] }

(* Bottom-up sibling sides for [index] among [total] leaves: the shape
   is a function of [total] alone, so this is pure arithmetic. *)
let expected_geometry ~total ~index =
  if total < 1 || index < 0 || index >= total then
    invalid_arg "Dynamic_tree.expected_geometry: index out of range";
  let rec go n i acc =
    if n = 1 then acc
    else
      let s = split n in
      if i < s then go s i (R :: acc) else go (n - s) (i - s) (L :: acc)
  in
  go total index []

let fold_sides ~leaf_hash sides path =
  List.fold_left2
    (fun acc side sib ->
      match side with L -> node_hash sib acc | R -> node_hash acc sib)
    leaf_hash sides path

let root_of_proof ~leaf_hash p =
  Telemetry.incr c_rank_checks;
  if p.total < 1 || p.index < 0 || p.index >= p.total then None
  else
    let sides = expected_geometry ~total:p.total ~index:p.index in
    if List.compare_lengths sides p.path <> 0 then None
    else Some (fold_sides ~leaf_hash sides p.path)

let verify ~root:expected_root ~leaf_hash p =
  Telemetry.incr c_proof_checks;
  match root_of_proof ~leaf_hash p with
  | Some r -> String.equal expected_root r
  | None -> false

(* --- append-only frontier ------------------------------------------- *)

(* The canonical tree over [n] leaves is the right-fold of the perfect
   subtrees named by the binary representation of [n] (decreasing
   sizes).  A client that keeps just those <= log2(n)+1 (size, hash)
   pairs — not the data, not the tree — can append locally and derive
   every root on its own: the O(n) "fetch all leaf hashes and rebuild"
   round-trip the previous Storage.Dynamic.append needed disappears. *)

module Frontier = struct
  (* Decreasing sizes; each a perfect subtree root. *)
  type frontier = (int * string) list

  let of_tree t =
    let rec go t acc =
      match t with
      | Leaf h -> (1, h) :: acc
      | Node { n; h; l; r; _ } ->
        if is_pow2 n then (n, h) :: acc else go l (go r acc)
    in
    go t []

  let total (f : frontier) = List.fold_left (fun acc (n, _) -> acc + n) 0 f

  let root = function
    | [] -> invalid_arg "Frontier.root: empty"
    | f ->
      let rec fold = function
        | [ (_, h) ] -> h
        | (_, h) :: rest -> node_hash h (fold rest)
        | [] -> assert false
      in
      fold f

  (* Binary-counter increment with carries on the right: O(log n)
     hashes worst case, O(1) amortized. *)
  let append (f : frontier) h =
    let rec merge = function
      | (n1, h1) :: (n2, h2) :: rest when n1 = n2 ->
        merge ((n1 + n2, node_hash h2 h1) :: rest)
      | f -> f
    in
    List.rev (merge ((1, h) :: List.rev f))

  (* Fold a proof path into the frontier: replacing the leaf at
     [p.index] with [leaf_hash] updates exactly one frontier piece (the
     perfect binary-representation block containing the index).  The
     block is itself a canonical tree, so the path's first steps are
     the block's own proof for the in-block offset.  O(log n), no
     server data beyond the already-verified proof. *)
  let modify (f : frontier) (p : proof) ~leaf_hash =
    let rec go acc before = function
      | [] -> invalid_arg "Frontier.modify: index out of range"
      | (n, h) :: rest ->
        if p.index < before + n then begin
          let sides = expected_geometry ~total:n ~index:(p.index - before) in
          let depth = List.length sides in
          let inner = List.filteri (fun i _ -> i < depth) p.path in
          List.rev_append acc ((n, fold_sides ~leaf_hash sides inner) :: rest)
        end
        else go ((n, h) :: acc) (before + n) rest
    in
    go [] 0 f
end
