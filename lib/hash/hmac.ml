let block_size = 64

(* The SHA-256 chaining words after the ipad block (0..7) and after the
   opad block (8..15). *)
type key = int array

let prepare key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  let pad byte =
    String.init block_size (fun i ->
        let k = if i < String.length key then Char.code key.[i] else 0 in
        Char.chr (k lxor byte))
  in
  let chain = Array.make 16 0 in
  Sha256.absorb_block (pad 0x36) chain 0;
  Sha256.absorb_block (pad 0x5C) chain 8;
  chain

let mac_prepared key parts =
  let inner = Sha256.resume key 0 in
  List.iter (Sha256.feed inner) parts;
  let inner_digest = Sha256.finalize inner in
  let outer = Sha256.resume key 8 in
  Sha256.feed outer inner_digest;
  Sha256.finalize outer

let mac_concat ~key parts = mac_prepared (prepare key) parts
let mac ~key msg = mac_concat ~key [ msg ]
