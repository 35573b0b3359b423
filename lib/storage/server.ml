module Telemetry = Sc_telemetry.Telemetry

let c_stores = Telemetry.counter "storage.stores"
let c_blocks_stored = Telemetry.counter "storage.blocks_stored"
let c_reads = Telemetry.counter "storage.reads"
let c_read_misses = Telemetry.counter "storage.read_misses"

type behaviour =
  | Honest
  | Delete_fraction of float
  | Corrupt_fraction of float
  | Substitute_fraction of float

type read_result = { claimed : Block.t; signed : Signer.signed_block }

type t = {
  behaviour : behaviour;
  drbg : Sc_hash.Drbg.t;
  files : (string, Signer.signed_block array) Hashtbl.t;
}

let create behaviour ~drbg = { behaviour; drbg; files = Hashtbl.create 8 }

let store t (upload : Signer.upload) =
  Telemetry.incr c_stores;
  Telemetry.add c_blocks_stored (Array.length upload.blocks);
  Hashtbl.replace t.files upload.file upload.blocks

let lookup t ~file ~index =
  match Hashtbl.find_opt t.files file with
  | None -> None
  | Some blocks ->
    if index < 0 || index >= Array.length blocks then None else Some (blocks, index)

let honest_result (sb : Signer.signed_block) = { claimed = sb.block; signed = sb }

let read_honest t ~file ~index =
  Option.map (fun (blocks, i) -> honest_result blocks.(i)) (lookup t ~file ~index)

(* Cheating decisions are pseudorandom but *sticky per position*
   (seeded by file and index), modelling a server that deleted or
   corrupted a fixed subset of blocks rather than re-rolling per
   read. *)
let cheats_on ~file ~index fraction =
  let material =
    (* Canonical framing: with the old ":"-joined concatenation a file
       name containing ':' could alias another (file, index) pair and
       inherit its cheat decision. *)
    Sc_hash.Encode.digest [ "server-cheat"; file; string_of_int index ]
  in
  let v = ref 0 in
  String.iter (fun c -> v := ((!v lsl 8) lor Char.code c) land 0xFFFFFF) (String.sub material 0 3);
  float_of_int !v /. 16777216.0 < fraction

let random_payload t n =
  let raw = Sc_hash.Drbg.generate t.drbg n in
  (* Keep payloads printable so logs stay readable. *)
  String.map (fun c -> Char.chr (32 + (Char.code c mod 95))) raw

let read t ~file ~index =
  Telemetry.incr c_reads;
  match lookup t ~file ~index with
  | None ->
    Telemetry.incr c_read_misses;
    None
  | Some (blocks, i) ->
    let sb = blocks.(i) in
    (match t.behaviour with
    | Honest -> Some (honest_result sb)
    | Delete_fraction f ->
      if cheats_on ~file ~index f then begin
        (* The block is gone; the server fabricates a payload but can
           only attach the old signature material. *)
        let fake_data = random_payload t (String.length sb.block.Block.data) in
        let claimed = { sb.block with Block.data = fake_data } in
        Some { claimed; signed = sb }
      end
      else Some (honest_result sb)
    | Corrupt_fraction f ->
      if cheats_on ~file ~index f then begin
        let data = sb.block.Block.data in
        let corrupted =
          if String.length data = 0 then "!"
          else
            String.mapi
              (fun j c -> if j = 0 then Char.chr (Char.code c lxor 1) else c)
              data
        in
        let claimed = { sb.block with Block.data = corrupted } in
        Some { claimed; signed = sb }
      end
      else Some (honest_result sb)
    | Substitute_fraction f ->
      if cheats_on ~file ~index f && Array.length blocks > 1 then begin
        (* Serve a different position's block and signature, claiming
           it sits at the requested index. *)
        let other = (i + 1) mod Array.length blocks in
        let osb = blocks.(other) in
        let claimed = { osb.block with Block.index = i } in
        Some { claimed; signed = osb }
      end
      else Some (honest_result sb))

let file_size t file = Option.map Array.length (Hashtbl.find_opt t.files file)
let files t = Hashtbl.fold (fun k _ acc -> k :: acc) t.files []
