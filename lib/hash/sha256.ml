(* 32-bit words live in native 63-bit ints.  A rotation reads one
   32-bit window of the doubled word [x lor (x lsl 32)], so each Σ/σ is
   three shifts, two xors and one mask.  Sums that feed a masked result
   run unmasked: five 32-bit terms fit in 35 bits. *)

let m32 = 0xFFFFFFFF

(* Paper cost accounting counts hash invocations alongside pairings;
   one finalize = one digest, bytes are the message length fed. *)
let c_digests = Sc_telemetry.Telemetry.counter "hash.sha256.digests"
let c_bytes = Sc_telemetry.Telemetry.counter "hash.sha256.bytes"

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

let iv =
  [|
    0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
    0x1f83d9ab; 0x5be0cd19;
  |]

type ctx = {
  h : int array; (* 8 chaining words *)
  block : Bytes.t; (* 64-byte buffer *)
  mutable fill : int; (* bytes buffered in [block] *)
  mutable total : int; (* total message bytes fed *)
  w : int array; (* 64-entry message schedule, reused *)
  mutable finalized : bool;
}

let create h total =
  {
    h;
    block = Bytes.create 64;
    fill = 0;
    total;
    w = Array.make 64 0;
    finalized = false;
  }

let init () = create (Array.copy iv) 0

(* The prefix block's bytes count toward the length padding and, at
   finalize, toward hash.sha256.bytes. *)
let resume chain off = create (Array.sub chain off 8) 64

let compress ctx =
  let w = ctx.w and blk = ctx.block in
  for t = 0 to 15 do
    w.(t) <- Int32.to_int (Bytes.get_int32_be blk (4 * t)) land m32
  done;
  for t = 16 to 63 do
    let x = w.(t - 15) and y = w.(t - 2) in
    let xx = x lor (x lsl 32) and yy = y lor (y lsl 32) in
    let s0 = ((xx lsr 7) lxor (xx lsr 18) lxor (x lsr 3)) land m32 in
    let s1 = ((yy lsr 17) lxor (yy lsr 19) lxor (y lsr 10)) land m32 in
    w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land m32
  done;
  let h = ctx.h in
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    let ee = !e lor (!e lsl 32) and aa = !a lor (!a lsl 32) in
    let s1 = ((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land m32 in
    let ch = !g lxor (!e land (!f lxor !g)) in
    let t1 = !hh + s1 + ch + k.(t) + w.(t) in
    let s0 = ((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land m32 in
    let maj = (!a land !b) lor (!c land (!a lor !b)) in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land m32;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + s0 + maj) land m32
  done;
  h.(0) <- (h.(0) + !a) land m32;
  h.(1) <- (h.(1) + !b) land m32;
  h.(2) <- (h.(2) + !c) land m32;
  h.(3) <- (h.(3) + !d) land m32;
  h.(4) <- (h.(4) + !e) land m32;
  h.(5) <- (h.(5) + !f) land m32;
  h.(6) <- (h.(6) + !g) land m32;
  h.(7) <- (h.(7) + !hh) land m32

let feed_bytes ctx ?(off = 0) ?len src =
  if ctx.finalized then invalid_arg "Sha256.feed: context already finalized";
  let len = match len with None -> Bytes.length src - off | Some l -> l in
  ctx.total <- ctx.total + len;
  let pos = ref off and remaining = ref len in
  while !remaining > 0 do
    let take = min !remaining (64 - ctx.fill) in
    Bytes.blit src !pos ctx.block ctx.fill take;
    ctx.fill <- ctx.fill + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.fill = 64 then begin
      compress ctx;
      ctx.fill <- 0
    end
  done

let feed ctx s = feed_bytes ctx (Bytes.unsafe_of_string s)

let absorb_block blk dst off =
  if String.length blk <> 64 then
    invalid_arg "Sha256.absorb_block: not 64 bytes";
  let ctx = init () in
  feed ctx blk;
  Array.blit ctx.h 0 dst off 8

let finalize ctx =
  if ctx.finalized then invalid_arg "Sha256.finalize: already finalized";
  Sc_telemetry.Telemetry.incr c_digests;
  Sc_telemetry.Telemetry.add c_bytes ctx.total;
  ctx.finalized <- true;
  (* Padding in place: 0x80, zeros, then the 64-bit big-endian bit
     length in the last 8 bytes of the final block. *)
  let blk = ctx.block and fill = ctx.fill in
  Bytes.set blk fill '\x80';
  if fill >= 56 then begin
    Bytes.fill blk (fill + 1) (63 - fill) '\000';
    compress ctx;
    Bytes.fill blk 0 56 '\000'
  end
  else Bytes.fill blk (fill + 1) (55 - fill) '\000';
  Bytes.set_int64_be blk 56 (Int64.of_int (ctx.total * 8));
  compress ctx;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
  done;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  feed ctx s;
  finalize ctx

let digest_concat parts =
  let ctx = init () in
  List.iter (feed ctx) parts;
  finalize ctx

let hex_of_digest d =
  let buf = Buffer.create (2 * String.length d) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) d;
  Buffer.contents buf
