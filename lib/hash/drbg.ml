(* [key] is K, kept prepared: each K serves the generate loop and the
   first MAC of the next [update]. *)
type t = { mutable key : Hmac.key; mutable value : string }

(* HMAC_DRBG update function (SP 800-90A section 10.1.2.2). *)
let update t provided =
  t.key <-
    Hmac.prepare (Hmac.mac_prepared t.key [ t.value; "\x00"; provided ]);
  t.value <- Hmac.mac_prepared t.key [ t.value ];
  if String.length provided > 0 then begin
    t.key <-
      Hmac.prepare (Hmac.mac_prepared t.key [ t.value; "\x01"; provided ]);
    t.value <- Hmac.mac_prepared t.key [ t.value ]
  end

let create ~seed =
  let t =
    { key = Hmac.prepare (String.make 32 '\000'); value = String.make 32 '\x01' }
  in
  update t seed;
  t

let generate t n =
  if n < 0 then invalid_arg "Drbg.generate: negative length";
  let buf = Buffer.create n in
  while Buffer.length buf < n do
    t.value <- Hmac.mac_prepared t.key [ t.value ];
    Buffer.add_string buf t.value
  done;
  update t "";
  Buffer.sub buf 0 n

let bytes_source t n = generate t n

let uniform_int t n =
  if n <= 0 then invalid_arg "Drbg.uniform_int: non-positive bound";
  if n = 1 then 0
  else begin
    let rec bits_needed acc v = if v = 0 then acc else bits_needed (acc + 1) (v lsr 1) in
    let nbits = bits_needed 0 (n - 1) in
    let nbytes = (nbits + 7) / 8 in
    let rec draw () =
      let s = generate t nbytes in
      let v = ref 0 in
      String.iter (fun c -> v := (!v lsl 8) lor Char.code c) s;
      let v = !v land ((1 lsl nbits) - 1) in
      if v < n then v else draw ()
    in
    draw ()
  end

let sample_prefix t ~n ~k =
  let k = min k n in
  let idx = Array.init n Fun.id in
  for i = 0 to k - 1 do
    let j = i + uniform_int t (n - i) in
    let tmp = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- tmp
  done;
  Array.sub idx 0 k

let float t =
  let s = generate t 7 in
  let v = ref 0 in
  String.iter (fun c -> v := (!v lsl 8) lor Char.code c) s;
  let v53 = !v lsr 3 in
  float_of_int v53 /. 9007199254740992.0 (* 2^53 *)
