(* SHA-256 / HMAC against FIPS-180-4 and RFC 4231 vectors, against the
   reference kernel in Reference.Sha256, and DRBG determinism with
   pinned streams. *)

let digest_hex s = Sc_hash.Sha256.hex_of_digest (Sc_hash.Sha256.digest s)
let mac_hex ~key msg = Sc_hash.Sha256.hex_of_digest (Sc_hash.Hmac.mac ~key msg)

let sha_vectors =
  [
    "", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
    "abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
       ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
  ]

let unit_tests =
  let open Util in
  [
    case "FIPS 180-4 vectors" (fun () ->
        List.iter
          (fun (msg, expected) ->
            check Alcotest.string (String.sub expected 0 8) expected
              (digest_hex msg))
          sha_vectors);
    case "million a's" (fun () ->
        check Alcotest.string "1M x 'a'"
          "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
          (digest_hex (String.make 1_000_000 'a')));
    case "incremental = one-shot across chunkings" (fun () ->
        let msg = String.init 1000 (fun i -> Char.chr (i mod 256)) in
        let expected = Sc_hash.Sha256.digest msg in
        List.iter
          (fun chunk ->
            let ctx = Sc_hash.Sha256.init () in
            let rec feed off =
              if off < String.length msg then begin
                let len = min chunk (String.length msg - off) in
                Sc_hash.Sha256.feed ctx (String.sub msg off len);
                feed (off + len)
              end
            in
            feed 0;
            check Alcotest.string
              (Printf.sprintf "chunk=%d" chunk)
              (Sc_hash.Sha256.hex_of_digest expected)
              (Sc_hash.Sha256.hex_of_digest (Sc_hash.Sha256.finalize ctx)))
          [ 1; 3; 55; 56; 63; 64; 65; 128; 1000 ]);
    case "finalize twice raises" (fun () ->
        let ctx = Sc_hash.Sha256.init () in
        ignore (Sc_hash.Sha256.finalize ctx);
        Alcotest.check_raises "double finalize"
          (Invalid_argument "Sha256.finalize: already finalized") (fun () ->
            ignore (Sc_hash.Sha256.finalize ctx)));
    case "digest_concat equals digest of concatenation" (fun () ->
        let parts = [ "a"; "bc"; ""; "def"; String.make 100 'x' ] in
        check Alcotest.string "concat"
          (digest_hex (String.concat "" parts))
          (Sc_hash.Sha256.hex_of_digest (Sc_hash.Sha256.digest_concat parts)));
    case "HMAC RFC 4231 test case 1" (fun () ->
        check Alcotest.string "tc1"
          "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
          (mac_hex ~key:(String.make 20 '\x0b') "Hi There"));
    case "HMAC RFC 4231 test case 2" (fun () ->
        check Alcotest.string "tc2"
          "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
          (mac_hex ~key:"Jefe" "what do ya want for nothing?"));
    case "HMAC RFC 4231 test case 3" (fun () ->
        check Alcotest.string "tc3"
          "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
          (mac_hex ~key:(String.make 20 '\xaa')
             (String.make 50 '\xdd')));
    case "HMAC long key (hashed) RFC 4231 test case 6" (fun () ->
        check Alcotest.string "tc6"
          "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
          (mac_hex ~key:(String.make 131 '\xaa')
             "Test Using Larger Than Block-Size Key - Hash Key First"));
    case "DRBG determinism" (fun () ->
        let a = Sc_hash.Drbg.create ~seed:"seed" in
        let b = Sc_hash.Drbg.create ~seed:"seed" in
        check Alcotest.string "same stream"
          (Sc_hash.Sha256.hex_of_digest (Sc_hash.Drbg.generate a 64))
          (Sc_hash.Sha256.hex_of_digest (Sc_hash.Drbg.generate b 64)));
    case "DRBG seed separation" (fun () ->
        let a = Sc_hash.Drbg.create ~seed:"seed-1" in
        let b = Sc_hash.Drbg.create ~seed:"seed-2" in
        check Alcotest.bool "different" false
          (String.equal (Sc_hash.Drbg.generate a 32) (Sc_hash.Drbg.generate b 32)));
    case "DRBG uniform_int in range" (fun () ->
        let d = Sc_hash.Drbg.create ~seed:"uniform" in
        for _ = 1 to 500 do
          let v = Sc_hash.Drbg.uniform_int d 17 in
          if v < 0 || v >= 17 then Alcotest.fail "out of range"
        done);
    case "DRBG uniform_int covers support" (fun () ->
        let d = Sc_hash.Drbg.create ~seed:"coverage" in
        let seen = Array.make 8 false in
        for _ = 1 to 400 do
          seen.(Sc_hash.Drbg.uniform_int d 8) <- true
        done;
        check Alcotest.bool "all seen" true (Array.for_all Fun.id seen));
    case "DRBG float in [0,1)" (fun () ->
        let d = Sc_hash.Drbg.create ~seed:"floats" in
        for _ = 1 to 500 do
          let f = Sc_hash.Drbg.float d in
          if not (f >= 0.0 && f < 1.0) then Alcotest.fail "out of range"
        done);
    case "DRBG sample_prefix draws the pinned audit challenge" (fun () ->
        (* The indices Protocol.make_challenge draws for this seed.
           Every audit sampler draws through sample_prefix, so a change
           here moves every sample and every pinned digest. *)
        let draw n k =
          Array.to_list
            (Sc_hash.Drbg.sample_prefix
               (Sc_hash.Drbg.create ~seed:"sample-prefix")
               ~n ~k)
        in
        check Alcotest.(list int) "n=32 k=8" [ 11; 9; 17; 8; 3; 19; 23; 24 ]
          (draw 32 8);
        check Alcotest.(list int) "k > n clamps to a permutation"
          [ 3; 1; 0; 2; 4 ] (draw 5 9));
    case "DRBG and HMAC known answers and counter deltas" (fun () ->
        (* Values of the straightforward kernel with unprepared keys.
           The other DRBG cases compare two streams with each other, so
           only these catch a changed stream. *)
        let counter = Sc_telemetry.Telemetry.counter_value in
        let d0 = counter "hash.sha256.digests" in
        let b0 = counter "hash.sha256.bytes" in
        let d = Sc_hash.Drbg.create ~seed:"seed" in
        let first = Sc_hash.Drbg.generate d 100 in
        let second = Sc_hash.Drbg.generate d 77 in
        let tag = Sc_hash.Hmac.mac ~key:"k" "msg" in
        let digests = counter "hash.sha256.digests" - d0 in
        let bytes = counter "hash.sha256.bytes" - b0 in
        check Alcotest.string "generate 100"
          "c687a13b9b3cc44e9cc9c33d4ff07438570fd43253179e84f361cc3da2c97b7f"
          (digest_hex first);
        check Alcotest.string "then generate 77"
          "55fb3aec36e18bdd9d8b8bd5e94856f0aa6ac6e71ef80cf315eb29000247a24a"
          (digest_hex second);
        check Alcotest.string "mac k msg"
          "bf1a0c1242929b6464a6c0a9ac6298a67e09bd1cd4ef1f182ce0141691fc17a0"
          (Sc_hash.Sha256.hex_of_digest tag);
        check Alcotest.int "digests" 32 digests;
        check Alcotest.int "bytes, key pads included" 3055 bytes);
  ]

(* Message lengths around the padding boundaries (55/56 and 119/120
   bytes change the block count) and block edges, plus uniform 0..300. *)
let gen_message =
  QCheck2.Gen.(
    let* len =
      oneof [ oneofl [ 0; 55; 56; 63; 64; 119; 120 ]; int_range 0 300 ]
    in
    string_size ~gen:char (return len))

(* Feed [msg] in random cuts, alternating [feed] on a substring with
   [feed_bytes ~off ~len] into a buffer that holds the message at a
   nonzero offset. *)
let digest_in_cuts msg cuts =
  let n = String.length msg in
  let buf = Bytes.of_string ("##" ^ msg ^ "##") in
  let ctx = Sc_hash.Sha256.init () in
  let rec go off cuts via_bytes =
    if off < n then begin
      let len, rest =
        match cuts with c :: rest -> (min c (n - off), rest) | [] -> (n - off, [])
      in
      if via_bytes then Sc_hash.Sha256.feed_bytes ctx ~off:(off + 2) ~len buf
      else Sc_hash.Sha256.feed ctx (String.sub msg off len);
      go (off + len) rest (not via_bytes)
    end
  in
  go 0 cuts false;
  Sc_hash.Sha256.finalize ctx

let differential =
  let open Util in
  let hex = Sc_hash.Sha256.hex_of_digest in
  [
    qcheck ~count:300 "digest equals the reference kernel" gen_message
      (fun msg -> Sc_hash.Sha256.digest msg = Reference.Sha256.digest msg);
    qcheck ~count:300 "chunked feed and feed_bytes equal the reference"
      QCheck2.Gen.(pair gen_message (list_size (int_range 0 8) (int_range 0 80)))
      (fun (msg, cuts) ->
        let got = digest_in_cuts msg cuts and want = Reference.Sha256.digest msg in
        got = want
        || QCheck2.Test.fail_reportf "len=%d got %s want %s" (String.length msg)
             (hex got) (hex want));
    qcheck ~count:200 "prepared-key MAC equals Hmac.mac and the reference"
      QCheck2.Gen.(
        triple
          (string_size ~gen:char (int_range 0 200))
          gen_message (int_range 0 3))
      (fun (key, msg, cut) ->
        (* Split the message in [cut + 1] fragments to cover the list form. *)
        let n = String.length msg in
        let parts =
          List.init (cut + 1) (fun i ->
              let lo = i * n / (cut + 1) and hi = (i + 1) * n / (cut + 1) in
              String.sub msg lo (hi - lo))
        in
        let prepared =
          Sc_hash.Hmac.mac_prepared (Sc_hash.Hmac.prepare key) parts
        in
        prepared = Sc_hash.Hmac.mac ~key msg
        && prepared = Reference.Sha256.hmac ~key msg);
  ]

let suite = unit_tests @ differential
