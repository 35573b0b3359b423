(* Canonical message encoding: the delimiter-injection regression the
   old Printf formats were vulnerable to, plus injectivity (via decode
   round-trip) of Sc_hash.Encode. *)

module Encode = Sc_hash.Encode
module Block = Sc_storage.Block
module Dynamic = Sc_storage.Dynamic

(* The pre-fix encodings, reproduced verbatim so the collision stays
   on record: these MUST collide (proving the old format forgeable)
   while the canonical replacements must not. *)
let old_block_message ~file ~index ~data =
  Printf.sprintf "block|%s|%d|%s" file index data

let old_dblock_message ~file ~index ~version ~payload =
  Printf.sprintf "dblock|%s|%d|%d|%s" file index version payload

let encode_tests =
  let open Util in
  [
    case "regression: old block encoding collides under delimiter injection"
      (fun () ->
        (* file "f|1" at index 2 vs file "f" at index 1 with a payload
           that donates "2|": one signature would cover both. *)
        let a = old_block_message ~file:"f|1" ~index:2 ~data:"x" in
        let b = old_block_message ~file:"f" ~index:1 ~data:"2|x" in
        check Alcotest.string "old encoding is ambiguous (forgeable)" a b;
        let msg_a =
          Block.signing_message { Block.file = "f|1"; index = 2; data = "x" }
        in
        let msg_b =
          Block.signing_message { Block.file = "f"; index = 1; data = "2|x" }
        in
        if String.equal msg_a msg_b then
          Alcotest.fail "canonical encoding must separate the two triples");
    case "regression: old dynamic encoding collides, canonical does not"
      (fun () ->
        let a = old_dblock_message ~file:"f|1" ~index:2 ~version:3 ~payload:"p" in
        let b = old_dblock_message ~file:"f" ~index:1 ~version:2 ~payload:"3|p" in
        check Alcotest.string "old dblock encoding is ambiguous" a b;
        let msg_a =
          Dynamic.signing_message ~file:"f|1" ~index:2 ~version:3 ~payload:"p"
        in
        let msg_b =
          Dynamic.signing_message ~file:"f" ~index:1 ~version:2 ~payload:"3|p"
        in
        if String.equal msg_a msg_b then
          Alcotest.fail "canonical dblock encoding must not collide");
    case "a cross-bound signature no longer verifies" (fun () ->
        (* End-to-end: sign the blocks of file "f|1" and try to pass a
           signed block off as belonging to file "f" at a shifted
           index with a delimiter-donating payload — exactly the
           forgery the old encoding admitted. *)
        let system = Lazy.force Util.shared_system in
        let pub = Seccloud.System.public system in
        let user = Seccloud.User.create system ~id:"enc-alice" in
        let upload =
          Seccloud.User.sign_file user ~cs_id:"cs-1" ~file:"f|1"
            [ "x"; "y"; "z" ]
        in
        let sb = upload.Sc_storage.Signer.blocks.(2) in
        check Alcotest.string "payload as signed" "z" sb.Sc_storage.Signer.block.Block.data;
        let cs_key = Seccloud.System.cs_key system "cs-1" in
        (* Honest claim verifies... *)
        check Alcotest.bool "honest claim" true
          (Sc_storage.Signer.verify_block pub ~verifier_key:cs_key ~role:`Cs
             ~q_id:(Sc_ibc.Setup.q_of_id pub "enc-alice") sb.Sc_storage.Signer.block sb);
        (* ...the cross-bound claim (old encoding: same message!) fails. *)
        let forged = { Block.file = "f"; index = 1; data = "2|z" } in
        check Alcotest.string "old encodings agree"
          (old_block_message ~file:"f|1" ~index:2 ~data:"z")
          (old_block_message ~file:"f" ~index:1 ~data:"2|z");
        check Alcotest.bool "cross-bound claim rejected" false
          (Sc_storage.Signer.verify_block pub ~verifier_key:cs_key ~role:`Cs
             ~q_id:(Sc_ibc.Setup.q_of_id pub "enc-alice") forged sb));
    case "decode round-trips edge cases" (fun () ->
        List.iter
          (fun parts ->
            check
              Alcotest.(option (list string))
              "round-trip" (Some parts)
              (Encode.decode (Encode.canonical parts)))
          [
            [];
            [ "" ];
            [ ""; "" ];
            [ "a" ];
            [ "1:2"; ":" ];
            [ "block"; "f|1"; "2"; "x" ];
            [ "12:34:"; "56" ];
            [ String.make 300 ':' ];
          ]);
    case "decode rejects non-canonical input" (fun () ->
        List.iter
          (fun s ->
            match Encode.decode s with
            | None -> ()
            | Some _ -> Alcotest.failf "decode accepted %S" s)
          [
            "x";           (* no length *)
            "1:";          (* truncated payload *)
            "2:a";         (* short payload *)
            "1:ab";        (* trailing bytes after payload *)
            "01:a";        (* leading-zero length *)
            "1a";          (* missing separator *)
            ":";           (* empty length *)
            "-1:";         (* negative length *)
            "99999999999999999999:a"; (* length overflow *)
          ]);
    case "frame concatenates to canonical; digest matches" (fun () ->
        let parts = [ "tag"; "a:b"; ""; "17" ] in
        check Alcotest.string "frame = canonical"
          (Encode.canonical parts)
          (String.concat "" (Encode.frame parts));
        check Alcotest.string "digest = sha256 of canonical"
          (Sc_hash.Sha256.digest (Encode.canonical parts))
          (Encode.digest parts));
    case "root statement round-trips through canonical parse" (fun () ->
        (* Dynamic's signed root statement uses the same framing; a
           '|' in the file name must survive. *)
        let root = Sc_hash.Sha256.digest "root-payload" in
        let msg = Dynamic.root_statement_msg ~file:"dir|file" ~count:7 ~root in
        match Dynamic.parse_root_statement msg with
        | Some (file, count, root_hex) ->
          check Alcotest.string "file" "dir|file" file;
          check Alcotest.int "count" 7 count;
          check Alcotest.string "root" (Sc_hash.Sha256.hex_of_digest root)
            root_hex
        | None -> Alcotest.fail "canonical root statement failed to parse");
  ]

let property_tests =
  let open Util in
  let gen_part =
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (int_bound 40))
  in
  let gen_parts = QCheck2.Gen.(list_size (int_bound 8) gen_part) in
  [
    qcheck ~count:500 "decode inverts canonical (injectivity)" gen_parts
      (fun parts -> Encode.decode (Encode.canonical parts) = Some parts);
    qcheck ~count:500 "distinct part lists encode distinctly"
      QCheck2.Gen.(pair gen_parts gen_parts)
      (fun (a, b) ->
        a = b || not (String.equal (Encode.canonical a) (Encode.canonical b)));
    qcheck ~count:300 "block signing message separates adversarial triples"
      QCheck2.Gen.(
        pair
          (triple gen_part (int_bound 50) gen_part)
          (triple gen_part (int_bound 50) gen_part))
      (fun ((f1, i1, d1), (f2, i2, d2)) ->
        let m1 = Block.signing_message { Block.file = f1; index = i1; data = d1 } in
        let m2 = Block.signing_message { Block.file = f2; index = i2; data = d2 } in
        if (f1, i1, d1) = (f2, i2, d2) then String.equal m1 m2
        else not (String.equal m1 m2));
  ]

let suite = encode_tests @ property_tests
