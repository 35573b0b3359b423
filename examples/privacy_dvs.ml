(* Privacy-cheating discouragement (§III-B, §VII-B).

     dune exec examples/privacy_dvs.exe

   The scenario of the paper's "illegal private-information selling"
   model: a compromised cloud server tries to sell a user's signed
   data to a competitor.  Because signatures are designated-verifier,
   (a) the competitor cannot check them without a designated secret
   key, and (b) the server itself can forge indistinguishable
   transcripts — so its "proof of authenticity" is worthless, which is
   exactly what discourages the sale. *)

module Setup = Sc_ibc.Setup
module Ibs = Sc_ibc.Ibs
module Dvs = Sc_ibc.Dvs

let () =
  let prm = Lazy.force Sc_pairing.Params.toy in
  let drbg = Sc_hash.Drbg.create ~seed:"privacy" in
  let bs = Sc_hash.Drbg.bytes_source drbg in
  let sio = Setup.create prm ~bytes_source:bs in
  let pub = Setup.public sio in
  let alice = Setup.extract sio "alice" in
  let cloud = Setup.extract sio "cloud-server" in
  let competitor = Setup.extract sio "competitor" in

  let secret_record = "salary=120000;diagnosis=none;rating=AAA" in

  (* Alice signs and designates only the cloud server. *)
  let raw = Ibs.sign pub alice ~bytes_source:bs secret_record in
  let designated = Dvs.designate pub raw ~verifier:"cloud-server" in
  Printf.printf "cloud server verifies alice's record: %b\n"
    (Dvs.verify pub ~verifier_key:cloud ~q_id:alice.Setup.q_id
       ~msg:secret_record designated);

  (* The compromised server leaks {record, signature} to a competitor.
     The competitor holds its own extracted key — but it is not the
     designated verifier, so verification fails. *)
  Printf.printf "competitor can verify the leaked transcript: %b\n"
    (Dvs.verify pub ~verifier_key:competitor ~q_id:alice.Setup.q_id
       ~msg:secret_record designated);

  (* Worse for the seller: the server can fabricate transcripts for
     records alice never signed, and they verify identically.  A buyer
     therefore learns nothing from a verifying transcript. *)
  let forged_record = "salary=999999;diagnosis=fabricated" in
  let forgery =
    Dvs.simulate pub ~verifier_key:cloud ~signer:"alice" ~msg:forged_record
      ~bytes_source:bs
  in
  Printf.printf
    "server-simulated signature on a record alice never signed verifies: %b\n"
    (Dvs.verify pub ~verifier_key:cloud ~q_id:alice.Setup.q_id ~msg:forged_record
       forgery);

  (* Contrast: a plain (publicly verifiable) identity-based signature
     would convince anyone — which is precisely what SecCloud avoids
     publishing. *)
  Printf.printf
    "(contrast) raw IBS on the same record verifies publicly: %b\n"
    (Ibs.verify pub ~signer:"alice" ~msg:secret_record raw);
  print_endline
    "=> designated transcripts convince nobody but the designated verifier,\n\
    \   so reselling them has no market value (Definition 2 in the paper)."
