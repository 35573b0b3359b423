(* Storage auditing against misbehaving servers.

     dune exec examples/storage_audit.exe

   Exercises every storage-cheating behaviour of §III-B and shows how
   the designated-verifier audit (eq. 7) catches each.  The sampled
   signatures are checked in one §VI batch: one pairing for an honest
   server, and one more per well-placed sample to name the bad blocks
   of a cheating one. *)

let behaviours =
  [
    "honest", Sc_storage.Server.Honest;
    "deletes 25% of blocks", Sc_storage.Server.Delete_fraction 0.25;
    "corrupts 25% of blocks", Sc_storage.Server.Corrupt_fraction 0.25;
    "serves 25% from wrong positions", Sc_storage.Server.Substitute_fraction 0.25;
  ]

let () =
  let system =
    Seccloud.System.create ~params:Sc_pairing.Params.toy ~seed:"storage-audit"
      ~cs_ids:[ "cs" ] ~da_id:"da" ()
  in
  let user = Seccloud.User.create system ~id:"archive-owner" in
  let agency = Seccloud.Agency.create system in
  let payloads =
    List.init 64 (fun i ->
        Sc_storage.Block.encode_ints (List.init 16 (fun j -> (i * 31 + j * 7) mod 100)))
  in
  Printf.printf "%-36s %8s %8s %10s %10s\n" "server behaviour" "sampled"
    "valid" "intact" "pairings";
  List.iter
    (fun (label, storage) ->
      let cloud = Seccloud.Cloud.create system ~id:"cs" ~storage () in
      (* A cheating server would not run the accept-time check on
         itself, so store unchecked. *)
      Seccloud.Cloud.accept_upload_unchecked cloud
        (Seccloud.User.sign_file user ~cs_id:"cs" ~file:"archive" payloads);
      let p0 = Sc_pairing.Tate.pairings_performed () in
      let report =
        Seccloud.Agency.audit_storage agency cloud ~owner:"archive-owner"
          ~file:"archive" ~samples:24
      in
      let pairings = Sc_pairing.Tate.pairings_performed () - p0 in
      Printf.printf "%-36s %8d %8d %10b %10d\n" label report.Seccloud.Agency.sampled
        report.Seccloud.Agency.valid_blocks report.Seccloud.Agency.intact pairings;
      if report.Seccloud.Agency.invalid_indices <> [] then
        Printf.printf "%-36s   bad positions: %s\n" ""
          (String.concat ", "
             (List.map string_of_int report.Seccloud.Agency.invalid_indices)))
    behaviours
