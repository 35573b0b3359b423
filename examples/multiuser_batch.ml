(* Concurrent multi-user auditing with batch verification (§VI).

     dune exec examples/multiuser_batch.exe

   Several users outsource computations to the same provider; the DA
   audits all of them in one aggregated designated-verifier equation
   and the pairing counter shows the §VI saving.  A single audit
   already checks its sampled signatures in one equation, so it pays
   one pairing for them and one for the root signature; the batch
   pays those two once for all users (each warrant still costs one). *)

let () =
  let users = [ "alice"; "bob"; "carol"; "dave"; "erin" ] in
  let system =
    Seccloud.System.create ~params:Sc_pairing.Params.toy ~seed:"multiuser"
      ~cs_ids:[ "shared-cloud" ] ~da_id:"da" ()
  in
  let agency = Seccloud.Agency.create system in
  let cloud = Seccloud.Cloud.create system ~id:"shared-cloud" () in
  let drbg = Sc_hash.Drbg.create ~seed:"workloads" in
  let jobs =
    List.map
      (fun name ->
        let user = Seccloud.User.create system ~id:name in
        let payloads =
          List.init 24 (fun i ->
              Sc_storage.Block.encode_ints
                (List.init 8 (fun j -> Sc_hash.Drbg.uniform_int drbg 100 + i + j)))
        in
        let file = name ^ "-data" in
        assert (Seccloud.User.store user cloud ~file payloads);
        let service =
          Sc_compute.Task.random_service ~drbg ~n_positions:24 ~n_tasks:12
        in
        let execution = Seccloud.Cloud.execute cloud ~owner:name ~file service in
        let warrant =
          Seccloud.User.delegate_audit user ~now:0.0 ~lifetime:1e6
            ~scope:("audit " ^ file)
        in
        cloud, name, execution, warrant)
      users
  in

  (* Individual audits, counting pairings. *)
  let p0 = Sc_pairing.Tate.pairings_performed () in
  let individual_ok =
    List.for_all
      (fun (cloud, name, execution, warrant) ->
        (Seccloud.Agency.audit_computation agency cloud ~owner:name ~execution
           ~warrant ~now:5.0 ~samples:8).Sc_audit.Protocol.valid)
      jobs
  in
  let individual_pairings = Sc_pairing.Tate.pairings_performed () - p0 in

  (* One batched audit over all five users. *)
  let p0 = Sc_pairing.Tate.pairings_performed () in
  let batched =
    Seccloud.Agency.audit_computation_batched agency jobs ~now:5.0 ~samples:8
  in
  let batched_pairings = Sc_pairing.Tate.pairings_performed () - p0 in

  Printf.printf "users: %d, samples per user: 8\n" (List.length users);
  Printf.printf "individual audits: all valid = %b, pairings = %d\n"
    individual_ok individual_pairings;
  Printf.printf "batched audit:     valid    = %b, pairings = %d\n"
    batched.Sc_audit.Protocol.valid batched_pairings;
  Printf.printf "pairing reduction: %.1fx\n"
    (float_of_int individual_pairings /. float_of_int batched_pairings)
