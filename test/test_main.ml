let () =
  Alcotest.run "seccloud"
    [
      "nat", Test_nat.suite;
      "modular", Test_modular.suite;
      "prime", Test_prime.suite;
      "hash", Test_hash.suite;
      "field", Test_field.suite;
      "ec", Test_ec.suite;
      "pairing", Test_pairing.suite;
      "merkle", Test_merkle.suite;
      "ibc", Test_ibc.suite;
      "baselines", Test_baselines.suite;
      "storage", Test_storage.suite;
      "compute", Test_compute.suite;
      "audit", Test_audit.suite;
      (* Alcotest sizes its name column by the longest suite name and
         cuts test names to fit; a suite name longer than 9 characters
         would shorten every printed test name. *)
      "reference", Test_differential.suite;
      "seccloud", Test_seccloud.suite;
      "wire", Test_wire.suite;
      "wire_fuzz", Test_wire_fuzz.suite;
      "transport", Test_transport.suite;
      "sim", Test_sim.suite;
      "service", Test_service.suite;
      "telemetry", Test_telemetry.suite;
      "encode", Test_encode.suite;
      "parallel", Test_parallel.suite;
      "lint", Test_lint.suite;
    ]
