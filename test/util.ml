(* Shared test fixtures.  Everything is seeded: a failure reproduces
   byte-for-byte. *)

let drbg = Sc_hash.Drbg.create ~seed:"test-suite"
let bs = Sc_hash.Drbg.bytes_source drbg

(* Fresh, independent randomness for property tests that must not
   interfere with each other. *)
let fresh_bs name = Sc_hash.Drbg.bytes_source (Sc_hash.Drbg.create ~seed:name)

let toy_params = Sc_pairing.Params.toy


let shared_system =
  lazy
    (Seccloud.System.create ~params:toy_params ~seed:"test-system"
       ~cs_ids:[ "cs-1"; "cs-2" ] ~da_id:"da" ())

(* (U, V + P): the warrant body under signature bytes that do not
   verify. *)
let maul (pub : Sc_ibc.Setup.public) (w : Sc_ibc.Warrant.signed) =
  let prm = pub.Sc_ibc.Setup.prm in
  let s = w.Sc_ibc.Warrant.signature in
  {
    w with
    Sc_ibc.Warrant.signature =
      {
        s with
        Sc_ibc.Ibs.v =
          Sc_ec.Curve.add prm.Sc_pairing.Params.curve s.Sc_ibc.Ibs.v
            prm.Sc_pairing.Params.g;
      };
  }

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f
