(* Generates fresh supersingular pairing parameters and prints them as
   hex constants, together with how long the search took.  Used once to
   pick the embedded preset seeds. *)

module Params = Sc_pairing.Params
module Nat = Sc_bignum.Nat

open Cmdliner

let generate seed bits_q bits_p =
  let drbg = Sc_hash.Drbg.create ~seed in
  let t0 = Unix.gettimeofday () in
  let prm =
    Params.generate
      ?bits_p:(if bits_p = 0 then None else Some bits_p)
      ~bytes_source:(Sc_hash.Drbg.bytes_source drbg)
      ~bits_q ()
  in
  let dt = Unix.gettimeofday () -. t0 in
  let gx, gy =
    match prm.Params.g with
    | Sc_ec.Curve.Affine (x, y) ->
      let hex v = Nat.to_hex (Sc_field.Fp.to_nat prm.Params.fp v) in
      hex x, hex y
    | Sc_ec.Curve.Infinity -> assert false
  in
  Printf.printf "(* generated in %.2fs from seed %S *)\n" dt seed;
  Printf.printf "let p = %S\n" (Nat.to_hex prm.Params.p);
  Printf.printf "let q = %S\n" (Nat.to_hex prm.Params.q);
  Printf.printf "let cofactor = %S\n" (Nat.to_hex prm.Params.cofactor);
  Printf.printf "let gx = %S\n" gx;
  Printf.printf "let gy = %S\n" gy;
  Printf.printf "(* |p| = %d bits, |q| = %d bits *)\n"
    (Nat.bit_length prm.Params.p)
    (Nat.bit_length prm.Params.q)

let () =
  let seed =
    Arg.(value & opt string "paramgen" & info [ "seed" ] ~doc:"DRBG seed.")
  in
  let bits_q =
    Arg.(value & opt int 160 & info [ "bits-q" ] ~doc:"Group order size.")
  in
  let bits_p =
    Arg.(
      value & opt int 512
      & info [ "bits-p" ] ~doc:"Field size (0 = smallest cofactor).")
  in
  let cmd =
    Cmd.v
      (Cmd.info "paramgen" ~doc:"Generate supersingular pairing parameters")
      Term.(const generate $ seed $ bits_q $ bits_p)
  in
  exit (Cmd.eval cmd)
