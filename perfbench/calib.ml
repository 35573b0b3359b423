(* Unit-cost calibration (the paper's Table I, measured in the same run)
   and the cost model built on it: a class's latency predicted as
   Σ (per-operation counts × unit costs), compared with the measured
   one.  Reported only, never gated. *)

open Sc_pairing
module Sha256 = Sc_hash.Sha256
module Dtree = Sc_merkle.Dynamic_tree

type units = {
  pairing_s : float;  (* Tate.pairing_precomp *)
  multi_term_s : float;  (* one more term of a multi-pairing *)
  curve_mul_s : float;  (* Curve.mul *)
  mul_g_s : float;  (* Params.mul_g *)
  sha256_kib_s : float;  (* SHA-256 per KiB *)
  proof_verify_s : float;  (* Dynamic_tree.verify, 4096 leaves *)
}

(* Seconds per call: batches grown to ≥ 2 ms, median of seven. *)
let per_call f =
  let run n =
    let t0 = Probe.now_s () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (f ()))
    done;
    Probe.now_s () -. t0
  in
  let rec size n = if run n >= 2e-3 || n >= 1 lsl 20 then n else size (2 * n) in
  let n = size 1 in
  Probe.median_of (List.init 7 (fun _ -> run n /. float_of_int n))

let measure () =
  let p = Lazy.force Params.small in
  let drbg = Sc_hash.Drbg.create ~seed:"perfbench/calibration" in
  let scalar () = Params.random_scalar p ~bytes_source:(Sc_hash.Drbg.bytes_source drbg) in
  let point () = Params.mul_g p (scalar ()) in
  let pairs = List.init 9 (fun _ -> point (), Tate.precompute p (point ())) in
  let pt, pre = List.hd pairs in
  let k = scalar () in
  let tree = Dtree.build (List.init 4096 string_of_int) in
  let proof = Dtree.proof tree 1234 in
  let leaf_hash = Dtree.leaf_hash "1234" in
  let root = Dtree.root tree in
  assert (Dtree.verify ~root ~leaf_hash proof);
  let kib = String.make 65536 'x' in
  let multi n = per_call (fun () -> Tate.multi_pairing_precomp p (List.filteri (fun i _ -> i < n) pairs)) in
  {
    pairing_s = per_call (fun () -> Tate.pairing_precomp p pt pre);
    multi_term_s = Float.max 0.0 ((multi 9 -. multi 1) /. 8.0);
    curve_mul_s = per_call (fun () -> Sc_ec.Curve.mul p.Params.curve k pt);
    mul_g_s = per_call (fun () -> Params.mul_g p k);
    sha256_kib_s = per_call (fun () -> Sha256.digest kib) /. 64.0;
    proof_verify_s = per_call (fun () -> Dtree.verify ~root ~leaf_hash proof);
  }

let metrics u =
  [
    "sc_pairing.unit_pairing_us", 1e6 *. u.pairing_s;
    "sc_pairing.unit_multi_term_us", 1e6 *. u.multi_term_s;
    "sc_pairing.unit_mul_g_us", 1e6 *. u.mul_g_s;
    "sc_ec.unit_curve_mul_us", 1e6 *. u.curve_mul_s;
    "sc_hash.unit_sha256_us_per_kib", 1e6 *. u.sha256_kib_s;
    "sc_merkle.unit_proof_verify_us", 1e6 *. u.proof_verify_s;
  ]

(* Predicted seconds per operation for a work reading over [ops]
   operations.  A multi-pairing is priced as one full pairing plus a
   term per extra argument; an IBS signature as one fixed-base
   multiplication; hashing by bytes (which also prices Merkle proofs). *)
let predict u (w : Probe.reading) ~ops =
  if ops = 0 then 0.0
  else begin
    let g = Probe.get w in
    let multi = g "pairing.multi" in
    (g "pairing.single" *. u.pairing_s)
    +. (multi *. (u.pairing_s -. u.multi_term_s))
    +. (g "pairing.multi_terms" *. u.multi_term_s)
    +. (g "curve.mul.wnaf" *. u.curve_mul_s)
    +. (g "ibs.sign" *. u.mul_g_s)
    +. (g "hash.sha256.bytes" /. 1024.0 *. u.sha256_kib_s)
  end
    /. float_of_int ops
