open Sc_bignum
open Sc_ec
module Params = Sc_pairing.Params
module Tate = Sc_pairing.Tate
module Hash_g1 = Sc_pairing.Hash_g1
module Encode = Sc_hash.Encode
module Telemetry = Sc_telemetry.Telemetry

let c_sign = Telemetry.counter "ibs.sign"
let c_verify = Telemetry.counter "ibs.verify"
let c_verify_batch = Telemetry.counter "ibs.verify_batch"
let c_verify_batch_sigs = Telemetry.counter "ibs.verify_batch_sigs"

type t = { u : Curve.point; v : Curve.point }

let h2 (pub : Setup.public) ~u ~msg =
  let prm = pub.prm in
  Hash_g1.hash_to_scalar prm
    (Encode.canonical [ "ibs-h2"; Curve.to_bytes prm.curve u; msg ])

type exponent = Nat.t

let sign_exponent (pub : Setup.public) (key : Setup.identity_key) ~bytes_source
    msg =
  Telemetry.incr c_sign;
  let prm = pub.prm in
  let r = Params.random_scalar prm ~bytes_source in
  let u = Curve.mul_precomp prm.curve (Params.precomp_for prm key.q_id) r in
  let h = h2 pub ~u ~msg in
  u, Nat.rem (Nat.add r h) prm.q

let gt_pow_exponent (pub : Setup.public) base (e : exponent) =
  Tate.gt_pow pub.prm base e

let sign (pub : Setup.public) (key : Setup.identity_key) ~bytes_source msg =
  let u, e = sign_exponent pub key ~bytes_source msg in
  { u; v = Curve.mul pub.prm.curve e key.sk }

(* U + h·Q_ID, the G1 element both verification flavours pair against.
   Q_ID is a fixed base per identity, so h·Q_ID runs over the cached
   comb tables. *)
let verification_point (pub : Setup.public) ~q_id ~msg ~u =
  let prm = pub.prm in
  let h = h2 pub ~u ~msg in
  Curve.add prm.curve u
    (Curve.mul_precomp prm.curve (Params.precomp_for prm q_id) h)

(* ê(V, P) = ê(W, P_pub) is checked as ê(V, P)·ê(−W, P_pub) = 1: a
   single 2-term multi-pairing (one shared Miller chain, one final
   exponentiation) instead of two full pairings, replayed from the
   precomputed line tables of the fixed arguments P and P_pub.  The
   precomputed form evaluates ê(P, V)·ê(P_pub, −W), equal by pairing
   symmetry on the order-q subgroup — hence the subgroup check on the
   untrusted signature points (U, V), which also rules out the
   cofactor-component malleability the swapped evaluation would not
   see. *)
let verify (pub : Setup.public) ~signer ~msg { u; v } =
  Telemetry.incr c_verify;
  Telemetry.with_span ~name:"ibs.verify" (fun () ->
      let prm = pub.prm in
      Params.in_subgroup prm u
      && Params.in_subgroup prm v
      &&
      let q_id = Setup.q_of_id pub signer in
      let w = verification_point pub ~q_id ~msg ~u in
      Tate.gt_is_one
        (Tate.multi_pairing_precomp prm
           [
             v, Tate.precomp_for prm prm.g;
             Curve.neg prm.curve w, Tate.precomp_for prm pub.p_pub;
           ]))

let to_bytes (pub : Setup.public) { u; v } =
  let c = pub.prm.curve in
  let su = Curve.to_bytes c u in
  Printf.sprintf "%04d" (String.length su) ^ su ^ Curve.to_bytes c v

let of_bytes (pub : Setup.public) s =
  let c = pub.prm.curve in
  if String.length s < 4 then None
  else
    match int_of_string_opt (String.sub s 0 4) with
    | None -> None
    | Some n when String.length s < 4 + n -> None
    | Some n ->
      let su = String.sub s 4 n in
      let sv = String.sub s (4 + n) (String.length s - 4 - n) in
      (match Curve.of_bytes c su, Curve.of_bytes c sv with
      | Some u, Some v -> Some { u; v }
      | None, _ | _, None -> None)

(* Batched public verification of t signatures with one 2-term
   multi-pairing: since every signature pairs against the same fixed
   points P and P_pub, Π ê(c_i·V_i, P)·ê(−c_i·W_i, P_pub) collapses to
   ê(Σ c_i·V_i, P)·ê(−Σ c_i·W_i, P_pub).  The combining coefficients
   c_i are derived by hashing the whole batch transcript (a
   derandomized small-exponent test), so an adversary cannot arrange
   cross-signature cancellation without already controlling the
   hash. *)
let verify_batch (pub : Setup.public) entries =
  entries = []
  ||
  (Telemetry.incr c_verify_batch;
   Telemetry.add c_verify_batch_sigs (List.length entries);
   Telemetry.with_span ~name:"ibs.verify_batch"
     ~attrs:[ "sigs", string_of_int (List.length entries) ]
   @@ fun () ->
   let prm = pub.prm in
   List.for_all
    (fun (_, _, { u; v }) ->
      Params.in_subgroup prm u && Params.in_subgroup prm v)
    entries
  &&
  (* Flat canonical encoding: each entry contributes exactly three
     parts, so the triple grouping is unambiguous. *)
  let transcript =
    Encode.canonical
      (List.concat_map
         (fun (signer, msg, s) -> [ signer; msg; to_bytes pub s ])
         entries)
  in
  let v_sum, w_sum, _ =
    List.fold_left
      (fun (v_acc, w_acc, i) (signer, msg, { u; v }) ->
        let c =
          Hash_g1.hash_to_scalar prm
            (Encode.canonical [ "ibs-batch"; string_of_int i; transcript ])
        in
        let q_id = Setup.q_of_id pub signer in
        let w = verification_point pub ~q_id ~msg ~u in
        ( Curve.add prm.curve v_acc (Curve.mul prm.curve c v),
          Curve.add prm.curve w_acc (Curve.mul prm.curve c w),
          i + 1 ))
      (Curve.infinity, Curve.infinity, 0)
      entries
  in
   Tate.gt_is_one
     (Tate.multi_pairing_precomp prm
        [
          v_sum, Tate.precomp_for prm prm.g;
          Curve.neg prm.curve w_sum, Tate.precomp_for prm pub.p_pub;
        ]))
