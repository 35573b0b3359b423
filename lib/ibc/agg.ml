open Sc_bignum
open Sc_ec
module Tate = Sc_pairing.Tate
module Encode = Sc_hash.Encode
module Hmac = Sc_hash.Hmac
module Telemetry = Sc_telemetry.Telemetry

let c_verify_batch = Telemetry.counter "agg.verify_batch"
let c_verify_batch_sigs = Telemetry.counter "agg.verify_batch_sigs"
let c_verify_each_rejects = Telemetry.counter "agg.verify_each.rejects"

type entry = { signer : string; msg : string; dvs : Dvs.t }

let delta_bytes = 8

(* The δ_i: one HMAC keyed by sk_B over the canonical transcript, then
   counter-mode HMAC blocks under that tag, cut into 64-bit words.  No
   DRBG is drawn from, so no caller's random stream moves. *)
let coefficients (pub : Setup.public) ~verifier_key entries =
  let prm = pub.prm in
  let transcript =
    Encode.canonical
      ("agg-batch"
      :: List.concat_map
           (fun e ->
             [
               e.signer;
               e.msg;
               Curve.to_bytes prm.curve e.dvs.Dvs.u;
               Tate.gt_to_bytes prm e.dvs.Dvs.sigma;
             ])
           entries)
  in
  let prk =
    Hmac.prepare
      (Hmac.mac ~key:(Curve.to_bytes prm.curve verifier_key.Setup.sk) transcript)
  in
  let n = List.length entries in
  let stream =
    String.concat ""
      (List.init
         (((n * delta_bytes) + 31) / 32)
         (fun j -> Hmac.mac_prepared prk [ string_of_int j ]))
  in
  List.init n (fun i ->
      Nat.of_bytes_be (String.sub stream (i * delta_bytes) delta_bytes))

let verify_batch (pub : Setup.public) ~verifier_key entries =
  entries = []
  ||
  (Telemetry.incr c_verify_batch;
   Telemetry.add c_verify_batch_sigs (List.length entries);
   Telemetry.with_span ~name:"agg.verify_batch"
     ~attrs:[ "sigs", string_of_int (List.length entries) ]
   @@ fun () ->
   let prm = pub.prm in
   List.for_all
     (fun e ->
       Curve.on_curve prm.curve e.dvs.Dvs.u
       && Tate.gt_in_group prm e.dvs.Dvs.sigma)
     entries
   &&
   let deltas = coefficients pub ~verifier_key entries in
   let w =
     Ibs.combined_verification_point pub
       (List.map2 (fun d e -> d, e.signer, e.msg, e.dvs.Dvs.u) deltas entries)
   in
   (* Same orientation as Dvs.verify, ê(sk_B, ·) replayed from the
      verifier key's cached line tables. *)
   Tate.gt_equal
     (Tate.multi_pairing_precomp prm
        [ w, Tate.precomp_for prm verifier_key.Setup.sk ])
     (Tate.gt_multi_exp prm
        (List.map2 (fun d e -> e.dvs.Dvs.sigma, d) deltas entries)))

(* A batch that accepts vouches for every entry; only a rejected one
   pays for the singles that say which entries are bad. *)
let verify_all (pub : Setup.public) ~verifier_key entries =
  if verify_batch pub ~verifier_key entries then List.map (fun _ -> true) entries
  else begin
    Telemetry.incr c_verify_each_rejects;
    Telemetry.with_span ~name:"agg.blame"
      ~attrs:[ "sigs", string_of_int (List.length entries) ]
    @@ fun () ->
    List.map
      (fun e ->
        Dvs.verify pub ~verifier_key ~q_id:(Setup.q_of_id pub e.signer)
          ~msg:e.msg e.dvs)
      entries
  end

let verify_each pub ~verifier_key slots =
  let rec put_back slots oks =
    match slots, oks with
    | None :: slots, oks -> None :: put_back slots oks
    | Some _ :: slots, ok :: oks -> Some ok :: put_back slots oks
    | [], _ | Some _ :: _, [] -> []
  in
  put_back slots (verify_all pub ~verifier_key (List.filter_map Fun.id slots))
