open Sc_bignum
open Sc_ec
module Tate = Sc_pairing.Tate
module Encode = Sc_hash.Encode
module Hmac = Sc_hash.Hmac
module Telemetry = Sc_telemetry.Telemetry

let c_verify_batch = Telemetry.counter "agg.verify_batch"
let c_verify_batch_sigs = Telemetry.counter "agg.verify_batch_sigs"
let c_verify_each_rejects = Telemetry.counter "agg.verify_each.rejects"

let c_verify_each_suspect_sigs =
  Telemetry.counter "agg.verify_each.suspect_sigs"

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
   Tate.multi_pairing_precomp_equal prm
     [ w, Tate.precomp_for prm verifier_key.Setup.sk ]
     (Tate.gt_multi_exp prm
        (List.map2 (fun d e -> e.dvs.Dvs.sigma, d) deltas entries)))

let singles (pub : Setup.public) ~verifier_key entries =
  Dvs.verify_all pub ~verifier_key
    (List.map (fun e -> Setup.q_of_id pub e.signer, e.msg, e.dvs) entries)

(* A batch that accepts vouches for every entry; only a rejected one
   pays for the singles that say which entries are bad, whose
   verification points share one inversion. *)
let verify_all (pub : Setup.public) ~verifier_key entries =
  if verify_batch pub ~verifier_key entries then List.map (fun _ -> true) entries
  else begin
    Telemetry.incr c_verify_each_rejects;
    Telemetry.with_span ~name:"agg.blame"
      ~attrs:[ "sigs", string_of_int (List.length entries) ]
    @@ fun () -> singles pub ~verifier_key entries
  end

(* A suspect's entries skip the batch they would make fail: they go
   straight to the singles, the rest through [verify_all].  Then a
   named server all of whose entries failed is suspect, and any other
   named server is not: one good entry shows a server that may pass
   the next batch, and the batch is the cheaper bet unless it is almost
   sure to fail (DESIGN §4q). *)
let verify_each pub ~verifier_key ?suspects slots =
  let entries = List.filter_map Fun.id slots in
  (* Each distinct named server once, with its key. *)
  let keyed =
    match suspects with
    | None -> []
    | Some _ ->
      List.map
        (fun server -> server, Digest_set.key server)
        (List.sort_uniq String.compare (List.filter_map fst entries))
  in
  let tagged =
    List.map
      (fun (server, e) ->
        ( e,
          match server, suspects with
          | Some server, Some set -> Digest_set.mem set (List.assoc server keyed)
          | None, _ | _, None -> false ))
      entries
  in
  let picked flag =
    List.filter_map (fun (e, s) -> if s = flag then Some e else None) tagged
  in
  let suspect_oks =
    match picked true with
    | [] -> []
    | es ->
      Telemetry.add c_verify_each_suspect_sigs (List.length es);
      Telemetry.with_span ~name:"agg.suspect"
        ~attrs:[ "sigs", string_of_int (List.length es) ]
      @@ fun () -> singles pub ~verifier_key es
  in
  let rec merge tagged suspect_oks other_oks =
    match tagged, suspect_oks, other_oks with
    | (_, true) :: tagged, ok :: suspect_oks, other_oks
    | (_, false) :: tagged, suspect_oks, ok :: other_oks ->
      ok :: merge tagged suspect_oks other_oks
    | _ -> []
  in
  let oks =
    merge tagged suspect_oks (verify_all pub ~verifier_key (picked false))
  in
  Option.iter
    (fun set ->
      let answered = List.map2 (fun (server, _) ok -> server, ok) entries oks in
      List.iter
        (fun (server, key) ->
          if List.for_all (fun (s, ok) -> s <> Some server || not ok) answered
          then Digest_set.add set key
          else Digest_set.remove set key)
        keyed)
    suspects;
  let rec put_back slots oks =
    match slots, oks with
    | None :: slots, oks -> None :: put_back slots oks
    | Some _ :: slots, ok :: oks -> Some ok :: put_back slots oks
    | [], _ | Some _ :: _, [] -> []
  in
  put_back slots oks
