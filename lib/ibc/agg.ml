open Sc_bignum
open Sc_ec
module Tate = Sc_pairing.Tate
module Equation = Sc_pairing.Equation
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
   let table = Tate.precomp_for prm verifier_key.Setup.sk in
   Equation.holds prm
     (Equation.combine prm
        (List.map2
           (fun d e ->
             ( d,
               Dvs.equation pub table ~q_id:(Setup.q_of_id pub e.signer)
                 ~msg:e.msg e.dvs ))
           (coefficients pub ~verifier_key entries)
           entries)))

(* Each of [(server, entry); …] checked alone, one inversion for all. *)
let singles (pub : Setup.public) ~verifier_key entries =
  Dvs.verify_all pub ~verifier_key
    (List.map (fun (_, e) -> Setup.q_of_id pub e.signer, e.msg, e.dvs) entries)

(* A suspect's entries skip the batch they would make fail: they go
   straight to the singles, the rest through {!Equation.verify_each}'s
   batch then blame.  Then a named server all of whose entries failed
   is suspect, and any other named server is not: one good entry shows
   a server that may pass the next batch, and the batch is the cheaper
   bet unless it is almost sure to fail (DESIGN §4q). *)
let verify_each pub ~verifier_key ?suspects slots =
  (* Each distinct named server once, with its key. *)
  let keyed =
    match suspects with
    | None -> []
    | Some _ ->
      List.map
        (fun server -> server, Digest_set.key server)
        (List.sort_uniq String.compare
           (List.filter_map (fun slot -> Option.bind slot fst) slots))
  in
  let suspect (server, _) =
    match server, suspects with
    | Some server, Some set -> Digest_set.mem set (List.assoc server keyed)
    | None, _ | _, None -> false
  in
  let oks =
    Equation.verify_each slots
      ~aside:
        ( suspect,
          fun es ->
            Telemetry.add c_verify_each_suspect_sigs (List.length es);
            Telemetry.with_span ~name:"agg.suspect"
              ~attrs:[ "sigs", string_of_int (List.length es) ]
            @@ fun () -> singles pub ~verifier_key es )
      ~single:(fun x -> List.hd (singles pub ~verifier_key [ x ]))
      ~batch:(fun es -> verify_batch pub ~verifier_key (List.map snd es))
      ~blame:(fun es ->
        Telemetry.incr c_verify_each_rejects;
        Telemetry.with_span ~name:"agg.blame"
          ~attrs:[ "sigs", string_of_int (List.length es) ]
        @@ fun () -> singles pub ~verifier_key es)
  in
  let passed server =
    List.exists2
      (fun slot ok -> ok = Some true && Option.map fst slot = Some (Some server))
      slots oks
  in
  Option.iter
    (fun set ->
      List.iter
        (fun (server, key) ->
          if passed server then Digest_set.remove set key else Digest_set.add set key)
        keyed)
    suspects;
  oks
