open Sc_bignum
open Sc_ec
module Params = Sc_pairing.Params
module Tate = Sc_pairing.Tate
module Hash_g1 = Sc_pairing.Hash_g1
module Encode = Sc_hash.Encode
module Telemetry = Sc_telemetry.Telemetry
module Labels = Sc_telemetry.Labels

let c_sign = Telemetry.counter "ibs.sign"
let c_verify = Telemetry.counter "ibs.verify"
let c_verify_batch = Telemetry.counter "ibs.verify_batch"
let c_verify_batch_sigs = Telemetry.counter "ibs.verify_batch_sigs"
let c_verify_each_rejects = Telemetry.counter "ibs.verify_each.rejects"
let v_memo_hit = Labels.counter_vec ~label:"memo" "ibs.memo.hit"
let v_memo_miss = Labels.counter_vec ~label:"memo" "ibs.memo.miss"

type t = { u : Curve.point; v : Curve.point }

let h2 (pub : Setup.public) ~u ~msg =
  let prm = pub.prm in
  Hash_g1.hash_to_scalar prm
    (Encode.canonical [ "ibs-h2"; Curve.to_bytes prm.curve u; msg ])

type exponent = Nat.t

(* Every r_i is drawn first, in message order — the DRBG stream of n
   one-message calls — so that all U_i = r_i·Q_ID leave the comb
   together and share one inversion. *)
let sign_exponents (pub : Setup.public) (key : Setup.identity_key)
    ~bytes_source msgs =
  Telemetry.add c_sign (List.length msgs);
  let prm = pub.prm in
  let rs =
    Array.map (fun _ -> Params.random_scalar prm ~bytes_source) (Array.of_list msgs)
  in
  let us =
    Curve.mul_precomp_batch prm.curve (Params.precomp_for prm key.q_id) rs
  in
  List.mapi
    (fun i msg ->
      let u = us.(i) in
      u, Nat.rem (Nat.add rs.(i) (h2 pub ~u ~msg)) prm.q)
    msgs

let sign_exponent pub key ~bytes_source msg =
  List.hd (sign_exponents pub key ~bytes_source [ msg ])

let sign (pub : Setup.public) (key : Setup.identity_key) ~bytes_source msg =
  let u, e = sign_exponent pub key ~bytes_source msg in
  { u; v = Curve.mul pub.prm.curve e key.sk }

(* U + h·Q_ID, the G1 element every verification flavour pairs
   against.  Q_ID is a fixed base per identity, so h·Q_ID runs over
   its cached comb tables, started at U: one normalization per point,
   shared by all the points of one call. *)
let verification_points (pub : Setup.public) rows =
  let prm = pub.prm in
  Array.to_list
    (Curve.add_mul_precomp_batch prm.curve
       (Array.of_list
          (List.map
             (fun (q_id, msg, u) ->
               u, Params.precomp_for prm q_id, h2 pub ~u ~msg)
             rows)))

let verification_point pub ~q_id ~msg ~u =
  List.hd (verification_points pub [ q_id, msg, u ])

let to_bytes (pub : Setup.public) { u; v } =
  let c = pub.prm.curve in
  let su = Curve.to_bytes c u in
  Printf.sprintf "%04d" (String.length su) ^ su ^ Curve.to_bytes c v

module Memo = struct
  let capacity = Digest_set.capacity

  type t = {
    seen : Digest_set.t;
    hit : Telemetry.counter;
    miss : Telemetry.counter;
  }

  let create name =
    {
      seen = Digest_set.create ();
      hit = Labels.counter v_memo_hit name;
      miss = Labels.counter v_memo_miss name;
    }

  let size t = Digest_set.size t.seen

  (* The canonical (signer, message, signature bytes). *)
  let key pub ~signer ~msg s =
    Digest_set.key (Encode.canonical [ "ibs-memo"; signer; msg; to_bytes pub s ])

  let lookup t key =
    let known = Digest_set.mem t.seen key in
    Telemetry.incr (if known then t.hit else t.miss);
    known

  (* A party re-verifies at most [capacity] signatures it had already
     seen. *)
  let add t key = Digest_set.add t.seen key
end

(* ê(V, P) = ê(W, P_pub) is checked as ê(V, P)·ê(−W, P_pub) = 1: a
   single 2-term multi-pairing (one shared Miller chain, one final
   exponentiation) instead of two full pairings, replayed from the
   precomputed line tables of the fixed arguments P and P_pub.  The
   precomputed form evaluates ê(P, V)·ê(P_pub, −W), equal by pairing
   symmetry on the order-q subgroup and blind to cofactor torsion on V
   and W.  Torsion on V would let anyone turn an accepted (U, V) into
   an accepted (U, V + T), so V is subgroup-checked.  Torsion on U is
   harmless: a third party's U + T changes h = H2(U‖m) and fails, and
   a signer who picks U = r·Q_ID + T signs validly, as it could with
   T = O.  So U is only checked to be on the curve.  The entries whose
   points pass get their W from one {!verification_points}, so n
   entries share one inversion. *)
let verify_all (pub : Setup.public) entries =
  let prm = pub.prm in
  let checked =
    List.map
      (fun ((_, _, { u; v }) as entry) ->
        entry, Curve.on_curve prm.curve u && Params.in_subgroup prm v)
      entries
  in
  let ws =
    verification_points pub
      (List.filter_map
         (fun ((signer, msg, s), ok) ->
           if ok then Some (Setup.q_of_id pub signer, msg, s.u) else None)
         checked)
  in
  let rec answer checked ws =
    match checked, ws with
    | ((_, _, s), true) :: checked, w :: ws ->
      Tate.multi_pairing_precomp_equal prm
        [
          s.v, Tate.precomp_for prm prm.g;
          Curve.neg prm.curve w, Tate.precomp_for prm pub.p_pub;
        ]
        (Tate.gt_one prm)
      :: answer checked ws
    | (_, false) :: checked, ws -> false :: answer checked ws
    | [], _ | (_, true) :: _, [] -> []
  in
  answer checked ws

let verify_full pub ~signer ~msg s =
  Telemetry.incr c_verify;
  Telemetry.with_span ~name:"ibs.verify" (fun () ->
      List.hd (verify_all pub [ signer, msg, s ]))

let verify ?memo pub ~signer ~msg s =
  match memo with
  | None -> verify_full pub ~signer ~msg s
  | Some m ->
    let key = Memo.key pub ~signer ~msg s in
    Memo.lookup m key
    ||
    let ok = verify_full pub ~signer ~msg s in
    if ok then Memo.add m key;
    ok

(* The length of U is exactly the four decimal digits [to_bytes]
   writes; any other prefix (a sign, [0x], [_]) is not an encoding. *)
let of_bytes (pub : Setup.public) s =
  let c = pub.prm.curve in
  let digit i = String.length s > i && s.[i] >= '0' && s.[i] <= '9' in
  if not (digit 0 && digit 1 && digit 2 && digit 3) then None
  else
    let n = int_of_string (String.sub s 0 4) in
    if String.length s < 4 + n then None
    else
      let su = String.sub s 4 n in
      let sv = String.sub s (4 + n) (String.length s - 4 - n) in
      match Curve.of_bytes c su, Curve.of_bytes c sv with
      | Some u, Some v -> Some { u; v }
      | None, _ | _, None -> None

module SMap = Map.Make (String)

(* Σ c_i·(U_i + h_i·Q_IDi) as one multi-scalar multiplication over the
   U_i plus one fixed-base comb per distinct signer for
   (Σ c_i·h_i mod q)·Q_ID — exact because Q_ID has order q — all on
   one Jacobian accumulator, normalized once. *)
let combined_verification_point (pub : Setup.public) terms =
  let prm = pub.prm in
  let ch_sums =
    List.fold_left
      (fun sums (c, signer, msg, u) ->
        let ch = Nat.mul c (h2 pub ~u ~msg) in
        SMap.update signer
          (fun s -> Some (Nat.add ch (Option.value s ~default:Nat.zero)))
          sums)
      SMap.empty terms
  in
  Curve.msm prm.curve
    ~fixed:
      (List.map
         (fun (signer, ch) ->
           Params.precomp_for prm (Setup.q_of_id pub signer), Nat.rem ch prm.q)
         (SMap.bindings ch_sums))
    (List.map (fun (c, _, _, u) -> c, u) terms)

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
   (* The checks of {!verify_full}: V in the subgroup, U on the curve. *)
   List.for_all
    (fun (_, _, { u; v }) ->
      Curve.on_curve prm.curve u && Params.in_subgroup prm v)
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
  let coeffs =
    List.mapi
      (fun i _ ->
        Hash_g1.hash_to_scalar prm
          (Encode.canonical [ "ibs-batch"; string_of_int i; transcript ]))
      entries
  in
  let v_sum =
    Curve.msm prm.curve (List.map2 (fun c (_, _, s) -> c, s.v) coeffs entries)
  in
  let w_sum =
    combined_verification_point pub
      (List.map2 (fun c (signer, msg, s) -> c, signer, msg, s.u) coeffs entries)
  in
   Tate.multi_pairing_precomp_equal prm
     [
       v_sum, Tate.precomp_for prm prm.g;
       Curve.neg prm.curve w_sum, Tate.precomp_for prm pub.p_pub;
     ]
     (Tate.gt_one prm))

(* Batch then blame, as [Agg.verify_each]: memo hits are answered
   without a check, a lone fresh entry gets the single check, and two
   or more go through one {!verify_batch}; only a rejected batch pays
   one {!verify_all} over them.  Every accepted entry is remembered. *)
let verify_each ?memo pub slots =
  let tagged =
    List.map
      (Option.map (fun ((signer, msg, s) as entry) ->
           match memo with
           | None -> entry, false, ignore
           | Some m ->
             let key = Memo.key pub ~signer ~msg s in
             entry, Memo.lookup m key, fun () -> Memo.add m key))
      slots
  in
  let fresh =
    List.filter_map
      (function Some (entry, false, _) -> Some entry | Some _ | None -> None)
      tagged
  in
  let oks =
    match fresh with
    | [ (signer, msg, s) ] -> [ verify_full pub ~signer ~msg s ]
    | _ when verify_batch pub fresh -> List.map (fun _ -> true) fresh
    | _ ->
      Telemetry.incr c_verify_each_rejects;
      Telemetry.add c_verify (List.length fresh);
      Telemetry.with_span ~name:"ibs.blame"
        ~attrs:[ "sigs", string_of_int (List.length fresh) ]
      @@ fun () -> verify_all pub fresh
  in
  let rec put_back tagged oks =
    match tagged, oks with
    | None :: tagged, oks -> None :: put_back tagged oks
    | Some (_, true, _) :: tagged, oks -> Some true :: put_back tagged oks
    | Some (_, false, remember) :: tagged, ok :: oks ->
      if ok then remember ();
      Some ok :: put_back tagged oks
    | [], _ | Some (_, false, _) :: _, [] -> []
  in
  put_back tagged oks
