open Sc_bignum
open Sc_ec
module Params = Sc_pairing.Params
module Tate = Sc_pairing.Tate
module Hash_g1 = Sc_pairing.Hash_g1
module Equation = Sc_pairing.Equation
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

(* ê(V, P) = ê(W, P_pub), W = U + h·Q_ID, is checked as
   ê(−V, P)·ê(W, P_pub) = 1: one 2-term equation (one shared Miller
   chain, one final exponentiation) instead of two full pairings,
   replayed from the cached line tables of the fixed arguments P and
   P_pub.  The replay evaluates ê(P, −V)·ê(P_pub, W), equal by pairing
   symmetry on the order-q subgroup and blind to cofactor torsion on V
   and W.  Torsion on V would let anyone turn an accepted (U, V) into
   an accepted (U, V + T), so V is subgroup-checked.  Torsion on U is
   harmless: a third party's U + T changes h = H2(U‖m) and fails, and
   a signer who picks U = r·Q_ID + T signs validly, as it could with
   T = O.  So U is only checked to be on the curve. *)
let precheck (pub : Setup.public) { u; v } =
  Curve.on_curve pub.prm.curve u && Params.in_subgroup pub.prm v

let tables (pub : Setup.public) =
  Tate.precomp_for pub.prm pub.prm.g, Tate.precomp_for pub.prm pub.p_pub

let equation (pub : Setup.public) (on_g, on_p_pub) (signer, msg, { u; v }) =
  {
    Equation.terms =
      [
        Point (Curve.neg pub.prm.curve v), on_g;
        Shift { u; h = h2 pub ~u ~msg; base = Setup.q_of_id pub signer }, on_p_pub;
      ];
    target = One;
  }

let verify_all pub entries =
  let tables = tables pub in
  Equation.holds_each pub.Setup.prm
    (List.map
       (fun ((_, _, s) as entry) ->
         if precheck pub s then Some (equation pub tables entry) else None)
       entries)

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

(* Batched public verification of t signatures: every signature pairs
   against the same fixed points P and P_pub, so the combined equation
   is still one 2-term multi-pairing.  The combining coefficients c_i
   are derived by hashing the whole batch transcript (a derandomized
   small-exponent test), so an adversary cannot arrange cross-signature
   cancellation without already controlling the hash. *)
let verify_batch (pub : Setup.public) entries =
  entries = []
  ||
  (Telemetry.incr c_verify_batch;
   Telemetry.add c_verify_batch_sigs (List.length entries);
   Telemetry.with_span ~name:"ibs.verify_batch"
     ~attrs:[ "sigs", string_of_int (List.length entries) ]
   @@ fun () ->
   List.for_all (fun (_, _, s) -> precheck pub s) entries
   &&
   let prm = pub.prm in
   (* Flat canonical encoding: each entry contributes exactly three
      parts, so the triple grouping is unambiguous. *)
   let transcript =
     Encode.canonical
       (List.concat_map
          (fun (signer, msg, s) -> [ signer; msg; to_bytes pub s ])
          entries)
   in
   let tables = tables pub in
   Equation.holds prm
     (Equation.combine prm
        (List.mapi
           (fun i entry ->
             ( Hash_g1.hash_to_scalar prm
                 (Encode.canonical [ "ibs-batch"; string_of_int i; transcript ]),
               equation pub tables entry ))
           entries)))

(* Memo hits are answered without a check; the other entries go through
   {!Equation.verify_each}'s batch then blame, and every accepted one is
   remembered. *)
let verify_each ?memo pub slots =
  let keyed =
    List.map
      (Option.map (fun ((signer, msg, s) as entry) ->
           ( entry,
             Option.map
               (fun m ->
                 let key = Memo.key pub ~signer ~msg s in
                 m, key, Memo.lookup m key)
               memo )))
      slots
  in
  let entries = List.map fst in
  let oks =
    Equation.verify_each keyed
      ~aside:((function _, Some (_, _, hit) -> hit | _, None -> false),
              List.map (fun _ -> true))
      ~single:(fun (entry, _) ->
        Telemetry.incr c_verify;
        Telemetry.with_span ~name:"ibs.verify" (fun () -> List.hd (verify_all pub [ entry ])))
      ~batch:(fun fresh -> verify_batch pub (entries fresh))
      ~blame:(fun fresh ->
        Telemetry.incr c_verify_each_rejects;
        Telemetry.add c_verify (List.length fresh);
        Telemetry.with_span ~name:"ibs.blame"
          ~attrs:[ "sigs", string_of_int (List.length fresh) ]
        @@ fun () -> verify_all pub (entries fresh))
  in
  List.iter2
    (fun slot ok ->
      match slot, ok with
      | Some (_, Some (m, key, false)), Some true -> Memo.add m key
      | _ -> ())
    keyed oks;
  oks

let verify ?memo pub ~signer ~msg s =
  List.hd (verify_each ?memo pub [ Some (signer, msg, s) ]) = Some true
