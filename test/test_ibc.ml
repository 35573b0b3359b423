open Sc_ibc
module Curve = Sc_ec.Curve

let prm = Lazy.force Util.toy_params
let bs = Util.fresh_bs "ibc-tests"
let sio = Setup.create prm ~bytes_source:bs
let pub = Setup.public sio
let alice = Setup.extract sio "alice"
let bob = Setup.extract sio "bob"
let cs = Setup.extract sio "cloud-server"
let da = Setup.extract sio "agency"

let unit_tests =
  let open Util in
  [
    case "extracted keys validate against P_pub" (fun () ->
        List.iter
          (fun k -> check Alcotest.bool k.Setup.id true (Reference.valid_key pub k))
          [ alice; bob; cs; da ]);
    case "q_of_id matches extraction and is identity-specific" (fun () ->
        check Alcotest.bool "match" true
          (Util.point_equal (Setup.q_of_id pub "alice") alice.Setup.q_id);
        check Alcotest.bool "distinct" false
          (Util.point_equal alice.Setup.q_id bob.Setup.q_id));
    case "extraction hashes an identity once, shared with q_of_id" (fun () ->
        let hashes () = Sc_telemetry.Telemetry.counter_value "pairing.id_hash" in
        let h0 = hashes () in
        let carol = Setup.extract sio "carol-memo" in
        let h1 = hashes () in
        let q = Setup.q_of_id pub "carol-memo" in
        check Alcotest.int "extract hashes" 1 (h1 - h0);
        check Alcotest.int "q_of_id reads the memo" 0 (hashes () - h1);
        check Alcotest.bool "same point" true (q == carol.Setup.q_id));
    case "a foreign secret key fails validation" (fun () ->
        let forged = { alice with Setup.sk = bob.Setup.sk } in
        check Alcotest.bool "invalid" false (Reference.valid_key pub forged));
    case "IBS sign/verify round trip" (fun () ->
        let s = Ibs.sign pub alice ~bytes_source:bs "hello world" in
        check Alcotest.bool "verifies" true
          (Ibs.verify pub ~signer:"alice" ~msg:"hello world" s));
    case "IBS rejects wrong message" (fun () ->
        let s = Ibs.sign pub alice ~bytes_source:bs "hello" in
        check Alcotest.bool "wrong msg" false
          (Ibs.verify pub ~signer:"alice" ~msg:"h3llo" s));
    case "IBS rejects wrong signer" (fun () ->
        let s = Ibs.sign pub alice ~bytes_source:bs "hello" in
        check Alcotest.bool "wrong signer" false
          (Ibs.verify pub ~signer:"bob" ~msg:"hello" s));
    case "IBS signatures are randomized" (fun () ->
        let s1 = Ibs.sign pub alice ~bytes_source:bs "m" in
        let s2 = Ibs.sign pub alice ~bytes_source:bs "m" in
        check Alcotest.bool "distinct U" false (Util.point_equal s1.Ibs.u s2.Ibs.u);
        check Alcotest.bool "both verify" true
          (Ibs.verify pub ~signer:"alice" ~msg:"m" s1
          && Ibs.verify pub ~signer:"alice" ~msg:"m" s2));
    case "IBS serialization round trip" (fun () ->
        let s = Ibs.sign pub alice ~bytes_source:bs "serialize me" in
        match Ibs.of_bytes pub (Ibs.to_bytes pub s) with
        | Some s' ->
          check Alcotest.bool "u" true (Util.point_equal s.Ibs.u s'.Ibs.u);
          check Alcotest.bool "v" true (Util.point_equal s.Ibs.v s'.Ibs.v)
        | None -> Alcotest.fail "decode failed");
    case "IBS of_bytes rejects garbage" (fun () ->
        check Alcotest.bool "garbage" true (Ibs.of_bytes pub "zz" = None);
        check Alcotest.bool "bad length" true (Ibs.of_bytes pub "0099abc" = None));
    case "IBS verify_batch: honest batch, one multi-pairing" (fun () ->
        let entries =
          List.concat_map
            (fun (key, id) ->
              List.init 3 (fun i ->
                  let m = Printf.sprintf "%s-batch-%d" id i in
                  id, m, Ibs.sign pub key ~bytes_source:bs m))
            [ alice, "alice"; bob, "bob" ]
        in
        let p0 = Sc_pairing.Tate.pairings_performed () in
        check Alcotest.bool "batch verifies" true (Ibs.verify_batch pub entries);
        check Alcotest.int "one multi-pairing" 1
          (Sc_pairing.Tate.pairings_performed () - p0);
        check Alcotest.bool "empty batch" true (Ibs.verify_batch pub []));
    case "IBS verify_batch rejects a single bad signature" (fun () ->
        let good =
          List.init 3 (fun i ->
              let m = Printf.sprintf "vb-%d" i in
              "alice", m, Ibs.sign pub alice ~bytes_source:bs m)
        in
        let bad = "bob", "claimed", Ibs.sign pub alice ~bytes_source:bs "other" in
        check Alcotest.bool "tainted batch" false
          (Ibs.verify_batch pub (good @ [ bad ])));
    case "DVS designated verification (eq. 5/7)" (fun () ->
        let raw = Ibs.sign pub alice ~bytes_source:bs "designated" in
        let d = Dvs.designate pub raw ~verifier:"cloud-server" in
        check Alcotest.bool "CS verifies" true
          (Dvs.verify pub ~verifier_key:cs ~q_id:(Setup.q_of_id pub "alice") ~msg:"designated" d));
    case "DVS rejected by non-designated verifier" (fun () ->
        let raw = Ibs.sign pub alice ~bytes_source:bs "designated" in
        let d = Dvs.designate pub raw ~verifier:"cloud-server" in
        check Alcotest.bool "DA cannot verify CS-designated" false
          (Dvs.verify pub ~verifier_key:da ~q_id:(Setup.q_of_id pub "alice") ~msg:"designated" d));
    case "DVS detects message tampering" (fun () ->
        let raw = Ibs.sign pub alice ~bytes_source:bs "original" in
        let d = Dvs.designate pub raw ~verifier:"agency" in
        check Alcotest.bool "tampered" false
          (Dvs.verify pub ~verifier_key:da ~q_id:(Setup.q_of_id pub "alice") ~msg:"tampered" d));
    case "DVS simulation: verifier can forge transcripts (privacy)" (fun () ->
        (* The designated verifier simulates a signature alice never
           produced; it passes its own verification, which is exactly
           why a transcript convinces no third party (§VII-B). *)
        let fake =
          Dvs.simulate pub ~verifier_key:da ~signer:"alice"
            ~msg:"alice never signed this" ~bytes_source:bs
        in
        check Alcotest.bool "accepted" true
          (Dvs.verify pub ~verifier_key:da ~q_id:(Setup.q_of_id pub "alice")
             ~msg:"alice never signed this" fake));
    case "batch verify accepts valid batch from multiple signers" (fun () ->
        let entries =
          List.concat_map
            (fun (key, id) ->
              List.init 4 (fun i ->
                  let m = Printf.sprintf "%s-msg-%d" id i in
                  let raw = Ibs.sign pub key ~bytes_source:bs m in
                  {
                    Agg.signer = id;
                    msg = m;
                    dvs = Dvs.designate pub raw ~verifier:"agency";
                  }))
            [ alice, "alice"; bob, "bob" ]
        in
        check Alcotest.bool "batch ok" true
          (Agg.verify_batch pub ~verifier_key:da entries));
    case "batch verify accepts empty batch" (fun () ->
        check Alcotest.bool "empty" true (Agg.verify_batch pub ~verifier_key:da []));
    case "batch verify rejects one bad entry" (fun () ->
        let good =
          List.init 5 (fun i ->
              let m = Printf.sprintf "ok-%d" i in
              let raw = Ibs.sign pub alice ~bytes_source:bs m in
              { Agg.signer = "alice"; msg = m; dvs = Dvs.designate pub raw ~verifier:"agency" })
        in
        let bad =
          match good with
          | e :: _ -> { e with Agg.msg = "altered" }
          | [] -> assert false
        in
        check Alcotest.bool "rejected" false
          (Agg.verify_batch pub ~verifier_key:da (bad :: good)));
    case "batch verification uses one pairing" (fun () ->
        let entries =
          List.init 10 (fun i ->
              let m = Printf.sprintf "count-%d" i in
              let raw = Ibs.sign pub alice ~bytes_source:bs m in
              { Agg.signer = "alice"; msg = m; dvs = Dvs.designate pub raw ~verifier:"agency" })
        in
        let p0 = Sc_pairing.Tate.pairings_performed () in
        assert (Agg.verify_batch pub ~verifier_key:da entries);
        check Alcotest.int "1 pairing for 10 sigs" 1
          (Sc_pairing.Tate.pairings_performed () - p0));
    case "batch verification counts on agg.* under its own span" (fun () ->
        let module Telemetry = Sc_telemetry.Telemetry in
        let entries =
          List.init 3 (fun i ->
              let m = Printf.sprintf "tel-%d" i in
              let raw = Ibs.sign pub alice ~bytes_source:bs m in
              { Agg.signer = "alice"; msg = m; dvs = Dvs.designate pub raw ~verifier:"agency" })
        in
        let b0 = Telemetry.counter_value "agg.verify_batch" in
        let s0 = Telemetry.counter_value "agg.verify_batch_sigs" in
        let span_count () =
          match Telemetry.find "span.agg.verify_batch" with
          | Some (Telemetry.Histogram h) -> h.Telemetry.count
          | Some _ | None -> 0
        in
        let n0 = span_count () in
        assert (Agg.verify_batch pub ~verifier_key:da entries);
        check Alcotest.int "batches" 1 (Telemetry.counter_value "agg.verify_batch" - b0);
        check Alcotest.int "sigs" 3 (Telemetry.counter_value "agg.verify_batch_sigs" - s0);
        check Alcotest.int "span" 1 (span_count () - n0));
    case "warrant verify within lifetime" (fun () ->
        let w =
          Warrant.issue pub alice ~bytes_source:bs ~delegatee:"agency" ~now:1000.0
            ~lifetime:100.0 ~scope:"audit"
        in
        check Alcotest.bool "valid now" true (Warrant.verify pub ~now:1050.0 w);
        check Alcotest.bool "expired" false (Warrant.verify pub ~now:1101.0 w);
        check Alcotest.bool "before issue" false (Warrant.verify pub ~now:999.0 w));
    case "warrant tampering detected" (fun () ->
        let w =
          Warrant.issue pub alice ~bytes_source:bs ~delegatee:"agency" ~now:0.0
            ~lifetime:100.0 ~scope:"audit"
        in
        let extended =
          { w with Warrant.warrant = { w.Warrant.warrant with Warrant.expires_at = 1e9 } }
        in
        check Alcotest.bool "extended lifetime rejected" false
          (Warrant.verify pub ~now:50.0 extended);
        let rescoped =
          { w with Warrant.warrant = { w.Warrant.warrant with Warrant.scope = "steal" } }
        in
        check Alcotest.bool "rescoped rejected" false
          (Warrant.verify pub ~now:50.0 rescoped));
  ]

let property_tests =
  let open Util in
  let gen_msg = QCheck2.Gen.(string_size ~gen:printable (int_range 0 60)) in
  [
    qcheck ~count:15 "IBS correct for random messages" gen_msg (fun m ->
        let s = Ibs.sign pub alice ~bytes_source:bs m in
        Ibs.verify pub ~signer:"alice" ~msg:m s);
    qcheck ~count:15 "DVS correct for random messages" gen_msg (fun m ->
        let raw = Ibs.sign pub bob ~bytes_source:bs m in
        let d = Dvs.designate pub raw ~verifier:"agency" in
        Dvs.verify pub ~verifier_key:da ~q_id:(Setup.q_of_id pub "bob") ~msg:m d);
    (* Ibs.verify_each blames a rejected batch with one shared
       inversion for all its verification points: its answers must be
       Ibs.verify's, entry by entry, with and without a memo that
       already holds some of the good entries. *)
    qcheck ~count:12 "Ibs.verify_each = per-entry Ibs.verify, memo hits included"
      QCheck2.Gen.(
        pair
          (string_size ~gen:char (int_range 1 8))
          (list_size (int_range 1 6) (pair (int_bound 6) bool)))
      (fun (seed, kinds) ->
        let bs = fresh_bs ("ibs-each:" ^ seed) in
        let module Params = Sc_pairing.Params in
        let fp = prm.Params.fp in
        let entry i (kind, remembered) =
          let key = if i mod 2 = 0 then alice else bob in
          let msg = Printf.sprintf "each-%d:%s" i seed in
          let s = Ibs.sign pub key ~bytes_source:bs msg in
          let s, msg =
            match kind, s.Ibs.u with
            | 1, _ ->
              { s with Ibs.v = (Ibs.sign pub key ~bytes_source:bs "other").Ibs.v }, msg
            | 2, _ -> { s with Ibs.u = Reference.add fp s.Ibs.u prm.Params.g }, msg
            | 3, _ -> s, msg ^ "'"
            | 4, Curve.Affine (x, y) ->
              { s with Ibs.u = Curve.Affine (x, Sc_field.Fp.add fp y (Sc_field.Fp.one fp)) }, msg
            | 5, _ -> { s with Ibs.v = Reference.add fp s.Ibs.v prm.Params.g }, msg
            | _ -> s, msg
          in
          (key.Setup.id, msg, s), remembered
        in
        let entries = List.mapi entry kinds in
        let memo = Ibs.Memo.create "ibs-each-test" in
        List.iter
          (fun ((signer, msg, s), remembered) ->
            if remembered then ignore (Ibs.verify ~memo pub ~signer ~msg s))
          entries;
        let slots = List.concat_map (fun (e, _) -> [ Some e; None ]) entries in
        let expected =
          List.concat_map
            (fun ((signer, msg, s), _) -> [ Some (Ibs.verify pub ~signer ~msg s); None ])
            entries
        in
        Ibs.verify_each ~memo pub slots = expected
        && Ibs.verify_each pub slots = expected);
  ]

(* Agg.verify_batch must accept exactly the batches whose every entry
   passes Dvs.verify.  Honest batches alone cannot show that, so each
   case perturbs an honest batch the way a cheating signer or server
   could, and both verdicts are compared with the one the perturbation
   must produce.  An unweighted product of the Σ_i accepts the swap,
   shift and two-entry twist cases; a G1 check on U rejects the
   signer-made torsion case that Dvs.verify accepts.  Runs on
   [small], whose cofactor 196 = 2²·7² has elements of order 2 and 7
   in both the unitary group and the curve. *)
let perturbation_tests =
  let open Util in
  let module Tate = Sc_pairing.Tate in
  let module Params = Sc_pairing.Params in
  let module Nat = Sc_bignum.Nat in
  let module Fp = Sc_field.Fp in
  let module Fp2 = Sc_field.Fp2 in
  let prm = Lazy.force Params.small in
  let sio = Setup.create prm ~bytes_source:(fresh_bs "ibc-perturb-sio") in
  let pub = Setup.public sio in
  let keys = [ Setup.extract sio "alice"; Setup.extract sio "bob" ] in
  let verifier = Setup.extract sio "verifier" in
  let curve = prm.Params.curve and fp = prm.Params.fp in
  (* p + 1 = cofactor·q: the unitary group and E(F_p) both have order
     p + 1, so raising to (p + 1)/ℓ lands in the order-ℓ part. *)
  let order = Nat.add prm.Params.p Nat.one in
  let rec unitary_of_order l bs =
    let a = Fp2.make (Fp.random fp ~bytes_source:bs) (Fp.random fp ~bytes_source:bs) in
    if Fp2.is_zero a then unitary_of_order l bs
    else
      let z = Tate.gt_pow prm (Fp2.mul fp (Reference.fp2_conj fp a) (Reference.fp2_inv fp a)) (fst (Reference.divmod order (Nat.of_int l))) in
      if Fp2.equal z (Fp2.one fp) then unitary_of_order l bs else z
  in
  let dvs_ok (e : Agg.entry) =
    Dvs.verify pub ~verifier_key:verifier ~q_id:(Setup.q_of_id pub e.Agg.signer)
      ~msg:e.Agg.msg e.Agg.dvs
  in
  let with_sigma (e : Agg.entry) sigma = { e with Agg.dvs = { e.Agg.dvs with Dvs.sigma } } in
  let times (e : Agg.entry) x = with_sigma e (Fp2.mul fp e.Agg.dvs.Dvs.sigma x) in
  let with_u (e : Agg.entry) u = { e with Agg.dvs = { e.Agg.dvs with Dvs.u } } in
  let set i x es = List.mapi (fun j e -> if j = i then x else e) es in
  let gen = QCheck2.Gen.(pair (string_size ~gen:char (int_range 1 16)) (int_range 3 5)) in
  [
    qcheck ~count:12 "batch = for_all Dvs.verify on perturbed batches" gen
      (fun (seed, n) ->
        let bs = fresh_bs ("ibc-perturb:" ^ seed) in
        (* Entries alternate alice, bob, alice, …: 0 and 2 share a
           signer, 0 and 1 do not. *)
        let key i = List.nth keys (i mod 2) in
        let es =
          List.init n (fun i ->
              let k = key i in
              let msg = Printf.sprintf "block-%d:%s" i seed in
              {
                Agg.signer = k.Setup.id;
                msg;
                dvs = Dvs.designate pub (Ibs.sign pub k ~bytes_source:bs msg) ~verifier:"verifier";
              })
        in
        let e i = List.nth es i in
        let sigma i = (e i).Agg.dvs.Dvs.sigma in
        let x = Tate.gt_pow prm (sigma 0) (Params.random_scalar prm ~bytes_source:bs) in
        let x_inv = Reference.fp2_inv fp x in
        let minus_one = Fp2.make (Fp.neg fp (Fp.one fp)) (Fp.zero fp) in
        let z7 = unitary_of_order 7 bs in
        let t = torsion_point prm bs in
        (* A signer may pick U = r·Q_ID + T itself: h is then taken over
           that U, and ê(sk_B, ·) maps T to 1, so the signature
           verifies. *)
        let torsion_sig =
          torsion_signature pub (key 0) ~bytes_source:bs t (e 0).Agg.msg
        in
        let signer_torsion =
          { (e 0) with Agg.dvs = Dvs.designate pub torsion_sig ~verifier:"verifier" }
        in
        let cases =
          [
            "honest", true, es;
            "swap sigma, two signers", false,
            set 0 (with_sigma (e 0) (sigma 1)) (set 1 (with_sigma (e 1) (sigma 0)) es);
            "swap sigma, one signer", false,
            set 0 (with_sigma (e 0) (sigma 2)) (set 2 (with_sigma (e 2) (sigma 0)) es);
            "X/X^-1 shift, one signer", false, set 0 (times (e 0) x) (set 2 (times (e 2) x_inv) es);
            "X/X^-1 shift, two signers", false, set 0 (times (e 0) x) (set 1 (times (e 1) x_inv) es);
            "twist -1, one entry", false, set 0 (times (e 0) minus_one) es;
            "twist -1, two entries", false,
            set 0 (times (e 0) minus_one) (set 1 (times (e 1) minus_one) es);
            "twist order 7, one entry", false, set 0 (times (e 0) z7) es;
            "twist order 7 and its inverse", false,
            set 0 (times (e 0) z7) (set 1 (times (e 1) (Reference.fp2_inv fp z7)) es);
            "U of another entry", false, set 0 (with_u (e 0) (e 1).Agg.dvs.Dvs.u) es;
            "(U, sigma) of another entry", false, set 0 { (e 0) with Agg.dvs = (e 1).Agg.dvs } es;
            "third party adds torsion to U", false,
            set 0 (with_u (e 0) (Reference.add fp (e 0).Agg.dvs.Dvs.u t)) es;
            "signer-made U + T", true, set 0 signer_torsion es;
          ]
        in
        let wrong =
          List.filter_map
            (fun (name, expected, batch) ->
              let individual = List.for_all dvs_ok batch in
              let agg = Agg.verify_batch pub ~verifier_key:verifier batch in
              if individual = expected && agg = expected then None
              else Some (Printf.sprintf "%s (batch %b, entries %b)" name agg individual))
            cases
        in
        (* The torsion cases on plain IBS signatures (U, V) over the
           same messages, through all three public verifiers.  Each
           checks V for order q and U only for lying on the curve: a
           third party's U + T changes h and fails, while the signer's
           own U + T verifies, as for Dvs.verify above. *)
        let ibs =
          List.init n (fun i ->
              (key i).Setup.id, (e i).Agg.msg,
              Ibs.sign pub (key i) ~bytes_source:bs (e i).Agg.msg)
        in
        let signer0, msg0, s0 = List.hd ibs in
        let ibs_cases =
          [
            "IBS honest", true, s0;
            "IBS V + T", false, { s0 with Ibs.v = Reference.add fp s0.Ibs.v t };
            "IBS third party adds torsion to U", false,
            { s0 with Ibs.u = Reference.add fp s0.Ibs.u t };
            "IBS signer-made U + T", true, torsion_sig;
          ]
        in
        let ibs_wrong =
          List.filter_map
            (fun (name, expected, s) ->
              let batch = set 0 (signer0, msg0, s) ibs in
              let single = Ibs.verify pub ~signer:signer0 ~msg:msg0 s in
              let batched = Ibs.verify_batch pub batch in
              let each = Ibs.verify_each pub (List.map Option.some batch) in
              let each_expected = List.mapi (fun i _ -> Some (i > 0 || expected)) batch in
              if single = expected && batched = expected && each = each_expected then None
              else Some (Printf.sprintf "%s (verify %b, batch %b)" name single batched))
            ibs_cases
        in
        (* Cross-signature cancellation in the IBS batch: each case
           leaves Σ V_i, or Σ V_i and Σ W_i, unchanged, so an unweighted
           sum accepts it, while every case has a bad entry. *)
        let ibs_entry i = List.nth ibs i in
        let with_v i v = let signer, msg, s = ibs_entry i in signer, msg, { s with Ibs.v } in
        let v i = let _, _, s = ibs_entry i in s.Ibs.v in
        let g1_x = Sc_pairing.Params.mul_g prm (Params.random_scalar prm ~bytes_source:bs) in
        let shift i j =
          set i (with_v i (Reference.add fp (v i) g1_x))
            (set j (with_v j (Reference.add fp (v j) (Curve.neg curve g1_x))) ibs)
        in
        let swap i j = set i (with_v i (v j)) (set j (with_v j (v i)) ibs) in
        let ibs_batch_wrong =
          List.filter_map
            (fun (name, batch) ->
              let individual =
                List.for_all
                  (fun (signer, msg, s) -> Ibs.verify pub ~signer ~msg s)
                  batch
              in
              let batched = Ibs.verify_batch pub batch in
              if not (individual || batched) then None
              else
                Some (Printf.sprintf "%s (batch %b, entries %b)" name batched individual))
            [
              "IBS V + X / V - X, one signer", shift 0 2;
              "IBS V + X / V - X, two signers", shift 0 1;
              "IBS swap V, one signer", swap 0 2;
              "IBS swap V, two signers", swap 0 1;
              "IBS -V", set 0 (with_v 0 (Curve.neg curve (v 0))) ibs;
            ]
        in
        let all_wrong = wrong @ ibs_wrong @ ibs_batch_wrong in
        all_wrong = []
        || QCheck2.Test.fail_reportf "n=%d: %s" n (String.concat "; " all_wrong));
    (* Blame forms every verification point of a rejected batch with
       one shared inversion, across signers: its answers must be the
       per-entry ones, against the textbook check (affine U + h·Q_ID,
       then a pairing) and Dvs.verify alike. *)
    qcheck ~count:8 "blame = per-entry Dvs.verify on mixed-signer batches"
      QCheck2.Gen.(
        pair
          (string_size ~gen:char (int_range 1 16))
          (list_size (int_range 2 6) (int_bound 6)))
      (fun (seed, kinds) ->
        let bs = fresh_bs ("ibc-blame:" ^ seed) in
        let pc_sk = Tate.precompute prm verifier.Setup.sk in
        let t = torsion_point prm bs in
        let n = List.length kinds in
        let entry i =
          let k = List.nth keys (i mod 2) in
          let msg = Printf.sprintf "blame-%d:%s" i seed in
          {
            Agg.signer = k.Setup.id;
            msg;
            dvs =
              Dvs.designate pub (Ibs.sign pub k ~bytes_source:bs msg)
                ~verifier:"verifier";
          }
        in
        let es = List.init n entry in
        let perturb i kind (e : Agg.entry) =
          let u = e.Agg.dvs.Dvs.u in
          match kind with
          | 0 -> with_sigma e (List.nth es ((i + 1) mod n)).Agg.dvs.Dvs.sigma
          | 1 -> with_u e (Reference.add fp u prm.Params.g)
          | 2 -> with_u e (Reference.add fp u t)
          | 3 ->
            let k = List.nth keys (i mod 2) in
            { e with
              Agg.dvs =
                Dvs.designate pub
                  (torsion_signature pub k ~bytes_source:bs t e.Agg.msg)
                  ~verifier:"verifier" }
          | 4 -> (
            match u with
            | Curve.Affine (x, y) -> with_u e (Curve.Affine (x, Fp.add fp y (Fp.one fp)))
            | Curve.Infinity -> e)
          | 5 -> times e (Fp2.make (Fp.neg fp (Fp.one fp)) (Fp.zero fp))
          | _ -> e
        in
        let batch =
          List.mapi (fun i (kind, e) -> perturb i kind e) (List.combine kinds es)
        in
        let textbook (e : Agg.entry) =
          let u = e.Agg.dvs.Dvs.u in
          Curve.on_curve curve u
          &&
          let q_id = Setup.q_of_id pub e.Agg.signer in
          let h = Ibs.h2 pub ~u ~msg:e.Agg.msg in
          let w = Reference.add fp u (Curve.mul curve h q_id) in
          Fp2.equal e.Agg.dvs.Dvs.sigma (Tate.pairing_precomp prm w pc_sk)
        in
        let expected = List.map textbook batch in
        let got =
          Agg.verify_each pub ~verifier_key:verifier
            (List.map (fun e -> Some (Some "cs", e)) batch)
        in
        let all =
          Dvs.verify_all pub ~verifier_key:verifier
            (List.map
               (fun (e : Agg.entry) ->
                 Setup.q_of_id pub e.Agg.signer, e.Agg.msg, e.Agg.dvs)
               batch)
        in
        let show l =
          String.concat "" (List.map (fun b -> if b then "1" else "0") l)
        in
        (got = List.map Option.some expected
         && all = expected
         && List.map dvs_ok batch = expected)
        || QCheck2.Test.fail_reportf
             "kinds [%s]: blame %s, verify_all %s, textbook %s"
             (String.concat ";" (List.map string_of_int kinds))
             (show (List.map (Option.value ~default:false) got))
             (show all) (show expected));
  ]

(* Dvs.sign_batch raises the bases ê(sk_ID, Q_B) to e = r + h instead of
   forming V = e·sk_ID and pairing it: same outputs, checked against
   the textbook [designate (Ibs.sign …)] from the same DRBG seed. *)
let designation_tests =
  let open Util in
  let open QCheck2.Gen in
  let gen_msg = string_size ~gen:printable (int_range 0 60) in
  let gen_id = map (fun s -> "v:" ^ s) (string_size ~gen:printable (int_range 0 12)) in
  let gen_seed = string_size ~gen:char (int_range 1 16) in
  let curve = prm.Sc_pairing.Params.curve in
  let same_dvs u sigma (d : Dvs.t) =
    String.equal (Curve.to_bytes curve u) (Curve.to_bytes curve d.Dvs.u)
    && String.equal
         (Sc_pairing.Tate.gt_to_bytes prm sigma)
         (Sc_pairing.Tate.gt_to_bytes prm d.Dvs.sigma)
  in
  let bases v1 v2 =
    Dvs.base pub alice ~verifier:v1, Dvs.base pub alice ~verifier:v2
  in
  [
    qcheck ~count:12 "Dvs.sign = designate (Ibs.sign …) bit for bit, and verifies"
      (quad gen_msg gen_seed gen_id gen_id) (fun (msg, seed, v1, v2) ->
        let u, s1, s2 =
          List.hd
            (Dvs.sign_batch pub alice ~bytes_source:(fresh_bs seed) (bases v1 v2)
               [ msg ])
        in
        let raw = Ibs.sign pub alice ~bytes_source:(fresh_bs seed) msg in
        same_dvs u s1 (Dvs.designate pub raw ~verifier:v1)
        && same_dvs u s2 (Dvs.designate pub raw ~verifier:v2)
        && Dvs.verify pub ~verifier_key:(Setup.extract sio v1) ~q_id:(Setup.q_of_id pub "alice")
             ~msg { Dvs.u; sigma = s1 }
        && Dvs.verify pub ~verifier_key:(Setup.extract sio v2) ~q_id:(Setup.q_of_id pub "alice")
             ~msg { Dvs.u; sigma = s2 });
    qcheck ~count:6 "Dvs.sign output passes Agg.verify_batch for both verifiers"
      (pair gen_seed (list_size (int_range 1 5) gen_msg)) (fun (seed, msgs) ->
        let bs = fresh_bs seed in
        let b = bases "cloud-server" "agency" in
        let signed =
          List.mapi
            (fun i m ->
              let msg = Printf.sprintf "%d:%s" i m in
              msg, List.hd (Dvs.sign_batch pub alice ~bytes_source:bs b [ msg ]))
            msgs
        in
        let batch pick =
          List.map
            (fun (msg, s) -> { Agg.signer = "alice"; msg; dvs = pick s })
            signed
        in
        Agg.verify_batch pub ~verifier_key:cs
          (batch (fun (u, s, _) -> { Dvs.u; sigma = s }))
        && Agg.verify_batch pub ~verifier_key:da
             (batch (fun (u, _, s) -> { Dvs.u; sigma = s })));
    qcheck ~count:12 "a flipped bit of the exponent r+h is rejected"
      (triple gen_msg gen_seed (int_range 0 1000)) (fun (msg, seed, k) ->
        let u, sigma, _ =
          List.hd
            (Dvs.sign_batch pub alice ~bytes_source:(fresh_bs seed)
               (bases "agency" "cloud-server") [ msg ])
        in
        (* Replay the signer's one DRBG draw to rebuild e = r + h. *)
        let module Nat = Sc_bignum.Nat in
        let q = prm.Sc_pairing.Params.q in
        let r =
          Sc_pairing.Params.random_scalar prm ~bytes_source:(fresh_bs seed)
        in
        let e = Nat.rem (Nat.add r (Ibs.h2 pub ~u ~msg)) q in
        let k = k mod Nat.bit_length q in
        let bit = Nat.shift_left Nat.one k in
        let flipped =
          if Nat.test_bit e k then Nat.sub e bit else Nat.add e bit
        in
        let base = Sc_pairing.Tate.pairing prm alice.Setup.sk da.Setup.q_id in
        let verify sigma =
          Dvs.verify pub ~verifier_key:da ~q_id:(Setup.q_of_id pub "alice") ~msg { Dvs.u; sigma }
        in
        Sc_field.Fp2.equal sigma (Sc_pairing.Tate.gt_pow prm base e)
        && verify sigma
        && not (verify (Sc_pairing.Tate.gt_pow prm base flipped)));
  ]

(* A lone fresh signature is what every computation audit's root is,
   and a lone designated signature what a one-sample audit checks:
   each verify_each must check it as its scheme's single verifier does,
   not as a batch of one (which costs more inversions, an MSM, the
   coefficients' hashes and, for Agg, a GT membership test and a
   multi-exponentiation), whether it passes or fails. *)
let lone_entry_tests =
  let open Util in
  let module Telemetry = Sc_telemetry.Telemetry in
  let counters =
    [
      "pairing.count"; "pairing.lines"; "pairing.gt_member";
      "pairing.gt_multi_exp"; "curve.msm"; "curve.msm.terms"; "curve.inv";
      "hash.sha256.digests"; "ibs.verify"; "ibs.verify_batch";
      "agg.verify_batch";
    ]
  in
  let moved f =
    let before = List.map Telemetry.counter_value counters in
    f ();
    List.map2 (fun c b -> c, Telemetry.counter_value c - b) counters before
  in
  let s = Ibs.sign pub alice ~bytes_source:bs "lone" in
  let d = Dvs.designate pub s ~verifier:"agency" in
  let schemes =
    [
      ( "Ibs.verify_each on one fresh entry costs what Ibs.verify does",
        (fun msg -> Ibs.verify pub ~signer:"alice" ~msg s),
        fun msg -> Ibs.verify_each pub [ None; Some ("alice", msg, s) ] );
      ( "Agg.verify_each on one fresh entry costs what Dvs.verify does",
        (fun msg ->
          Dvs.verify pub ~verifier_key:da ~q_id:(Setup.q_of_id pub "alice")
            ~msg d),
        fun msg ->
          Agg.verify_each pub ~verifier_key:da
            [ None; Some (None, { Agg.signer = "alice"; msg; dvs = d }) ] );
    ]
  in
  List.map
    (fun (name, single, each) ->
      case name (fun () ->
          (* Warm the signer's comb and the pairing tables first. *)
          ignore (single "lone");
          List.iter
            (fun (msg, ok) ->
              let single =
                moved (fun () -> check Alcotest.bool "single" ok (single msg))
              in
              let each =
                moved (fun () ->
                    check
                      Alcotest.(list (option bool))
                      "verify_each" [ None; Some ok ] (each msg))
              in
              check Alcotest.(list (pair string int)) (msg ^ ": counters") single
                each)
            [ "lone", true; "lone'", false ]))
    schemes

let suite =
  unit_tests @ property_tests @ perturbation_tests @ designation_tests
  @ lone_entry_tests
