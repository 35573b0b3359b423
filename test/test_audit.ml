module Sampling = Sc_audit.Sampling
module Optimal = Sc_audit.Optimal
module Protocol = Sc_audit.Protocol
module Executor = Sc_compute.Executor
module Task = Sc_compute.Task
module Server = Sc_storage.Server

let close ?(eps = 1e-9) a b = Float.abs (a -. b) < eps

let sampling_tests =
  let open Util in
  [
    case "pr_fcs closed form (eq. 10)" (fun () ->
        check Alcotest.bool "t=0 gives 1" true
          (close 1.0 (Sampling.pr_fcs ~csc:0.3 ~range:2.0 ~t:0));
        check Alcotest.bool "csc=1 never caught" true
          (close 1.0 (Sampling.pr_fcs ~csc:1.0 ~range:2.0 ~t:100));
        check Alcotest.bool "csc=0, R=2, t=3 -> 1/8" true
          (close 0.125 (Sampling.pr_fcs ~csc:0.0 ~range:2.0 ~t:3));
        check Alcotest.bool "infinite range kills guessing" true
          (close 0.0 (Sampling.pr_fcs ~csc:0.0 ~range:infinity ~t:1)));
    case "pr_pcs closed form (eq. 12)" (fun () ->
        check Alcotest.bool "ssc only" true
          (close 0.25 (Sampling.pr_pcs ~ssc:0.5 ~sig_forge:0.0 ~t:2));
        check Alcotest.bool "forgery floor" true
          (close 1e-9 (Sampling.pr_pcs ~ssc:0.0 ~sig_forge:1e-9 ~t:1)));
    case "invalid arguments rejected" (fun () ->
        Alcotest.check_raises "csc > 1"
          (Invalid_argument "Sampling: csc must lie in [0,1]") (fun () ->
            ignore (Sampling.pr_fcs ~csc:1.5 ~range:2.0 ~t:1));
        Alcotest.check_raises "range < 1"
          (Invalid_argument "Sampling.pr_fcs: range < 1") (fun () ->
            ignore (Sampling.pr_fcs ~csc:0.5 ~range:0.5 ~t:1)));
    case "monotonicity in t" (fun () ->
        let p t = Sampling.pr_cheat ~csc:0.6 ~ssc:0.4 ~range:4.0 ~sig_forge:1e-9 ~t in
        for t = 1 to 50 do
          if p t > p (t - 1) +. 1e-12 then Alcotest.fail "not decreasing"
        done);
    case "paper spot checks: t=33 and t=15" (fun () ->
        check Alcotest.(option int) "R=2" (Some 33)
          (Sampling.required_samples ~csc:0.5 ~ssc:0.5 ~range:2.0 ~sig_forge:0.0
             ~eps:1e-4 ());
        check Alcotest.(option int) "R=inf" (Some 15)
          (Sampling.required_samples ~csc:0.5 ~ssc:0.5 ~range:infinity
             ~sig_forge:0.0 ~eps:1e-4 ()));
    case "required_samples is the threshold" (fun () ->
        match
          Sampling.required_samples ~csc:0.7 ~ssc:0.3 ~range:8.0 ~sig_forge:1e-9
            ~eps:1e-5 ()
        with
        | None -> Alcotest.fail "expected finite"
        | Some t ->
          let p k =
            Sampling.pr_cheat ~csc:0.7 ~ssc:0.3 ~range:8.0 ~sig_forge:1e-9 ~t:k
          in
          check Alcotest.bool "t works" true (p t <= 1e-5);
          check Alcotest.bool "t-1 fails" true (p (t - 1) > 1e-5));
    case "undetectable cheater gives None" (fun () ->
        check Alcotest.(option int) "csc=ssc=1" None
          (Sampling.required_samples ~csc:1.0 ~ssc:1.0 ~range:2.0 ~sig_forge:0.0
             ~eps:1e-4 ()));
    case "figure4 grid shape and monotonicity" (fun () ->
        let grid = Sampling.figure4_grid ~eps:1e-4 ~range:2.0 () in
        check Alcotest.int "100 points" 100 (List.length grid);
        (* t grows with CSC along a fixed-SSC row. *)
        let row =
          List.filter (fun g -> close g.Sampling.ssc 0.0) grid
          |> List.sort (fun a b -> compare a.Sampling.csc b.Sampling.csc)
        in
        let ts = List.filter_map (fun g -> g.Sampling.t) row in
        check Alcotest.bool "monotone" true
          (List.sort compare ts = ts));
  ]

let optimal_tests =
  let open Util in
  let costs =
    { Optimal.a1 = 1.0; a2 = 1.0; a3 = 1.0; c_trans = 1.0; c_comp = 5.0; c_cheat = 1e4 }
  in
  [
    case "closed form matches exhaustive search" (fun () ->
        List.iter
          (fun q ->
            let closed = Optimal.optimal_t costs ~cheat_prob:q in
            let brute = Optimal.argmin_t costs ~cheat_prob:q in
            (* Ceiling rounding can land one off the true integer
               argmin; costs must still agree at the optimum. *)
            let c_closed = Optimal.total_cost costs ~cheat_prob:q ~t:closed in
            let c_brute = Optimal.total_cost costs ~cheat_prob:q ~t:brute in
            if Float.abs (c_closed -. c_brute) > 1.0 +. (0.01 *. c_brute)
            then Alcotest.failf "q=%f closed=%d brute=%d" q closed brute)
          [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.99 ]);
    case "total cost shape: decreasing then increasing" (fun () ->
        let q = 0.5 in
        let t_star = Optimal.argmin_t costs ~cheat_prob:q in
        check Alcotest.bool "interior optimum" true (t_star > 0 && t_star < 100);
        check Alcotest.bool "left higher" true
          (Optimal.total_cost costs ~cheat_prob:q ~t:0
           > Optimal.total_cost costs ~cheat_prob:q ~t:t_star);
        check Alcotest.bool "right higher" true
          (Optimal.total_cost costs ~cheat_prob:q ~t:(t_star + 50)
           > Optimal.total_cost costs ~cheat_prob:q ~t:t_star));
    case "higher cheat damage raises t*" (fun () ->
        let t1 = Optimal.optimal_t costs ~cheat_prob:0.5 in
        let t2 =
          Optimal.optimal_t { costs with Optimal.c_cheat = 1e8 } ~cheat_prob:0.5
        in
        check Alcotest.bool "more damage, more samples" true (t2 > t1));
    case "higher transmission cost lowers t*" (fun () ->
        let t1 = Optimal.optimal_t costs ~cheat_prob:0.5 in
        let t2 =
          Optimal.optimal_t { costs with Optimal.c_trans = 100.0 } ~cheat_prob:0.5
        in
        check Alcotest.bool "fewer samples" true (t2 < t1));
    case "invalid cheat_prob rejected" (fun () ->
        Alcotest.check_raises "q=1"
          (Invalid_argument "Optimal.optimal_t: cheat_prob must be in (0,1)")
          (fun () -> ignore (Optimal.optimal_t costs ~cheat_prob:1.0)));
    case "learn_costs averages history" (fun () ->
        let records =
          [
            { Optimal.samples = 10; bytes_transferred = 1000.0;
              recompute_seconds = 0.5; undetected_cheat_damage = None };
            { Optimal.samples = 10; bytes_transferred = 3000.0;
              recompute_seconds = 1.5; undetected_cheat_damage = Some 500.0 };
          ]
        in
        let k = Optimal.learn_costs records in
        check Alcotest.bool "c_trans" true (close k.Optimal.c_trans 200.0);
        check Alcotest.bool "c_comp" true (close k.Optimal.c_comp 1.0);
        check Alcotest.bool "c_cheat" true (close k.Optimal.c_cheat 500.0));
    case "learn_costs rejects empty history" (fun () ->
        Alcotest.check_raises "empty"
          (Invalid_argument "Optimal.learn_costs: empty history") (fun () ->
            ignore (Optimal.learn_costs [])));
  ]

(* --- Algorithm 1 end-to-end ----------------------------------------- *)

let system = Lazy.force Util.shared_system
let pub = Seccloud.System.public system
let da_key = Seccloud.System.da_key system
let cs_key = Seccloud.System.cs_key system "cs-1"
let alice = Seccloud.System.register_user system "alice"
let bs = Util.fresh_bs "audit-tests"

let setup_execution ?(behaviour = Executor.Honest) ?(n_tasks = 16) () =
  let payloads =
    List.init 20 (fun i -> Sc_storage.Block.encode_ints [ i; i * 2; i * 3 ])
  in
  let server = Server.create Server.Honest ~drbg:(Sc_hash.Drbg.create ~seed:"as") in
  Server.store server
    (Sc_storage.Signer.sign_file pub alice ~bytes_source:bs ~bases:(Sc_storage.Signer.bases pub alice ~cs_id:"cs-1" ~da_id:"da") ~file:"data" payloads);
  let drbg = Sc_hash.Drbg.create ~seed:"audit-exec" in
  let service =
    List.init n_tasks (fun i -> { Task.func = Task.Sum; position = i mod 20 })
  in
  Executor.run pub ~cs_key ~server ~behaviour ~drbg ~owner:"alice" ~file:"data"
    service

let warrant () =
  Sc_ibc.Warrant.issue pub alice ~bytes_source:bs ~delegatee:"da" ~now:0.0
    ~lifetime:1e9 ~scope:"tests"

let audit ?(samples = 8) execution =
  let commitment = Protocol.commitment_of_execution execution in
  let drbg = Sc_hash.Drbg.create ~seed:"audit-chal" in
  let challenge =
    Protocol.make_challenge ~drbg ~n_tasks:commitment.Protocol.n_tasks ~samples
      ~warrant:(warrant ())
  in
  match Protocol.respond pub ~now:1.0 execution challenge with
  | None -> { Protocol.valid = false; failures = [ Protocol.Warrant_invalid ] }
  | Some responses ->
    Protocol.verify pub ~verifier_key:da_key ~role:`Da
      [ { Protocol.owner = "alice"; commitment; challenge; responses } ]

let protocol_tests =
  let open Util in
  [
    case "honest execution passes" (fun () ->
        let v = audit (setup_execution ()) in
        check Alcotest.bool "valid" true v.Protocol.valid;
        check Alcotest.int "no failures" 0 (List.length v.Protocol.failures));
    case "guessing cheat fails with Computing_wrong" (fun () ->
        let v =
          audit ~samples:16
            (setup_execution ~behaviour:(Executor.Guess_fraction (1.0, 1 lsl 30)) ())
        in
        check Alcotest.bool "invalid" false v.Protocol.valid;
        check Alcotest.bool "computing flagged" true
          (List.exists
             (function Protocol.Computing_wrong _ -> true | _ -> false)
             v.Protocol.failures));
    case "wrong-position cheat fails with Signature_wrong" (fun () ->
        let v =
          audit ~samples:16
            (setup_execution ~behaviour:(Executor.Wrong_position_fraction 1.0) ())
        in
        check Alcotest.bool "invalid" false v.Protocol.valid;
        check Alcotest.bool "signature flagged" true
          (List.exists
             (function Protocol.Signature_wrong _ -> true | _ -> false)
             v.Protocol.failures));
    case "commit-garbage cheat fails with Root_wrong" (fun () ->
        let v =
          audit ~samples:16
            (setup_execution ~behaviour:(Executor.Commit_garbage_fraction 1.0) ())
        in
        check Alcotest.bool "invalid" false v.Protocol.valid;
        check Alcotest.bool "root flagged" true
          (List.exists
             (function Protocol.Root_wrong _ -> true | _ -> false)
             v.Protocol.failures));
    case "forged root signature detected" (fun () ->
        let execution = setup_execution () in
        let commitment = Protocol.commitment_of_execution execution in
        let forged = { commitment with Protocol.cs_id = "cs-2" } in
        let drbg = Sc_hash.Drbg.create ~seed:"chal" in
        let challenge =
          Protocol.make_challenge ~drbg ~n_tasks:commitment.Protocol.n_tasks
            ~samples:4 ~warrant:(warrant ())
        in
        let responses = Option.get (Protocol.respond pub ~now:1.0 execution challenge) in
        let v =
          Protocol.verify pub ~verifier_key:da_key ~role:`Da
            [
              { Protocol.owner = "alice"; commitment = forged; challenge; responses };
            ]
        in
        check Alcotest.bool "invalid" false v.Protocol.valid;
        check Alcotest.bool "root sig flagged" true
          (List.mem Protocol.Root_signature_wrong v.Protocol.failures));
    case "expired warrant refused by server" (fun () ->
        let execution = setup_execution () in
        let stale =
          Sc_ibc.Warrant.issue pub alice ~bytes_source:bs ~delegatee:"da"
            ~now:0.0 ~lifetime:10.0 ~scope:"old"
        in
        let drbg = Sc_hash.Drbg.create ~seed:"chal" in
        let challenge =
          Protocol.make_challenge ~drbg ~n_tasks:16 ~samples:4 ~warrant:stale
        in
        check Alcotest.bool "refused" true
          (Protocol.respond pub ~now:100.0 execution challenge = None));
    case "missing responses reported" (fun () ->
        let execution = setup_execution () in
        let commitment = Protocol.commitment_of_execution execution in
        let drbg = Sc_hash.Drbg.create ~seed:"chal" in
        let challenge =
          Protocol.make_challenge ~drbg ~n_tasks:16 ~samples:6 ~warrant:(warrant ())
        in
        let responses =
          match Option.get (Protocol.respond pub ~now:1.0 execution challenge) with
          | _ :: rest -> rest
          | [] -> []
        in
        let v =
          Protocol.verify pub ~verifier_key:da_key ~role:`Da
            [ { Protocol.owner = "alice"; commitment; challenge; responses } ]
        in
        check Alcotest.bool "invalid" false v.Protocol.valid;
        check Alcotest.bool "missing flagged" true
          (List.exists
             (function Protocol.Missing_response _ -> true | _ -> false)
             v.Protocol.failures));
    case "challenge samples are distinct and in range" (fun () ->
        let drbg = Sc_hash.Drbg.create ~seed:"chal-dist" in
        let c =
          Protocol.make_challenge ~drbg ~n_tasks:30 ~samples:30 ~warrant:(warrant ())
        in
        let sorted = List.sort_uniq compare c.Protocol.sample_indices in
        check Alcotest.int "30 distinct" 30 (List.length sorted);
        check Alcotest.bool "in range" true
          (List.for_all (fun i -> i >= 0 && i < 30) sorted));
    case "samples clamped to n_tasks" (fun () ->
        let drbg = Sc_hash.Drbg.create ~seed:"clamp" in
        let c =
          Protocol.make_challenge ~drbg ~n_tasks:5 ~samples:50 ~warrant:(warrant ())
        in
        check Alcotest.int "clamped" 5 (List.length c.Protocol.sample_indices));
  ]

let batch_tests =
  let open Util in
  let make_job ?(behaviour = Executor.Honest) tag =
    let execution = setup_execution ~behaviour () in
    let commitment = Protocol.commitment_of_execution execution in
    let drbg = Sc_hash.Drbg.create ~seed:("job:" ^ tag) in
    let challenge =
      Protocol.make_challenge ~drbg ~n_tasks:commitment.Protocol.n_tasks
        ~samples:6 ~warrant:(warrant ())
    in
    let responses = Option.get (Protocol.respond pub ~now:1.0 execution challenge) in
    { Protocol.owner = "alice"; commitment; challenge; responses }
  in
  [
    case "batched verification accepts honest jobs" (fun () ->
        let jobs = [ make_job "a"; make_job "b"; make_job "c" ] in
        let v = Protocol.verify pub ~verifier_key:da_key ~role:`Da jobs in
        check Alcotest.bool "valid" true v.Protocol.valid);
    case "batched verification pairing count is constant" (fun () ->
        (* One multi-pairing for every root signature together + one
           for the aggregate equation — independent of both the job
           count and the per-job sample count (the seed needed
           2 per job + 1). *)
        let jobs = [ make_job "p1"; make_job "p2" ] in
        let before = Sc_pairing.Tate.pairings_performed () in
        let v = Protocol.verify pub ~verifier_key:da_key ~role:`Da jobs in
        check Alcotest.int "2 jobs" 2
          (Sc_pairing.Tate.pairings_performed () - before);
        check Alcotest.bool "valid" true v.Protocol.valid);
    case "batched verification catches a cheating job and names it" (fun () ->
        let jobs =
          [
            make_job "good";
            make_job ~behaviour:(Executor.Wrong_position_fraction 1.0) "evil";
          ]
        in
        let v = Protocol.verify pub ~verifier_key:da_key ~role:`Da jobs in
        check Alcotest.bool "invalid" false v.Protocol.valid;
        check Alcotest.bool "blame assigned" true
          (List.exists
             (function Protocol.Signature_wrong _ -> true | _ -> false)
             v.Protocol.failures));
    case "batched and individual verdicts agree" (fun () ->
        (* A job's verdict beside an honest job is its verdict alone. *)
        let honest = make_job "agree-honest" in
        let verify jobs = Protocol.verify pub ~verifier_key:da_key ~role:`Da jobs in
        List.iter
          (fun behaviour ->
            let job = make_job ~behaviour "agree" in
            let individual = verify [ job ] and batched = verify [ honest; job ] in
            check Alcotest.bool "agree" individual.Protocol.valid
              batched.Protocol.valid;
            check Alcotest.bool "same failures" true
              (individual.Protocol.failures = batched.Protocol.failures))
          [
            Executor.Honest;
            Executor.Guess_fraction (1.0, 1 lsl 30);
            Executor.Wrong_position_fraction 1.0;
            Executor.Commit_garbage_fraction 1.0;
          ]);
  ]

(* Properties: one tampered signature in a batch of t is always
   rejected, and the per-job fallback blames exactly the tampered
   index — over random batch sizes, tamper positions and which
   component (U or the designated Σ) was corrupted. *)
let batch_blame_tests =
  let open Util in
  let ibs_pool =
    lazy
      (List.init 16 (fun i ->
           let msg = Printf.sprintf "msg-%d" i in
           msg, Sc_ibc.Ibs.sign pub alice ~bytes_source:bs msg))
  in
  let blame_fixture =
    lazy
      (let execution = setup_execution ~n_tasks:16 () in
       execution, Protocol.commitment_of_execution execution)
  in
  let gen = QCheck2.Gen.(triple (int_range 2 16) (int_bound 15) bool) in
  [
    qcheck ~count:16 "verify_batch rejects one tampered signature, blame sticks"
      gen
      (fun (t, pos, swap_u) ->
        let pos = pos mod t in
        let batch =
          List.filteri (fun i _ -> i < t) (Lazy.force ibs_pool)
          |> List.mapi (fun i (msg, s) ->
                 if i <> pos then "alice", msg, s
                 else
                   let _, donor = List.nth (Lazy.force ibs_pool) ((pos + 1) mod t) in
                   let s' =
                     if swap_u then { s with Sc_ibc.Ibs.u = donor.Sc_ibc.Ibs.u }
                     else { s with Sc_ibc.Ibs.v = donor.Sc_ibc.Ibs.v }
                   in
                   "alice", msg, s')
        in
        (not (Sc_ibc.Ibs.verify_batch pub batch))
        && (* individual re-checks locate exactly the tampered entry *)
        List.for_all
          (fun (i, (signer, msg, s)) ->
            Sc_ibc.Ibs.verify pub ~signer ~msg s = (i <> pos))
          (List.mapi (fun i e -> i, e) batch));
    qcheck ~count:12 "batched audit blames exactly the tampered sample" gen
      (fun (t, pos, swap_u) ->
        let pos = pos mod t in
        let execution, commitment = Lazy.force blame_fixture in
        let challenge =
          { Protocol.sample_indices = List.init t Fun.id; warrant = warrant () }
        in
        let responses =
          Option.get (Protocol.respond pub ~now:1.0 execution challenge)
        in
        let donor = List.nth responses ((pos + 1) mod t) in
        let tampered =
          List.mapi
            (fun i (r : Executor.response) ->
              if i <> pos then r
              else
                let rr = Option.get r.Executor.read in
                let dr = Option.get donor.Executor.read in
                let signed =
                  if swap_u then
                    {
                      rr.Server.signed with
                      Sc_storage.Signer.u = dr.Server.signed.Sc_storage.Signer.u;
                    }
                  else
                    {
                      rr.Server.signed with
                      Sc_storage.Signer.sigma_da =
                        dr.Server.signed.Sc_storage.Signer.sigma_da;
                    }
                in
                { r with Executor.read = Some { rr with Server.signed } })
            responses
        in
        let v =
          Protocol.verify pub ~verifier_key:da_key ~role:`Da
            [
              {
                Protocol.owner = "alice";
                commitment;
                challenge;
                responses = tampered;
              };
            ]
        in
        (not v.Protocol.valid)
        && v.Protocol.failures = [ Protocol.Signature_wrong pos ]);
  ]

(* Relocation: against a commit-garbage execution, the server answers
   every challenged slot with one honest slot's response relabelled to
   the challenged index.  Data, signature and recomputation all check
   out and the Merkle path is valid, but for another slot; only binding
   the proof's position to the challenged index rejects it. *)
let relocation_tests =
  let open Util in
  let fixture =
    lazy
      (let execution =
         setup_execution ~behaviour:(Executor.Commit_garbage_fraction 0.75) ()
       in
       let commitment = Protocol.commitment_of_execution execution in
       let warrant = warrant () in
       (* A slot whose own single-sample audit passes is honest. *)
       let honest i =
         (Protocol.verify pub ~verifier_key:da_key ~role:`Da
            [
              {
                Protocol.owner = "alice";
                commitment;
                challenge = { Protocol.sample_indices = [ i ]; warrant };
                responses = [ Executor.respond execution i ];
              };
            ])
           .Protocol.valid
       in
       let src = List.find honest (List.init 16 Fun.id) in
       let relocate i =
         { (Executor.respond execution src) with Executor.task_index = i }
       in
       execution, commitment, warrant, src, relocate)
  in
  let names = List.map (Format.asprintf "%a" Protocol.pp_failure) in
  (* Every challenged slot but the honest source is a relocation. *)
  let expected src indices =
    names
      (List.filter_map
         (fun i -> if i = src then None else Some (Protocol.Root_wrong i))
         indices)
  in
  [
    case "relocated answers fail Protocol.verify" (fun () ->
        let execution, commitment, warrant, src, relocate =
          Lazy.force fixture
        in
        let challenge =
          { Protocol.sample_indices = List.init 16 Fun.id; warrant }
        in
        let verify responses =
          Protocol.verify pub ~verifier_key:da_key ~role:`Da
            [ { Protocol.owner = "alice"; commitment; challenge; responses } ]
        in
        check Alcotest.bool "honest answers are caught" false
          (verify (List.map (Executor.respond execution) (List.init 16 Fun.id)))
            .Protocol.valid;
        let v = verify (List.map relocate challenge.Protocol.sample_indices) in
        check Alcotest.bool "invalid" false v.Protocol.valid;
        check Alcotest.(list string) "Root_wrong at every other slot"
          (expected src challenge.Protocol.sample_indices)
          (names v.Protocol.failures));
    case "relocated answers fail a two-job batch" (fun () ->
        let execution, commitment, warrant, src, relocate = Lazy.force fixture in
        let challenge =
          { Protocol.sample_indices = List.init 16 Fun.id; warrant }
        in
        (* The source slot's own honest answer, as a job of its own. *)
        let first =
          {
            Protocol.owner = "alice";
            commitment;
            challenge = { challenge with Protocol.sample_indices = [ src ] };
            responses = [ Executor.respond execution src ];
          }
        in
        let responses = List.map relocate challenge.Protocol.sample_indices in
        let v =
          Protocol.verify pub ~verifier_key:da_key ~role:`Da
            [ first; { Protocol.owner = "alice"; commitment; challenge; responses } ]
        in
        check Alcotest.bool "invalid" false v.Protocol.valid;
        check Alcotest.(list string) "Root_wrong at every other slot"
          (expected src challenge.Protocol.sample_indices)
          (names v.Protocol.failures));
  ]

(* --- warrant binding and verified-signature memos ------------------- *)

let memo_count kind memo =
  Sc_telemetry.Telemetry.counter_value
    (Printf.sprintf "ibs.memo.%s{memo=\"%s\"}" kind memo)

(* A server that holds alice's data, an execution over it, and an
   agency that audits it: each with memos of its own. *)
let in_process () =
  let cloud = Seccloud.Cloud.create system ~id:"cs-1" () in
  assert (
    Seccloud.Cloud.accept_upload cloud
      (Sc_storage.Signer.sign_file pub alice ~bytes_source:bs
         ~bases:(Sc_storage.Signer.bases pub alice ~cs_id:"cs-1" ~da_id:"da")
         ~file:"data"
         (List.init 20 (fun i -> Sc_storage.Block.encode_ints [ i; i * 2; i * 3 ]))));
  let execution =
    Seccloud.Cloud.execute cloud ~owner:"alice" ~file:"data"
      (List.init 16 (fun i -> { Task.func = Task.Sum; position = i }))
  in
  let agency = Seccloud.Agency.create system in
  let audit ?(now = 1.0) warrant =
    Seccloud.Agency.audit_computation agency cloud ~owner:"alice" ~execution
      ~warrant ~now ~samples:4
  in
  cloud, execution, agency, audit

let refused v = v.Protocol.failures = [ Protocol.Warrant_invalid ]

let memo_tests =
  let open Util in
  let bob = Seccloud.System.register_user system "bob" in
  let cs2 = Seccloud.System.cs_key system "cs-2" in
  (* One honest audit round, answered, for the DA-side cases. *)
  let round () =
    let execution = setup_execution () in
    let commitment = Protocol.commitment_of_execution execution in
    let challenge =
      Protocol.make_challenge ~drbg:(Sc_hash.Drbg.create ~seed:"memo-chal")
        ~n_tasks:commitment.Protocol.n_tasks ~samples:4 ~warrant:(warrant ())
    in
    commitment, challenge, Option.get (Protocol.respond pub ~now:1.0 execution challenge)
  in
  (* Algorithm 1 over the round's answers, under commitment [c] and
     the DA memo [memo]. *)
  let da_verdict memo (_, challenge, responses) c =
    Protocol.verify ~memo pub ~verifier_key:da_key ~role:`Da
      [ { Protocol.owner = "alice"; commitment = c; challenge; responses } ]
  in
  let root_refused v =
    List.mem Protocol.Root_signature_wrong v.Protocol.failures
  in
  [
    case "server refuses another owner's warrant and one for another delegatee"
      (fun () ->
        let cloud, execution, agency, audit = in_process () in
        let bobs =
          Sc_ibc.Warrant.issue pub bob ~bytes_source:bs ~delegatee:"da" ~now:0.0
            ~lifetime:1e9 ~scope:"bob's"
        in
        let elsewhere =
          Sc_ibc.Warrant.issue pub alice ~bytes_source:bs ~delegatee:"cs-2"
            ~now:0.0 ~lifetime:1e9 ~scope:"not the DA"
        in
        check Alcotest.bool "another owner's warrant" true (refused (audit bobs));
        check Alcotest.bool "delegated to another party" true
          (refused (audit elsewhere));
        check Alcotest.bool "batched: another owner's warrant" true
          (refused
             (Seccloud.Agency.audit_computation_batched agency
                [ cloud, "alice", execution, bobs ]
                ~now:1.0 ~samples:4));
        check Alcotest.bool "the owner's own warrant for the DA" true
          (audit (warrant ())).Protocol.valid);
    case "a cached warrant past its expiry is refused" (fun () ->
        let _, _, _, audit = in_process () in
        let short =
          Sc_ibc.Warrant.issue pub alice ~bytes_source:bs ~delegatee:"da"
            ~now:0.0 ~lifetime:10.0 ~scope:"short"
        in
        check Alcotest.bool "valid while fresh" true (audit ~now:1.0 short).Protocol.valid;
        let h0 = memo_count "hit" "warrant" in
        check Alcotest.bool "valid again" true (audit ~now:2.0 short).Protocol.valid;
        check Alcotest.int "answered from the memo" (h0 + 1) (memo_count "hit" "warrant");
        check Alcotest.bool "refused once expired" true (refused (audit ~now:11.0 short)));
    case "a cached warrant body under mauled signature bytes is refused" (fun () ->
        let _, _, _, audit = in_process () in
        let w = warrant () in
        check Alcotest.bool "valid" true (audit w).Protocol.valid;
        let m0 = memo_count "miss" "warrant" in
        check Alcotest.bool "mauled bytes refused" true (refused (audit (maul pub w)));
        check Alcotest.int "re-verified" (m0 + 1) (memo_count "miss" "warrant");
        check Alcotest.bool "the original still valid" true (audit w).Protocol.valid);
    case "a remembered root under another signature or cs_id is refused"
      (fun () ->
        let ((commitment, _, _) as r) = round () in
        let memo = Sc_ibc.Ibs.Memo.create "test-root" in
        check Alcotest.bool "honest round valid" true
          (da_verdict memo r commitment).Protocol.valid;
        let h0 = memo_count "hit" "test-root" in
        check Alcotest.bool "valid again" true
          (da_verdict memo r commitment).Protocol.valid;
        check Alcotest.int "root answered from the memo" (h0 + 1)
          (memo_count "hit" "test-root");
        let other_signature =
          {
            commitment with
            Protocol.root_signature =
              Sc_ibc.Ibs.sign pub cs2 ~bytes_source:bs
                ("root:" ^ commitment.Protocol.root);
          }
        in
        check Alcotest.bool "another server's signature" true
          (root_refused (da_verdict memo r other_signature));
        check Alcotest.bool "another cs_id" true
          (root_refused
             (da_verdict memo r { commitment with Protocol.cs_id = "cs-2" })));
    case "a rejected root signature never enters the memo" (fun () ->
        let ((commitment, _, _) as r) = round () in
        let memo = Sc_ibc.Ibs.Memo.create "test-root" in
        let forged = { commitment with Protocol.cs_id = "cs-2" } in
        check Alcotest.bool "refused" true (root_refused (da_verdict memo r forged));
        check Alcotest.bool "refused again" true
          (root_refused (da_verdict memo r forged));
        check Alcotest.int "memo empty" 0 (Sc_ibc.Ibs.Memo.size memo));
    case "past capacity the memo stays bounded and verdicts unchanged" (fun () ->
        let memo = Sc_ibc.Ibs.Memo.create "test-bound" in
        let warrants =
          List.init (Sc_ibc.Ibs.Memo.capacity + 44) (fun i ->
              Sc_ibc.Warrant.issue pub alice ~bytes_source:bs ~delegatee:"da"
                ~now:0.0 ~lifetime:1e9 ~scope:(string_of_int i))
        in
        let pass () =
          List.iter
            (fun w ->
              check Alcotest.bool "same verdict"
                (Sc_ibc.Warrant.verify pub ~now:1.0 w)
                (Sc_ibc.Warrant.verify ~memo pub ~now:1.0 w);
              check Alcotest.bool "mauled refused" false
                (Sc_ibc.Warrant.verify ~memo pub ~now:1.0 (maul pub w));
              check Alcotest.bool "bounded" true
                (Sc_ibc.Ibs.Memo.size memo <= Sc_ibc.Ibs.Memo.capacity))
            warrants
        in
        pass ();
        pass ());
  ]

let empty_tests =
  let open Util in
  [
    case "an empty job list verifies, uncounted" (fun () ->
        let counters =
          [ "audit.rounds"; "audit.samples_checked"; "ibs.verify"; "pairing.count" ]
        in
        let read () = List.map Sc_telemetry.Telemetry.counter_value counters in
        let before = read () in
        let v = Protocol.verify pub ~verifier_key:da_key ~role:`Da [] in
        check Alcotest.bool "valid" true v.Protocol.valid;
        check Alcotest.int "no failures" 0 (List.length v.Protocol.failures);
        check Alcotest.(list int) "counters unmoved" before (read ()));
  ]

let suite =
  sampling_tests @ optimal_tests @ protocol_tests @ batch_tests
  @ batch_blame_tests @ relocation_tests @ memo_tests @ empty_tests
