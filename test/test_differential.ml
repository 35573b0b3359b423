(* Batch-then-blame against per-sample references.

   Storage audits ([Agency.check_blocks]), Algorithm 1
   ([Protocol.verify], [Batch.verify_jobs]) and [Dynamic.audit] check
   their sampled designated signatures with one [Agg.verify_each].
   Each reference ([Reference], test/reference.ml) is the per-sample
   loop the batch replaces: one [Dvs.verify] per sample, in sample
   order.  The answers are fed
   honest, data-corrupted, Σ-swapped, U-perturbed, missing and
   relocated reads, and must match index for index.

   The verified-signature memos get the same treatment: a server and a
   DA that keep their memos across a seeded script of audits must
   answer every step as a fresh party without one. *)

module Server = Sc_storage.Server
module Signer = Sc_storage.Signer
module Block = Sc_storage.Block
module Executor = Sc_compute.Executor
module Task = Sc_compute.Task
module Protocol = Sc_audit.Protocol
module Batch = Sc_audit.Batch
module Dynamic = Sc_storage.Dynamic

let system = Lazy.force Util.shared_system
let pub = Seccloud.System.public system
let prm = pub.Sc_ibc.Setup.prm
let da_key = Seccloud.System.da_key system
let cs_key = Seccloud.System.cs_key system "cs-1"
let owner = "diff-owner"
let owner_key = Seccloud.System.register_user system owner
let n_blocks = 16
let bases = lazy (Signer.bases pub owner_key ~cs_id:"cs-1" ~da_id:"da")

let upload file =
  Signer.sign_file pub owner_key
    ~bytes_source:(Util.fresh_bs ("diff-sign:" ^ file))
    ~bases:(Lazy.force bases) ~file
    (List.init n_blocks (fun i -> Block.encode_ints [ i; 5 * i; 11 ]))

type perturbation =
  | Honest
  | Data_corrupted
  | Sigma_swapped
  | U_perturbed
  | Missing
  | Relocated  (** another position's read, as that position *)
  | Relocated_relabelled  (** another position's read, claimed here *)

let perturbations =
  [|
    Honest; Data_corrupted; Sigma_swapped; U_perturbed; Missing; Relocated;
    Relocated_relabelled;
  |]

(* The read a cheating server returns at [i] instead of the honest
   [read i]; [donor] is another position's honest read. *)
let perturb kind ~i (read : Server.read_result) (donor : Server.read_result) =
  let signed = read.Server.signed in
  match kind with
  | Honest -> Some read
  | Data_corrupted ->
    Some
      {
        read with
        Server.claimed =
          { read.Server.claimed with Block.data = read.Server.claimed.Block.data ^ "!" };
      }
  | Sigma_swapped ->
    Some
      {
        read with
        Server.signed =
          { signed with Signer.sigma_da = donor.Server.signed.Signer.sigma_da };
      }
  | U_perturbed ->
    Some
      {
        read with
        Server.signed =
          { signed with Signer.u = Sc_ec.Curve.add prm.curve signed.Signer.u prm.g };
      }
  | Missing -> None
  | Relocated -> Some donor
  | Relocated_relabelled ->
    Some
      { donor with Server.claimed = { donor.Server.claimed with Block.index = i } }

(* (sampled index, perturbation index) per sample; indices may repeat. *)
let gen_samples =
  QCheck2.Gen.(
    list_size (int_range 1 10)
      (pair (int_bound (n_blocks - 1)) (int_bound (Array.length perturbations - 1))))

let print_samples =
  QCheck2.Print.(list (pair int int))

(* --- storage audits ------------------------------------------------ *)

let storage_server =
  lazy
    (let server =
       Server.create Server.Honest ~drbg:(Sc_hash.Drbg.create ~seed:"diff-store")
     in
     Server.store server (upload "diff-file");
     server)

let honest_read i =
  Option.get (Server.read_honest (Lazy.force storage_server) ~file:"diff-file" ~index:i)

let storage_reads samples =
  List.map
    (fun (i, k) ->
      i, perturb perturbations.(k) ~i (honest_read i) (honest_read ((i + 1) mod n_blocks)))
    samples

let storage_tests =
  let open Util in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:40 ~print:print_samples
         ~name:"check_blocks reports the per-block reference's invalid indices"
         gen_samples (fun samples ->
           let reads = storage_reads samples in
           let r = Seccloud.Agency.check_blocks system ~owner reads in
           let expected =
             Reference.storage_invalid pub ~verifier_key:da_key ~owner reads
           in
           r.Seccloud.Agency.invalid_indices = expected
           && r.Seccloud.Agency.sampled = List.length reads
           && r.Seccloud.Agency.valid_blocks
              = List.length reads - List.length expected
           && r.Seccloud.Agency.intact = (expected = [])
           || QCheck2.Test.fail_reportf "got [%s], reference [%s]"
                (String.concat "; "
                   (List.map string_of_int r.Seccloud.Agency.invalid_indices))
                (String.concat "; " (List.map string_of_int expected))));
    case "check_blocks pays 1 pairing when honest, 1 + t when the batch rejects"
      (fun () ->
        let pairings reads =
          let p0 = Sc_pairing.Tate.pairings_performed () in
          ignore (Seccloud.Agency.check_blocks system ~owner reads);
          Sc_pairing.Tate.pairings_performed () - p0
        in
        let honest = storage_reads (List.init 8 (fun i -> i, 0)) in
        let one_bad = storage_reads (List.init 8 (fun i -> i, if i = 3 then 2 else 0)) in
        check Alcotest.int "honest" 1 (pairings honest);
        check Alcotest.int "one swapped sigma" 9 (pairings one_bad));
  ]

(* --- Algorithm 1 --------------------------------------------------- *)

let n_tasks = 12

let execution storage compute =
  let server =
    Server.create storage ~drbg:(Sc_hash.Drbg.create ~seed:"diff-exec-store")
  in
  Server.store server (upload "diff-data");
  Executor.run pub ~cs_key ~server ~behaviour:compute
    ~drbg:(Sc_hash.Drbg.create ~seed:"diff-exec")
    ~owner ~file:"diff-data"
    (List.init n_tasks (fun i -> { Task.func = Task.Sum; position = i }))

let executions =
  lazy
    (List.map
       (fun (storage, compute) -> execution storage compute)
       [
         Server.Honest, Executor.Honest;
         Server.Corrupt_fraction 0.5, Executor.Honest;
         Server.Honest, Executor.Commit_garbage_fraction 0.5;
         Server.Corrupt_fraction 0.5, Executor.Commit_garbage_fraction 0.5;
       ])

let warrant =
  lazy
    (Sc_ibc.Warrant.issue pub owner_key ~bytes_source:(Util.fresh_bs "diff-w")
       ~delegatee:"da" ~now:0.0 ~lifetime:1e9 ~scope:"differential")

(* Responses to challenged indices, each read perturbed; a [Missing]
   perturbation drops the response itself. *)
let responses execution samples =
  List.filter_map
    (fun (i, k) ->
      let r = Executor.respond execution i in
      let donor = Executor.respond execution ((i + 1) mod n_tasks) in
      match perturbations.(k), r.Executor.read, donor.Executor.read with
      | Missing, _, _ -> None
      | kind, Some read, Some donor_read ->
        Some { r with Executor.read = perturb kind ~i read donor_read }
      | _, None, _ | _, _, None -> Some r)
    samples

let names = List.map (Format.asprintf "%a" Protocol.pp_failure)

let protocol_tests =
  let gen =
    QCheck2.Gen.(
      pair (int_bound 3)
        (list_size (int_range 1 8)
           (pair (int_bound (n_tasks - 1))
              (int_bound (Array.length perturbations - 1)))))
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:40
         ~print:QCheck2.Print.(pair int print_samples)
         ~name:"Protocol.verify and Batch.verify_jobs match per-sample references"
         gen (fun (e, samples) ->
           let execution = List.nth (Lazy.force executions) e in
           let commitment = Protocol.commitment_of_execution execution in
           (* Duplicate indices would be answered twice; a challenge
              never holds them. *)
           let samples =
             List.sort_uniq (fun (a, _) (b, _) -> compare a b) samples
           in
           let challenge =
             {
               Protocol.sample_indices = List.map fst samples;
               warrant = Lazy.force warrant;
             }
           in
           let responses = responses execution samples in
           let checked () =
             Sc_telemetry.Telemetry.counter_value "audit.samples_checked"
           in
           let c0 = checked () in
           let single =
             Protocol.verify pub ~verifier_key:da_key ~role:`Da ~owner commitment
               challenge responses
           in
           let c1 = checked () in
           let batch =
             Batch.verify_jobs pub ~verifier_key:da_key ~role:`Da
               [ { Batch.owner; commitment; challenge; responses } ]
           in
           (* Protocol.verify counts each answered sample once; the
              multi-job batch counts none. *)
           let counted = c1 - c0, checked () - c1 in
           let expected =
             Reference.protocol_verify pub ~verifier_key:da_key ~owner
               commitment challenge responses
           in
           let expected_batch =
             Reference.protocol_batch pub ~verifier_key:da_key ~owner
               commitment challenge responses
           in
           single.Protocol.failures = expected
           && single.Protocol.valid = (expected = [])
           && batch.Protocol.failures = expected_batch
           && batch.Protocol.valid = (expected_batch = [])
           && counted = (List.length responses, 0)
           || QCheck2.Test.fail_reportf
                "verify [%s] vs [%s]; batch [%s] vs [%s]; counted (%d, %d)"
                (String.concat "; " (names single.Protocol.failures))
                (String.concat "; " (names expected))
                (String.concat "; " (names batch.Protocol.failures))
                (String.concat "; " (names expected_batch))
                (fst counted) (snd counted)));
  ]

(* --- Dynamic.audit ------------------------------------------------- *)

let dynamic_tests =
  let gen =
    QCheck2.Gen.(
      pair (string_size ~gen:printable (int_range 1 8))
        (list_size (int_range 0 4)
           (pair (int_bound (n_blocks - 1)) (int_bound 4))))
  in
  let show (r : Dynamic.audit_report) =
    Printf.sprintf "sampled=%d valid=%d invalid=[%s] intact=%b" r.Dynamic.sampled
      r.Dynamic.valid
      (String.concat "; " (List.map string_of_int r.Dynamic.invalid_indices))
      r.Dynamic.intact
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:20
         ~print:QCheck2.Print.(pair string print_samples)
         ~name:"Dynamic.audit matches the per-sample reference" gen
         (fun (seed, tampers) ->
           let file = "diff-dyn" in
           let client, server =
             Dynamic.init pub owner_key ~bytes_source:(Util.fresh_bs "diff-dyn")
               ~cs_id:"cs-1" ~da_id:"da" ~file
               (List.init n_blocks (Printf.sprintf "dyn-payload-%d"))
           in
           List.iter
             (fun (index, k) ->
               let from = (index + 1) mod n_blocks in
               match k with
               | 0 -> Dynamic.corrupt_entry server index
               | 1 -> Dynamic.serve_from server ~index ~from `Sigma_da
               | 2 -> Dynamic.serve_from server ~index ~from `U
               | 3 -> Dynamic.serve_from server ~index ~from `Block
               | _ -> ())
             tampers;
           let statement =
             Dynamic.publish_root client ~bytes_source:(Util.fresh_bs "diff-dyn-root")
           in
           let samples = 10 in
           let got =
             Dynamic.audit pub ~verifier_key:da_key ~owner ~file
               ~root_statement:statement server
               ~drbg:(Sc_hash.Drbg.create ~seed) ~samples
           in
           let expected =
             Reference.dynamic_audit pub ~verifier_key:da_key ~owner client
               server ~file ~seed ~samples
           in
           got = expected
           || QCheck2.Test.fail_reportf "got %s, reference %s" (show got)
                (show expected)));
  ]

(* --- verified-signature memos --------------------------------------- *)

let other_key = Seccloud.System.register_user system "diff-other"

(* The owner's warrant; one that expires before the script's late
   steps; the first under mauled bytes; another owner's; one delegated
   to a server instead of the DA. *)
let script_warrants =
  lazy
    (let issue key ~delegatee ~lifetime scope =
       Sc_ibc.Warrant.issue pub key
         ~bytes_source:(Util.fresh_bs ("diff-script:" ^ scope))
         ~delegatee ~now:0.0 ~lifetime ~scope
     in
     [|
       Lazy.force warrant;
       issue owner_key ~delegatee:"da" ~lifetime:100.0 "short";
       Util.maul pub (Lazy.force warrant);
       issue other_key ~delegatee:"da" ~lifetime:1e9 "other owner";
       issue owner_key ~delegatee:"cs-2" ~lifetime:1e9 "other delegatee";
     |])

(* The honest commitment, the same under another server's id, and the
   same root under another server's signature. *)
let script_commitment commitment = function
  | 0 -> commitment
  | 1 -> { commitment with Protocol.cs_id = "cs-2" }
  | _ ->
    let root = commitment.Protocol.root in
    {
      commitment with
      Protocol.root_signature =
        Sc_ibc.Ibs.sign pub
          (Seccloud.System.cs_key system "cs-2")
          ~bytes_source:(Util.fresh_bs ("diff-root:" ^ root))
          ("root:" ^ root);
    }

(* (execution, warrant, commitment variant, late, samples) *)
let gen_step =
  QCheck2.Gen.(
    tup5 (int_bound 3) (int_bound 4) (int_bound 2) bool
      (list_size (int_range 1 4)
         (pair (int_bound (n_tasks - 1))
            (int_bound (Array.length perturbations - 1)))))

let print_step =
  QCheck2.Print.(tup5 int int int bool print_samples)

let memo_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:25
         ~print:QCheck2.Print.(list print_step)
         ~name:"a server and a DA with memos answer as fresh parties without"
         QCheck2.Gen.(list_size (int_range 2 8) gen_step)
         (fun script ->
           let server = Seccloud.Cloud.create system ~id:"cs-1" () in
           let memo = Sc_ibc.Ibs.Memo.create "diff-root" in
           let previous = ref [] in
           List.for_all
             (fun (e, w, c, late, samples) ->
               let execution = List.nth (Lazy.force executions) e in
               let commitment =
                 script_commitment (Protocol.commitment_of_execution execution) c
               in
               let samples =
                 List.sort_uniq (fun (a, _) (b, _) -> compare a b) samples
               in
               let challenge =
                 {
                   Protocol.sample_indices = List.map fst samples;
                   warrant = (Lazy.force script_warrants).(w);
                 }
               in
               let now = if late then 500.0 else 1.0 in
               let answered cloud =
                 Seccloud.Cloud.respond_to_audit cloud ~now execution
                   challenge
                 <> None
               in
               let fresh = Seccloud.Cloud.create system ~id:"cs-1" () in
               let responses = responses execution samples in
               let jobs =
                 { Batch.owner; commitment; challenge; responses } :: !previous
               in
               previous := [ List.hd jobs ];
               let single ?memo () =
                 Protocol.verify ?memo pub ~verifier_key:da_key ~role:`Da ~owner
                   commitment challenge responses
               in
               let batch ?memo () =
                 Batch.verify_jobs ?memo pub ~verifier_key:da_key ~role:`Da jobs
               in
               let served = answered server and reference = answered fresh in
               let s = single ~memo () and s_ref = single () in
               let b = batch ~memo () and b_ref = batch () in
               served = reference && s = s_ref && b = b_ref
               || QCheck2.Test.fail_reportf
                    "answered %b vs %b; verify [%s] vs [%s]; batch [%s] vs [%s]"
                    served reference
                    (String.concat "; " (names s.Protocol.failures))
                    (String.concat "; " (names s_ref.Protocol.failures))
                    (String.concat "; " (names b.Protocol.failures))
                    (String.concat "; " (names b_ref.Protocol.failures)))
             script));
  ]

(* --- torsion on the commitment root signature ------------------------

   The IBS verifiers subgroup-check V only.  A third party's torsion on
   U (which changes h) or on V must still fail both Algorithm 1
   verifiers and stay out of the DA's root memo; the server's own
   signature with U = r·Q_ID + T is a valid signature and passes. *)

let torsion_tests =
  let open Util in
  [
    case "root signatures with torsion: third party rejected, signer accepted"
      (fun () ->
        let bs = fresh_bs "diff-torsion" in
        let execution = List.hd (Lazy.force executions) in
        let commitment = Protocol.commitment_of_execution execution in
        let t = torsion_point prm bs in
        let s = commitment.Protocol.root_signature in
        let curve = prm.Sc_pairing.Params.curve in
        let samples = [ 0, 0; 5, 0; 9, 0 ] in
        let challenge =
          {
            Protocol.sample_indices = List.map fst samples;
            warrant = Lazy.force warrant;
          }
        in
        let responses = responses execution samples in
        List.iter
          (fun (name, signature, accepted) ->
            let commitment =
              { commitment with Protocol.root_signature = signature }
            in
            let memo = Sc_ibc.Ibs.Memo.create "diff-torsion" in
            let batch_memo = Sc_ibc.Ibs.Memo.create "diff-torsion-batch" in
            let single =
              Protocol.verify ~memo pub ~verifier_key:da_key ~role:`Da ~owner
                commitment challenge responses
            in
            let batch =
              Batch.verify_jobs ~memo:batch_memo pub ~verifier_key:da_key
                ~role:`Da
                [ { Batch.owner; commitment; challenge; responses } ]
            in
            let expected =
              names (if accepted then [] else [ Protocol.Root_signature_wrong ])
            in
            check Alcotest.(list string) (name ^ ": Protocol.verify") expected
              (names single.Protocol.failures);
            check Alcotest.(list string) (name ^ ": Batch.verify_jobs") expected
              (names batch.Protocol.failures);
            List.iter
              (fun m ->
                check Alcotest.int (name ^ ": root memo entries")
                  (if accepted then 1 else 0)
                  (Sc_ibc.Ibs.Memo.size m))
              [ memo; batch_memo ])
          [
            "honest", s, true;
            "third party's U + T",
            { s with Sc_ibc.Ibs.u = Sc_ec.Curve.add curve s.Sc_ibc.Ibs.u t },
            false;
            "V + T",
            { s with Sc_ibc.Ibs.v = Sc_ec.Curve.add curve s.Sc_ibc.Ibs.v t },
            false;
            "signer-made U + T",
            torsion_signature pub cs_key ~bytes_source:bs t
              ("root:" ^ commitment.Protocol.root),
            true;
          ]);
  ]

let suite =
  storage_tests @ protocol_tests @ dynamic_tests @ memo_tests @ torsion_tests
