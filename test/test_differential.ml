(* Batch-then-blame against per-sample references.

   Storage audits ([Agency.check_blocks]), Algorithm 1
   ([Protocol.verify], over one job or several) and [Dynamic.audit]
   check their sampled designated signatures with one
   [Agg.verify_each].
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
          { signed with Signer.u = Reference.add prm.fp signed.Signer.u prm.g };
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
           let r = Seccloud.Agency.check_blocks system ~server:"cs-1" ~owner reads in
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
          ignore (Seccloud.Agency.check_blocks system ~server:"cs-1" ~owner reads);
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

(* A job over execution [e], its challenged samples perturbed. *)
let protocol_job (e, samples) =
  let execution = List.nth (Lazy.force executions) e in
  (* Duplicate indices would be answered twice; a challenge never
     holds them. *)
  let samples = List.sort_uniq (fun (a, _) (b, _) -> compare a b) samples in
  {
    Protocol.owner;
    commitment = Protocol.commitment_of_execution execution;
    challenge =
      {
        Protocol.sample_indices = List.map fst samples;
        warrant = Lazy.force warrant;
      };
    responses = responses execution samples;
  }

let protocol_tests =
  let gen_job =
    QCheck2.Gen.(
      pair (int_bound 3)
        (list_size (int_range 1 8)
           (pair (int_bound (n_tasks - 1))
              (int_bound (Array.length perturbations - 1)))))
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:30
         ~print:QCheck2.Print.(list (pair int print_samples))
         ~name:"k jobs verify as their one-job verdicts"
         QCheck2.Gen.(list_size (int_range 1 3) gen_job)
         (fun spec ->
           let jobs = List.map protocol_job spec in
           let verify jobs =
             Protocol.verify pub ~verifier_key:da_key ~role:`Da jobs
           in
           let checked () =
             Sc_telemetry.Telemetry.counter_value "audit.samples_checked"
           in
           let c0 = checked () in
           let batch = verify jobs in
           (* Each answered sample of every job counts once. *)
           let counted = checked () - c0 in
           let singles =
             List.concat_map (fun job -> (verify [ job ]).Protocol.failures) jobs
           in
           let expected = Reference.protocol_verify pub ~verifier_key:da_key jobs in
           let answered =
             List.fold_left
               (fun n (job : Protocol.job) -> n + List.length job.responses)
               0 jobs
           in
           batch.Protocol.failures = expected
           && batch.Protocol.valid = (expected = [])
           && singles = expected && counted = answered
           || QCheck2.Test.fail_reportf
                "verify [%s]; one job at a time [%s]; reference [%s]; counted \
                 %d of %d"
                (String.concat "; " (names batch.Protocol.failures))
                (String.concat "; " (names singles))
                (String.concat "; " (names expected))
                counted answered));
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
               let job = { Protocol.owner; commitment; challenge; responses } in
               let jobs = job :: !previous in
               previous := [ job ];
               let single ?memo () =
                 Protocol.verify ?memo pub ~verifier_key:da_key ~role:`Da [ job ]
               in
               let batch ?memo () =
                 Protocol.verify ?memo pub ~verifier_key:da_key ~role:`Da jobs
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
   U (which changes h) or on V must still fail Algorithm 1, whether its
   root is checked alone ({!Sc_ibc.Ibs.verify}'s check) or beside
   another job's ({!Sc_ibc.Ibs.verify_batch}), and stay out of the
   DA's root memo; the server's own signature with U = r·Q_ID + T is a
   valid signature and passes. *)

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
        let fp = prm.Sc_pairing.Params.fp in
        let samples = [ 0, 0; 5, 0; 9, 0 ] in
        let challenge =
          {
            Protocol.sample_indices = List.map fst samples;
            warrant = Lazy.force warrant;
          }
        in
        let responses = responses execution samples in
        (* An honest job with no samples: its root shares the batch. *)
        let beside =
          {
            Protocol.owner;
            commitment =
              Protocol.commitment_of_execution
                (List.nth (Lazy.force executions) 1);
            challenge = { challenge with Protocol.sample_indices = [] };
            responses = [];
          }
        in
        List.iter
          (fun (name, signature, accepted) ->
            let job =
              {
                Protocol.owner;
                commitment =
                  { commitment with Protocol.root_signature = signature };
                challenge;
                responses;
              }
            in
            let expected =
              names (if accepted then [] else [ Protocol.Root_signature_wrong ])
            in
            List.iter
              (fun (how, jobs, honest_roots) ->
                let memo = Sc_ibc.Ibs.Memo.create "diff-torsion" in
                let v =
                  Protocol.verify ~memo pub ~verifier_key:da_key ~role:`Da jobs
                in
                check Alcotest.(list string) (name ^ ": " ^ how) expected
                  (names v.Protocol.failures);
                check Alcotest.int (name ^ ": " ^ how ^ ": root memo entries")
                  (honest_roots + if accepted then 1 else 0)
                  (Sc_ibc.Ibs.Memo.size memo))
              [ "alone", [ job ], 0; "beside another job", [ beside; job ], 1 ])
          [
            "honest", s, true;
            "third party's U + T",
            { s with Sc_ibc.Ibs.u = Reference.add fp s.Sc_ibc.Ibs.u t },
            false;
            "V + T",
            { s with Sc_ibc.Ibs.v = Reference.add fp s.Sc_ibc.Ibs.v t },
            false;
            "signer-made U + T",
            torsion_signature pub cs_key ~bytes_source:bs t
              ("root:" ^ commitment.Protocol.root),
            true;
          ]);
  ]

(* --- the DA's suspect set -----------------------------------------------

   A DA that keeps one suspect set across a script of storage, compute
   and §VI batch audits over several servers must answer every step as
   a fresh DA without one, and as the per-entry reference.  The set
   must hold exactly the servers whose last audit with a checked entry
   had no good one (a model set kept here), and the entries it checks
   one by one must be exactly those of the servers in it.  A job whose
   root signature fails names no server, so it leaves the set as it
   was. *)

module Agg = Sc_ibc.Agg

let suspect_ids = [| "cs-1"; "cs-2"; "cs-3" |]

type script_job = { server : int; exec : int; job_samples : (int * int) list }

type audit_step =
  | Storage_audit of int * (int * int) list
  | Compute_audit of script_job list

(* Mostly honest samples, so servers leave the set as well as enter. *)
let gen_kind =
  QCheck2.Gen.(
    frequency [ 3, return 0; 1, int_bound (Array.length perturbations - 1) ])

let gen_audit_step =
  let open QCheck2.Gen in
  let server = int_bound (Array.length suspect_ids - 1) in
  let samples bound =
    list_size (int_range 1 4) (pair (int_bound (bound - 1)) gen_kind)
  in
  let job =
    map3
      (fun server exec job_samples -> { server; exec; job_samples })
      server (int_bound 3) (samples n_tasks)
  in
  oneof
    [
      map2 (fun s samples -> Storage_audit (s, samples)) server (samples n_blocks);
      map (fun j -> Compute_audit [ j ]) job;
      map (fun js -> Compute_audit js) (list_size (int_range 1 3) job);
    ]

let print_audit_step =
  let job j =
    Printf.sprintf "{cs-%d exec %d %s}" (j.server + 1) j.exec
      (print_samples j.job_samples)
  in
  function
  | Storage_audit (s, samples) ->
    Printf.sprintf "storage cs-%d %s" (s + 1) (print_samples samples)
  | Compute_audit js ->
    "compute [" ^ String.concat "; " (List.map job js) ^ "]"

(* The commitment of [exec] as served by [server]: a server other than
   cs-1 presents cs-1's root signature under its own id, which fails,
   so its compute and batch jobs must leave the suspect set as it
   was. *)
let script_job j =
  let execution = List.nth (Lazy.force executions) j.exec in
  let samples = List.sort_uniq (fun (a, _) (b, _) -> compare a b) j.job_samples in
  {
    Protocol.owner;
    commitment =
      {
        (Protocol.commitment_of_execution execution) with
        Protocol.cs_id = suspect_ids.(j.server);
      };
    challenge =
      {
        Protocol.sample_indices = List.map fst samples;
        warrant = Lazy.force warrant;
      };
    responses = responses execution samples;
  }

(* The designated signatures a step checks, each with its server when
   the job's root signature authenticates one. *)
let job_entries (job : Protocol.job) =
  let server =
    if Reference.root_failures pub job.commitment = [] then
      Some job.commitment.Protocol.cs_id
    else None
  in
  List.filter_map
    (fun i ->
      match Reference.response_at job.responses i with
      | Some { Executor.read = Some { Server.claimed; signed }; _ } ->
        Some (server, Signer.agg_entry `Da ~owner:job.owner claimed signed)
      | Some _ | None -> None)
    job.challenge.Protocol.sample_indices

let storage_entries server reads =
  List.filter_map
    (fun (i, read) ->
      match read with
      | Some { Server.claimed; signed } when claimed.Block.index = i ->
        Some (Some server, Signer.agg_entry `Da ~owner claimed signed)
      | Some _ | None -> None)
    reads

(* Runs [step] with and without [suspects] and against the reference:
   the three answers as strings, and the entries checked. *)
let run_audit_step ~suspects step =
  let ints = List.map string_of_int in
  match step with
  | Storage_audit (s, samples) ->
    let reads = storage_reads samples and server = suspect_ids.(s) in
    let invalid ?suspects () =
      (Seccloud.Agency.check_blocks ?suspects system ~server ~owner reads)
        .Seccloud.Agency.invalid_indices
    in
    ( ints (invalid ~suspects ()),
      ints (invalid ()),
      ints (Reference.storage_invalid pub ~verifier_key:da_key ~owner reads),
      storage_entries server reads )
  | Compute_audit js ->
    let jobs = List.map script_job js in
    let verify ?suspects () =
      (Protocol.verify ?suspects pub ~verifier_key:da_key ~role:`Da jobs)
        .Protocol.failures
    in
    ( names (verify ~suspects ()),
      names (verify ()),
      names (Reference.protocol_verify pub ~verifier_key:da_key jobs),
      List.concat_map job_entries jobs )

let suspect_tests =
  let open Util in
  let suspect_sigs () =
    Sc_telemetry.Telemetry.counter_value "agg.verify_each.suspect_sigs"
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:25
         ~print:QCheck2.Print.(list print_audit_step)
         ~name:"a DA with a suspect set answers as a fresh DA and the reference"
         QCheck2.Gen.(list_size (int_range 2 10) gen_audit_step)
         (fun script ->
           let suspects = Sc_ibc.Digest_set.create () in
           let model = Hashtbl.create 4 in
           List.for_all
             (fun step ->
               let s0 = suspect_sigs () in
               let kept, fresh, reference, entries =
                 run_audit_step ~suspects step
               in
               let singles = suspect_sigs () - s0 in
               let expected_singles =
                 List.length
                   (List.filter
                      (fun (server, _) ->
                        Option.fold ~none:false ~some:(Hashtbl.mem model)
                          server)
                      entries)
               in
               List.iter
                 (fun (named, _) ->
                   Option.iter
                     (fun server ->
                       if
                         List.exists
                           (fun (s, (e : Agg.entry)) ->
                             s = named
                             && Reference.dvs_ok pub ~verifier_key:da_key
                                  ~signer:e.signer ~msg:e.msg e.dvs)
                           entries
                       then Hashtbl.remove model server
                       else Hashtbl.replace model server ())
                     named)
                 entries;
               let members =
                 List.filter
                   (fun id ->
                     Sc_ibc.Digest_set.mem suspects (Sc_ibc.Digest_set.key id))
                   (Array.to_list suspect_ids)
               and expected_members =
                 List.filter (Hashtbl.mem model) (Array.to_list suspect_ids)
               in
               (kept = fresh && kept = reference
               && singles = expected_singles
               && members = expected_members)
               || QCheck2.Test.fail_reportf
                    "%s: kept [%s], fresh [%s], reference [%s]; %d entries \
                     checked one by one, expected %d; suspects [%s], \
                     expected [%s]"
                    (print_audit_step step) (String.concat "; " kept)
                    (String.concat "; " fresh)
                    (String.concat "; " reference)
                    singles expected_singles
                    (String.concat "; " members)
                    (String.concat "; " expected_members))
             script));
    case "more caught server ids than the capacity keep the set in bound"
      (fun () ->
        let suspects = Sc_ibc.Digest_set.create () in
        let reads = storage_reads [ 3, 1 ] in
        for i = 1 to Sc_ibc.Digest_set.capacity + 44 do
          let r =
            Seccloud.Agency.check_blocks ~suspects system
              ~server:(Printf.sprintf "caught-%d" i) ~owner reads
          in
          check Alcotest.(list int) "answer" [ 3 ] r.Seccloud.Agency.invalid_indices;
          check Alcotest.bool "within capacity" true
            (Sc_ibc.Digest_set.size suspects <= Sc_ibc.Digest_set.capacity)
        done;
        check Alcotest.int "started over when full" 44
          (Sc_ibc.Digest_set.size suspects));
  ]

let suite =
  storage_tests @ protocol_tests @ dynamic_tests @ memo_tests @ torsion_tests
  @ suspect_tests
