(* audit — the verify path.  Setup stores owners' files on four servers
   and obtains one computation commitment per file; one server cheats
   on both storage (every read corrupted) and computation (garbage
   commitments).  The timed mix: 45% storage audits (t = 8, uniform
   positions), 40% computation audits (a 16-task [Compute_request],
   then Algorithm 1 with t = 8), 15% §VI batch audits over four files'
   latest commitments.  The mix is dealt from a deck of 20 (9 storage,
   8 computation, 3 batch audits) reshuffled from the seed whenever it
   runs out, so every run has the same shares: a batch audit costs
   about five times a computation audit, and drawing each operation
   independently moved throughput by several percent between seeds.
   Every verdict is checked against ground truth.  Closed loop, one
   client. *)

open Seccloud
module Protocol = Sc_audit.Protocol

type file = {
  owner : User.t;
  warrant : Sc_ibc.Warrant.signed;
  name : string;
  srv : int;
  mutable commitment : Protocol.commitment option;
}

let servers = 4
let samples = 8
let tasks = 16

let setup (ctx : Wl.ctx) ~seed =
  let owners, per_owner, blocks = if ctx.tiny then 2, 2, 8 else 8, 2, 32 in
  let seed = "perfbench/audit/" ^ seed in
  let rs = Wl.rng ~seed "audit" in
  let drbg = Sc_hash.Drbg.create ~seed:("tasks/" ^ seed) in
  let cs_ids = List.init servers (Printf.sprintf "cs-%d") in
  let system = System.create ~seed ~cs_ids ~da_id:"da" () in
  let cheater = Random.State.int rs servers in
  (* Ground truth as the checks see it; the smoke test mislabels it. *)
  let labelled = if ctx.mislabel then (cheater + 1) mod servers else cheater in
  let transports =
    Array.init servers (fun i ->
        let id = Printf.sprintf "cs-%d" i in
        let cloud =
          if i = cheater then
            Cloud.create system ~id
              ~storage:(Sc_storage.Server.Corrupt_fraction 1.0)
              ~compute:(Sc_compute.Executor.Commit_garbage_fraction 1.0) ()
          else Cloud.create system ~id ()
        in
        let server = Endpoint.Server.create system cloud in
        Transport.create ~peer:id ~public:(System.public system)
          ~handler:(Probe.wrap_handler (Endpoint.Server.handle server))
          ())
  in
  let da = Endpoint.Da.create system in
  let users =
    Array.init owners (fun i -> User.create system ~id:(Printf.sprintf "owner-%d" i))
  in
  let warrants =
    Array.map
      (fun u -> User.delegate_audit u ~now:0.0 ~lifetime:1e9 ~scope:"perfbench")
      users
  in
  let files =
    Array.init (owners * per_owner) (fun k ->
        let o = k / per_owner in
        {
          owner = users.(o);
          warrant = warrants.(o);
          name = Printf.sprintf "file-%d" k;
          srv = k mod servers;
          commitment = None;
        })
  in
  let storage = Probe.cls "storage_audit"
  and compute = Probe.cls "compute_audit"
  and batch = Probe.cls "batch_audit" in
  let request_commitment f =
    let service = Sc_compute.Task.random_service ~drbg ~n_positions:blocks ~n_tasks:tasks in
    match
      Transport.call transports.(f.srv) ~expect:"compute_commitment"
        (Wire.Compute_request { owner = User.id f.owner; file = f.name; service })
    with
    | Ok (Wire.Compute_commitment { commitment; _ }) ->
      f.commitment <- Some commitment;
      true
    | Ok _ | Error _ -> false
  in
  Array.iter
    (fun f ->
      let payloads = List.init blocks (fun _ -> Wl.ints rs 8) in
      (match
         User.store_over f.owner ~transport:transports.(f.srv)
           ~cs_id:(Printf.sprintf "cs-%d" f.srv) ~file:f.name payloads
       with
      | Ok ok -> Wl.judge ctx ok ("setup upload rejected: " ^ f.name)
      | Error _ -> Wl.fail ctx ("setup upload lost: " ^ f.name));
      if not (request_commitment f) then
        Wl.fail ctx ("setup compute request failed: " ^ f.name))
    files;
  let no_channel_blame v =
    not (List.exists Protocol.is_transport_failure v.Protocol.failures)
  in
  let pick () = files.(Random.State.int rs (Array.length files)) in
  let storage_audit () =
    let f = pick () in
    let indices =
      let a = Array.init blocks Fun.id in
      for i = 0 to samples - 1 do
        let j = i + Random.State.int rs (blocks - i) in
        let v = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- v
      done;
      Array.to_list (Array.sub a 0 samples)
    in
    let r =
      Probe.timed storage (fun () ->
          Probe.da storage "audit_storage" (fun () ->
              Endpoint.Da.audit_storage_over_wire da ~transport:transports.(f.srv)
                ~owner:(User.id f.owner) ~file:f.name ~indices))
    in
    let ok =
      r.Agency.channel = None
      &&
      if f.srv = labelled then
        (not r.Agency.intact) && List.length r.Agency.invalid_indices = samples
      else r.Agency.intact
    in
    Wl.judge ctx ok (Printf.sprintf "storage verdict on cs-%d (intact=%b)" f.srv r.Agency.intact)
  in
  let audit_job f =
    match f.commitment with
    | None -> assert false
    | Some commitment ->
      Endpoint.Da.audit_computation_over_wire da ~transport:transports.(f.srv)
        ~owner:(User.id f.owner) ~file:f.name ~commitment
        ~warrant:f.warrant ~now:0.0 ~samples
  in
  let compute_audit () =
    let f = pick () in
    match
      Probe.timed compute (fun () ->
          if request_commitment f then
            Some (Probe.da compute "audit_computation" (fun () -> audit_job f))
          else None)
    with
    | None -> Wl.fail ctx ("compute request failed: " ^ f.name)
    | Some v ->
      let ok = no_channel_blame v && v.Protocol.valid = (f.srv <> labelled) in
      Wl.judge ctx ok
        (Printf.sprintf "computation verdict on cs-%d (valid=%b)" f.srv v.Protocol.valid)
  in
  let batch_audit () =
    let rec distinct acc =
      if List.length acc = 4 then acc
      else
        let f = pick () in
        if List.memq f acc then distinct acc else distinct (f :: acc)
    in
    let chosen = distinct [] in
    let targets =
      List.map
        (fun f ->
          {
            Endpoint.Da.transport = transports.(f.srv);
            owner = User.id f.owner;
            file = f.name;
            commitment = Option.get f.commitment;
            warrant = f.warrant;
          })
        chosen
    in
    let v =
      Probe.timed batch (fun () ->
          Probe.da batch "audit_batch" (fun () ->
              Endpoint.Da.audit_batch_over_wire da ~targets ~samples))
    in
    let has_cheater = List.exists (fun f -> f.srv = labelled) chosen in
    Wl.judge ctx
      (no_channel_blame v && v.Protocol.valid = not has_cheater)
      (Printf.sprintf "batch verdict (valid=%b, cheater in batch=%b)" v.Protocol.valid
         has_cheater)
  in
  let deck =
    Array.concat
      [ Array.make 9 storage_audit; Array.make 8 compute_audit; Array.make 3 batch_audit ]
  in
  let dealt = ref (Array.length deck) in
  let step () =
    if !dealt = Array.length deck then begin
      for i = Array.length deck - 1 downto 1 do
        let j = Random.State.int rs (i + 1) in
        let v = deck.(i) in
        deck.(i) <- deck.(j);
        deck.(j) <- v
      done;
      dealt := 0
    end;
    incr dealt;
    deck.(!dealt - 1) ()
  in
  let instance =
    Wl.simple_instance ~classes:[ storage; compute; batch ] ~step ~finish:ignore
  in
  { instance with info = (fun () -> [ "cheater", Printf.sprintf "cs-%d" cheater ]) }

let workload = { Wl.name = "audit"; domains = 1; open_loop = false; setups = 5; setup }
