module Protocol = Sc_audit.Protocol
module Server_impl = Sc_storage.Server
module Telemetry = Sc_telemetry.Telemetry

module Server = struct
  type t = {
    system : System.t;
    cloud : Cloud.t;
    executions : (string * string, Sc_compute.Executor.execution) Hashtbl.t;
  }

  let create system cloud = { system; cloud; executions = Hashtbl.create 8 }

  (* Replies carry the server's own span context so the client could,
     in principle, stitch the server timeline; the client currently
     ignores it (its rpc span is already the local parent). *)
  let reply t msg =
    Envelope.wrap
      ?ctx:(Telemetry.current_context ())
      (Wire.encode (System.public t.system) msg)

  let err t detail = reply t (Wire.Ack { ok = false; detail })

  let handle_payload t ~now pub payload =
    match Wire.decode pub payload with
    | exception Wire.Decode_error detail -> err t ("decode: " ^ detail)
    | Wire.Upload upload ->
      let ok = Cloud.accept_upload t.cloud upload in
      reply t (Wire.Ack { ok; detail = (if ok then "stored" else "rejected") })
    | Wire.Storage_challenge { file; indices } ->
      let items =
        List.map
          (fun i -> i, Server_impl.read (Cloud.storage t.cloud) ~file ~index:i)
          indices
      in
      reply t (Wire.Storage_response items)
    | Wire.Compute_request { owner; file; service } ->
      (match Cloud.execute t.cloud ~owner ~file service with
      | exception Invalid_argument m -> err t m
      | execution ->
        Hashtbl.replace t.executions (owner, file) execution;
        reply t
          (Wire.Compute_commitment
             {
               results = Sc_compute.Executor.results execution;
               commitment = Protocol.commitment_of_execution execution;
             }))
    | Wire.Audit_challenge { owner; file; challenge } ->
      (match Hashtbl.find_opt t.executions (owner, file) with
      | None -> err t "no execution for this owner/file"
      | Some execution ->
        (match
           Cloud.respond_to_audit t.cloud ~now execution challenge
         with
        | None -> err t "warrant rejected"
        | Some responses -> reply t (Wire.Audit_response responses)))
    | Wire.Storage_response _ | Wire.Compute_commitment _
    | Wire.Audit_response _ | Wire.Ack _ ->
      err t "unexpected message kind"

  (* The request envelope is peeled before Wire.decode; its trace
     context (if intact) becomes the ambient parent for the
     [endpoint.handle] span, joining the server's work to the caller's
     trace.  Envelope damage is reported exactly like payload damage —
     a "decode:" Ack the client counts as request tampering. *)
  let handle t ~now data =
    let pub = System.public t.system in
    match Envelope.unwrap data with
    | exception Wire.Decode_error detail -> err t ("decode: " ^ detail)
    | ctx, payload ->
      Telemetry.with_context ctx @@ fun () ->
      Telemetry.with_span ~name:"endpoint.handle" @@ fun () ->
      handle_payload t ~now pub payload
end

module Da = struct
  type t = {
    system : System.t;
    drbg : Sc_hash.Drbg.t;
    roots : Sc_ibc.Ibs.Memo.t;  (* commitment root signatures accepted *)
    suspects : Sc_ibc.Digest_set.t;  (* servers whose last audit was all bad *)
  }

  let create system =
    {
      system;
      drbg = Sc_hash.Drbg.create ~seed:"da-endpoint";
      roots = Sc_ibc.Ibs.Memo.create "root";
      suspects = Sc_ibc.Digest_set.create ();
    }

  let audit_storage_over_wire t ~transport ~owner ~file ~indices =
    let fail channel =
      {
        Agency.sampled = List.length indices;
        valid_blocks = 0;
        invalid_indices = indices;
        intact = false;
        channel;
      }
    in
    match Transport.call transport ~expect:"storage_response"
            (Wire.Storage_challenge { file; indices })
    with
    | Error e -> fail (Some e)
    | Ok (Wire.Storage_response items) ->
      (* an index the server omitted reads as missing, hence invalid *)
      Agency.check_blocks ~suspects:t.suspects t.system
        ~server:(Transport.peer transport) ~owner
        (List.map (fun i -> i, Option.join (List.assoc_opt i items)) indices)
    | Ok _ ->
      (* The server answered (an error Ack): the channel worked, the
         audit simply failed. *)
      fail None

  let challenge_over_wire t ~transport ~owner ~file ~commitment ~warrant
      ~samples =
    let challenge =
      Protocol.make_challenge ~drbg:t.drbg
        ~n_tasks:commitment.Protocol.n_tasks ~samples ~warrant
    in
    match Transport.call transport ~expect:"audit_response"
            (Wire.Audit_challenge { owner; file; challenge })
    with
    | Error e -> challenge, Error (`Channel e)
    | Ok (Wire.Audit_response responses) -> challenge, Ok responses
    | Ok _ -> challenge, Error `Refused

  type batch_target = {
    transport : Transport.t;
    owner : string;
    file : string;
    commitment : Protocol.commitment;
    warrant : Sc_ibc.Warrant.signed;
  }

  let audit_batch_over_wire t ~targets ~samples =
    let jobs = ref [] in
    let timed_out = ref [] in
    let tampered = ref [] in
    let refused = ref 0 in
    List.iter
      (fun tg ->
        match
          challenge_over_wire t ~transport:tg.transport ~owner:tg.owner
            ~file:tg.file ~commitment:tg.commitment ~warrant:tg.warrant
            ~samples
        with
        | challenge, Ok responses ->
          jobs :=
            { Protocol.owner = tg.owner; commitment = tg.commitment; challenge;
              responses }
            :: !jobs
        | _, Error (`Channel Transport.Timeout) ->
          timed_out := Transport.peer tg.transport :: !timed_out
        | _, Error (`Channel Transport.Tampered) ->
          tampered := Transport.peer tg.transport :: !tampered
        | _, Error `Refused -> incr refused)
      targets;
    let verdict =
      Protocol.verify ~memo:t.roots ~suspects:t.suspects
        (System.public t.system) ~verifier_key:(System.da_key t.system)
        ~role:`Da (List.rev !jobs)
    in
    (* Servers that answered but refused the challenge fail the audit
       for protocol reasons, and servers that never produced a usable
       round for channel reasons, each blamed like a failed
       verification so the caller's decision logic does not change. *)
    let blames =
      List.rev_map (fun id -> Protocol.Transport_timeout id) !timed_out
      @ List.rev_map (fun id -> Protocol.Transport_tampered id) !tampered
      @ List.init !refused (fun _ -> Protocol.Warrant_invalid)
    in
    if blames = [] then verdict
    else
      { Protocol.valid = false; failures = blames @ verdict.Protocol.failures }

  let audit_computation_over_wire t ~transport ~owner ~file ~commitment
      ~warrant ~now:_ ~samples =
    audit_batch_over_wire t
      ~targets:[ { transport; owner; file; commitment; warrant } ]
      ~samples
end
