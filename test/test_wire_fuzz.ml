(* Property fuzzing of the wire codec: round trips over a generator
   covering every message constructor, and robustness of decode
   against truncation and bit flips — a mangled encoding must yield a
   clean [Wire.Decode_error], never an uncaught exception, however the
   bytes were cut or flipped. *)

module Wire = Seccloud.Wire
module Task = Sc_compute.Task
module Protocol = Sc_audit.Protocol
module Executor = Sc_compute.Executor
module Merkle = Sc_merkle.Dynamic_tree
module Gen = QCheck2.Gen

let system = Lazy.force Util.shared_system
let pub = Seccloud.System.public system

(* Crypto fixtures are expensive, so the generator recombines a fixed
   pool of signed material with freely generated cheap fields; every
   constructor is still exercised with several shapes. *)
let alice = Seccloud.User.create system ~id:"alice"

let upload =
  Seccloud.User.sign_file alice ~cs_id:"cs-1" ~file:"fz"
    (List.init 4 (fun i -> Sc_storage.Block.encode_ints [ i; i * 3; 7 - i ]))

let cloud = Seccloud.Cloud.create system ~id:"cs-1" ()
let () = Seccloud.Cloud.accept_upload_unchecked cloud upload

let service =
  [
    { Task.func = Task.Sum; position = 0 };
    { Task.func = Task.Dot [ 2; -1 ]; position = 1 };
    { Task.func = Task.Compose (Task.Max, [ Task.Sum; Task.Count ]); position = 2 };
  ]

let execution = Seccloud.Cloud.execute cloud ~owner:"alice" ~file:"fz" service
let commitment = Protocol.commitment_of_execution execution

let warrant =
  Seccloud.User.delegate_audit alice ~now:0.0 ~lifetime:1e9 ~scope:"fuzz"

let challenge =
  Protocol.make_challenge
    ~drbg:(Sc_hash.Drbg.create ~seed:"fuzz-challenge")
    ~n_tasks:3 ~samples:2 ~warrant

let responses =
  Option.get (Protocol.respond pub ~now:1.0 execution challenge)

let read_results =
  List.map
    (fun i ->
      i, Sc_storage.Server.read (Seccloud.Cloud.storage cloud) ~file:"fz" ~index:i)
    [ 0; 1; 2; 3; 99 ]

let gen_string = Gen.(string_size ~gen:printable (int_bound 12))
let gen_indices = Gen.(list_size (int_bound 6) (int_bound 40))

let gen_task =
  Gen.oneof
    [
      Gen.return Task.Sum;
      Gen.return Task.Count;
      Gen.return Task.Max;
      Gen.map (fun ws -> Task.Dot ws) Gen.(list_size (int_bound 4) (int_range (-9) 9));
      Gen.map (fun cs -> Task.Polynomial cs) Gen.(list_size (int_bound 3) (int_range (-5) 5));
      Gen.return (Task.Compose (Task.Sum, [ Task.Max; Task.Count ]));
    ]

let gen_service =
  Gen.(
    list_size (int_range 1 4)
      (map2 (fun f p -> { Task.func = f; position = p }) gen_task (int_bound 15)))

let gen_read_items =
  (* Sublists of the fixed read-result pool, missing entries included. *)
  Gen.map
    (fun mask ->
      List.filteri (fun i _ -> (mask lsr i) land 1 = 1) read_results)
    Gen.(int_bound 31)

let gen_msg =
  Gen.oneof
    [
      Gen.return (Wire.Upload upload);
      Gen.map2
        (fun file indices -> Wire.Storage_challenge { file; indices })
        gen_string gen_indices;
      Gen.map (fun items -> Wire.Storage_response items) gen_read_items;
      Gen.map3
        (fun owner file service -> Wire.Compute_request { owner; file; service })
        gen_string gen_string gen_service;
      Gen.map
        (fun results ->
          Wire.Compute_commitment
            { results = Array.of_list results; commitment })
        Gen.(list_size (int_bound 5) (int_range (-1000) 1000));
      Gen.map2
        (fun owner file -> Wire.Audit_challenge { owner; file; challenge })
        gen_string gen_string;
      Gen.map
        (fun mask ->
          Wire.Audit_response
            (List.filteri (fun i _ -> (mask lsr i) land 1 = 1) responses))
        Gen.(int_bound 3);
      Gen.map2 (fun ok detail -> Wire.Ack { ok; detail }) Gen.bool gen_string;
    ]

let kind_coverage =
  (* The generator above must be able to produce every constructor. *)
  Util.case "one-of-each-kind deterministic round trip" (fun () ->
      let all =
        [
          Wire.Upload upload;
          Wire.Storage_challenge { file = "fz"; indices = [ 0; 3 ] };
          Wire.Storage_response read_results;
          Wire.Compute_request { owner = "alice"; file = "fz"; service };
          Wire.Compute_commitment { results = [| 1; -2 |]; commitment };
          Wire.Audit_challenge { owner = "alice"; file = "fz"; challenge };
          Wire.Audit_response responses;
          Wire.Ack { ok = false; detail = "nope" };
        ]
      in
      Util.check
        Alcotest.(list string)
        "all kinds" Wire.kinds
        (List.map Wire.kind_name all);
      List.iter
        (fun m ->
          if Wire.decode pub (Wire.encode pub m) <> m then
            Alcotest.failf "round trip changed a %s" (Wire.kind_name m))
        all)

(* A proof's claimed (index, total) and its hash count are checked
   before the decoder sizes anything by them: each doctored proof must
   fail typed. *)
let malformed_proofs =
  let rejects name doctor =
    Util.case ("audit response rejects " ^ name) (fun () ->
        let r = List.hd responses in
        let m =
          Wire.Audit_response
            [ { r with Executor.proof = doctor r.Executor.proof } ]
        in
        match Wire.decode pub (Wire.encode pub m) with
        | _ -> Alcotest.fail "doctored proof decoded"
        | exception Wire.Decode_error _ -> ())
  in
  [
    rejects "a proof over zero leaves" (fun p ->
        { p with Merkle.index = 0; total = 0 });
    rejects "an index at the total" (fun p ->
        { p with Merkle.index = p.Merkle.total });
    rejects "one hash too many" (fun p ->
        { p with Merkle.path = p.Merkle.path @ [ String.make 32 'x' ] });
    rejects "one hash too few" (fun p ->
        { p with Merkle.path = List.tl p.Merkle.path });
  ]

(* Trace-context envelope fixtures: the unsigned envelope in front of
   every wire message.  A corrupted context must be dropped without
   ever touching payload verification, and framing damage (bad flag,
   cut context) must fail typed. *)

module Envelope = Seccloud.Envelope
module Trace_context = Sc_telemetry.Trace_context

let gen_ctx =
  (* Distinct deterministic contexts: fresh_trace is an atomic
     sequence, span ids are small ints. *)
  Gen.map
    (fun span -> { Trace_context.trace = Trace_context.fresh_trace (); span })
    Gen.(int_bound 10_000)

let suite =
  [
    kind_coverage;
    Util.qcheck ~count:150 "decode inverts encode for every message kind"
      gen_msg
      (fun m -> Wire.decode pub (Wire.encode pub m) = m);
    Util.qcheck ~count:150 "re-encoding a decoded message is byte-identical"
      gen_msg
      (fun m ->
        let bytes = Wire.encode pub m in
        Wire.encode pub (Wire.decode pub bytes) = bytes);
    Util.qcheck ~count:200 "truncation always raises a clean Decode_error"
      Gen.(pair gen_msg (int_bound 1_000_000))
      (fun (m, cut) ->
        let bytes = Wire.encode pub m in
        let cut = cut mod String.length bytes in
        match Wire.decode pub (String.sub bytes 0 cut) with
        | _ -> false (* a strict prefix must never parse *)
        | exception Wire.Decode_error _ -> true
        | exception _ -> false);
    Util.qcheck ~count:200 "bit flips decode fully or fail typed, never raise"
      Gen.(triple gen_msg (int_bound 1_000_000) (int_bound 7))
      (fun (m, pos, bit) ->
        let bytes = Wire.encode pub m in
        let pos = pos mod String.length bytes in
        let flipped =
          String.mapi
            (fun i c ->
              if i = pos then Char.chr (Char.code c lxor (1 lsl bit)) else c)
            bytes
        in
        match Wire.decode pub flipped with
        | _ -> true (* the flip may land in free-form content *)
        | exception Wire.Decode_error _ -> true
        | exception _ -> false);
    Util.qcheck ~count:150 "envelope round-trips context and payload"
      Gen.(pair gen_msg (option gen_ctx))
      (fun (m, ctx) ->
        let payload = Wire.encode pub m in
        let ctx', payload' = Envelope.unwrap (Envelope.wrap ?ctx payload) in
        ctx' = ctx && payload' = payload);
    Util.qcheck ~count:200
      "bit flip in the context region drops the context, payload untouched"
      Gen.(triple gen_msg gen_ctx (pair (int_bound 1_000_000) (int_bound 7)))
      (fun (m, ctx, (pos, bit)) ->
        let payload = Wire.encode pub m in
        let framed = Envelope.wrap ~ctx payload in
        (* Offsets 1 .. header_bytes-1: the context bytes + checksum.
           A single-bit flip always breaks the XOR-fold, so the context
           must come back [None] while the payload decodes as before. *)
        let pos = 1 + (pos mod (Envelope.header_bytes - 1)) in
        let flipped =
          String.mapi
            (fun i c ->
              if i = pos then Char.chr (Char.code c lxor (1 lsl bit)) else c)
            framed
        in
        let ctx', payload' = Envelope.unwrap flipped in
        ctx' = None && payload' = payload && Wire.decode pub payload' = m);
    Util.qcheck ~count:200 "truncated context fails typed, never raises raw"
      Gen.(pair gen_ctx (int_bound 1_000_000))
      (fun (ctx, cut) ->
        let framed = Envelope.wrap ~ctx "" in
        let cut = cut mod Envelope.header_bytes in
        match Envelope.unwrap (String.sub framed 0 cut) with
        | _ -> false (* a cut envelope header must never parse *)
        | exception Wire.Decode_error _ -> true
        | exception _ -> false);
    Util.qcheck ~count:100 "unknown flag byte fails typed"
      Gen.(pair gen_msg (int_range 2 255))
      (fun (m, flag) ->
        let payload = Wire.encode pub m in
        let framed = String.make 1 (Char.chr flag) ^ payload in
        match Envelope.unwrap framed with
        | _ -> false
        | exception Wire.Decode_error _ -> true
        | exception _ -> false);
  ]
  @ malformed_proofs
