module Executor = Sc_compute.Executor

type proof = {
  commitment : Protocol.commitment;
  epoch : int;
  responses : Executor.response list;
}

let derive_indices ~root ~epoch ~owner ~n_tasks ~samples =
  let samples = min samples n_tasks in
  (* Counter-mode expansion of the transcript seed into a stream of
     candidate indices; duplicates are skipped so the sample is a
     uniform-ish draw without replacement. *)
  (* Canonical framing with distinct domain tags: the old ":"-joined
     transcript let (root, epoch, owner) tuples collide across part
     boundaries, and the counter blocks could alias the seed
     derivation itself. *)
  let seed =
    Sc_hash.Encode.digest [ "ni-audit"; root; string_of_int epoch; owner ]
  in
  let chosen = Hashtbl.create samples in
  let out = ref [] in
  let counter = ref 0 in
  while Hashtbl.length chosen < samples do
    let block =
      Sc_hash.Encode.digest [ "ni-audit-block"; seed; string_of_int !counter ]
    in
    incr counter;
    (* 8 four-byte candidates per digest *)
    let i = ref 0 in
    while !i < 8 && Hashtbl.length chosen < samples do
      let off = 4 * !i in
      let v =
        (Char.code block.[off] lsl 24)
        lor (Char.code block.[off + 1] lsl 16)
        lor (Char.code block.[off + 2] lsl 8)
        lor Char.code block.[off + 3]
      in
      let idx = v mod n_tasks in
      if not (Hashtbl.mem chosen idx) then begin
        Hashtbl.add chosen idx ();
        out := idx :: !out
      end;
      incr i
    done
  done;
  List.rev !out

let prove _pub ~owner ~epoch ~samples execution =
  let commitment = Protocol.commitment_of_execution execution in
  let indices =
    derive_indices ~root:commitment.Protocol.root ~epoch ~owner
      ~n_tasks:commitment.Protocol.n_tasks ~samples
  in
  { commitment; epoch; responses = List.map (Executor.respond execution) indices }

let verify pub ~verifier_key ~role ~owner ~expected_epoch ~samples proof =
  if proof.epoch <> expected_epoch then
    { Protocol.valid = false; failures = [ Protocol.Warrant_invalid ] }
  else begin
    let indices =
      derive_indices ~root:proof.commitment.Protocol.root ~epoch:proof.epoch
        ~owner ~n_tasks:proof.commitment.Protocol.n_tasks ~samples
    in
    let provided =
      List.map (fun (r : Executor.response) -> r.Executor.task_index) proof.responses
    in
    if List.sort compare provided <> List.sort compare indices then
      {
        Protocol.valid = false;
        failures = List.map (fun i -> Protocol.Missing_response i) indices;
      }
    else
      let root_failures =
        if Protocol.root_signature_ok pub proof.commitment then []
        else [ Protocol.Root_signature_wrong ]
      in
      let q_id = Sc_ibc.Setup.q_of_id pub owner in
      let failures =
        root_failures
        @ List.concat_map
            (Protocol.check_sample pub ~verifier_key ~role ~q_id
               ~commitment:proof.commitment)
            proof.responses
      in
      { Protocol.valid = failures = []; failures }
  end
