module Server = Sc_storage.Server
module Setup = Sc_ibc.Setup
module Ibs = Sc_ibc.Ibs
module Merkle = Sc_merkle.Dynamic_tree
module Telemetry = Sc_telemetry.Telemetry

let c_executions = Telemetry.counter "compute.executions"
let c_tasks = Telemetry.counter "compute.tasks"
let c_responses = Telemetry.counter "compute.responses"

type behaviour =
  | Honest
  | Guess_fraction of float * int
  | Skip_fraction of float
  | Wrong_position_fraction of float
  | Commit_garbage_fraction of float

type response = {
  task_index : int;
  request : Task.request;
  read : Server.read_result option;
  result : int;
  proof : Merkle.proof;
}

type execution = {
  service_arr : Task.request array;
  reads : Server.read_result option array;

  answers : int array; (* values returned at audit time *)
  tree : Merkle.t;
  root_signature : Ibs.t;
  cs_id : string;
  owner : string; (* whose stored file the execution read *)
}

let leaf_payload ~result ~position = Printf.sprintf "%d|%d" result position

let cheat_decision ~drbg fraction = Sc_hash.Drbg.float drbg < fraction

let run pub ~cs_key ~server ~behaviour ~drbg ~owner ~file requests =
  let service_arr = Array.of_list requests in
  let n = Array.length service_arr in
  if n = 0 then invalid_arg "Executor.run: empty service";
  Telemetry.incr c_executions;
  Telemetry.add c_tasks n;
  Telemetry.with_span ~name:"compute.execute"
    ~attrs:[ "tasks", string_of_int n ]
  @@ fun () ->
  let reads = Array.make n None in
  let committed = Array.make n 0 in
  let answers = Array.make n 0 in
  let honest_value i (req : Task.request) =
    let r = Server.read server ~file ~index:req.Task.position in
    reads.(i) <- r;
    match r with
    | None -> 0
    | Some { claimed; _ } -> Option.value ~default:0 (Task.eval req.Task.func claimed)
  in
  Array.iteri
    (fun i req ->
      match behaviour with
      | Honest ->
        let y = honest_value i req in
        committed.(i) <- y;
        answers.(i) <- y
      | Guess_fraction (f, range) ->
        if cheat_decision ~drbg f then begin
          (* No read, no computation: a guess straight into both the
             commitment and the answer. *)
          reads.(i) <- Server.read server ~file ~index:req.Task.position;
          let y = Sc_hash.Drbg.uniform_int drbg (max 1 range) in
          committed.(i) <- y;
          answers.(i) <- y
        end
        else begin
          let y = honest_value i req in
          committed.(i) <- y;
          answers.(i) <- y
        end
      | Skip_fraction f ->
        if cheat_decision ~drbg f then begin
          reads.(i) <- Server.read server ~file ~index:req.Task.position;
          committed.(i) <- 0;
          answers.(i) <- 0
        end
        else begin
          let y = honest_value i req in
          committed.(i) <- y;
          answers.(i) <- y
        end
      | Wrong_position_fraction f ->
        if cheat_decision ~drbg f then begin
          (* Use another (cheaper) position's block but claim the
             requested one, forwarding the wrong signature. *)
          let other =
            match Server.file_size server file with
            | Some size when size > 1 -> (req.Task.position + 1) mod size
            | Some _ | None -> req.Task.position
          in
          (match Server.read server ~file ~index:other with
          | None -> reads.(i) <- None
          | Some { claimed; signed } ->
            let forged =
              { claimed with Sc_storage.Block.index = req.Task.position }
            in
            reads.(i) <- Some { Server.claimed = forged; signed });
          let y =
            match reads.(i) with
            | Some { claimed; _ } ->
              Option.value ~default:0 (Task.eval req.Task.func claimed)
            | None -> 0
          in
          committed.(i) <- y;
          answers.(i) <- y
        end
        else begin
          let y = honest_value i req in
          committed.(i) <- y;
          answers.(i) <- y
        end
      | Commit_garbage_fraction f ->
        let y = honest_value i req in
        answers.(i) <- y;
        if cheat_decision ~drbg f then
          committed.(i) <- y + 1 + Sc_hash.Drbg.uniform_int drbg 1000
        else committed.(i) <- y)
    service_arr;
  let leaves =
    Array.to_list
      (Array.mapi
         (fun i req ->
           leaf_payload ~result:committed.(i) ~position:req.Task.position)
         service_arr)
  in
  let tree = Merkle.build leaves in
  let root_signature =
    Ibs.sign pub cs_key
      ~bytes_source:(Sc_hash.Drbg.bytes_source drbg)
      ("root:" ^ Merkle.root tree)
  in
  {
    service_arr;
    reads;
    answers;
    tree;
    root_signature;
    cs_id = cs_key.Setup.id;
    owner;
  }

let results e = Array.copy e.answers
let root e = Merkle.root e.tree
let root_signature e = e.root_signature
let server_id e = e.cs_id
let owner e = e.owner
let service e = Array.to_list e.service_arr

let respond e i =
  if i < 0 || i >= Array.length e.service_arr
  then invalid_arg "Executor.respond: index out of bounds";
  Telemetry.incr c_responses;
  {
    task_index = i;
    request = e.service_arr.(i);
    read = e.reads.(i);
    result = e.answers.(i);
    proof = Merkle.proof e.tree i;
  }
