type corruption = {
  storage : Sc_storage.Server.behaviour;
  compute : Sc_compute.Executor.behaviour;
}

type t = {
  drbg : Sc_hash.Drbg.t;
  bound : int;
  server_ids : string array;
  catalogue : corruption array;
  mutable current : (string * corruption) list;
  mutable epoch : int;
}

let default_catalogue =
  [
    { storage = Sc_storage.Server.Delete_fraction 0.3; compute = Sc_compute.Executor.Honest };
    { storage = Sc_storage.Server.Corrupt_fraction 0.3; compute = Sc_compute.Executor.Honest };
    { storage = Sc_storage.Server.Substitute_fraction 0.3; compute = Sc_compute.Executor.Honest };
    { storage = Sc_storage.Server.Honest; compute = Sc_compute.Executor.Guess_fraction (0.4, 1000) };
    { storage = Sc_storage.Server.Honest; compute = Sc_compute.Executor.Skip_fraction 0.4 };
    { storage = Sc_storage.Server.Honest; compute = Sc_compute.Executor.Wrong_position_fraction 0.4 };
    { storage = Sc_storage.Server.Honest; compute = Sc_compute.Executor.Commit_garbage_fraction 0.4 };
    {
      storage = Sc_storage.Server.Corrupt_fraction 0.2;
      compute = Sc_compute.Executor.Guess_fraction (0.2, 1000);
    };
  ]

let create ~drbg ~bound ~server_ids ?(catalogue = default_catalogue) () =
  let n = List.length server_ids in
  if bound > n then invalid_arg "Adversary.create: bound exceeds server count";
  if catalogue = [] then invalid_arg "Adversary.create: empty catalogue";
  {
    drbg;
    bound;
    server_ids = Array.of_list server_ids;
    catalogue = Array.of_list catalogue;
    current = [];
    epoch = 0;
  }

let new_epoch t =
  t.epoch <- t.epoch + 1;
  (* Fisher–Yates prefix: this epoch's k victims, where k ≤ bound is
     itself random (the adversary may not use its full budget). *)
  let k = if t.bound = 0 then 0 else Sc_hash.Drbg.uniform_int t.drbg (t.bound + 1) in
  let victims =
    Sc_hash.Drbg.sample_prefix t.drbg ~n:(Array.length t.server_ids) ~k
  in
  t.current <-
    List.map
      (fun i ->
        let c =
          t.catalogue.(Sc_hash.Drbg.uniform_int t.drbg (Array.length t.catalogue))
        in
        t.server_ids.(i), c)
      (Array.to_list victims)

let corruption_of t id = List.assoc_opt id t.current
let corrupted t = List.map fst t.current
let epoch t = t.epoch
