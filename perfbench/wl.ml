(* The workload interface and the per-run correctness ledger. *)

type ctx = {
  tiny : bool;  (* smoke-test sizes *)
  mislabel : bool;
      (* smoke test of the checks: ground truth names an honest server
         as the cheater, so every verdict about it must disagree *)
  mutable attempted : int;
  mutable failed : int;  (* failed, refused or [Overloaded] operations *)
  mutable wrong : string list;  (* correctness mismatches, newest first *)
}

let create_ctx ~tiny ~mislabel = { tiny; mislabel; attempted = 0; failed = 0; wrong = [] }

let mismatch ctx what = ctx.wrong <- what :: ctx.wrong

(* One operation whose outcome the benchmark can judge: counted as
   attempted, and a wrong outcome is a correctness failure. *)
let judge ctx ok what =
  ctx.attempted <- ctx.attempted + 1;
  if not ok then mismatch ctx what

(* An operation the system refused or lost: failed, and — since no
   workload here is sized to fail — also a mismatch unless it is
   backpressure. *)
let fail ctx ?(backpressure = false) what =
  ctx.attempted <- ctx.attempted + 1;
  ctx.failed <- ctx.failed + 1;
  if not backpressure then mismatch ctx what

type instance = {
  classes : Probe.cls list;
      (* [main; side; ...]: the gated latency classes come first *)
  start_phase : unit -> unit;  (* called when a measured phase begins *)
  step : unit -> unit;  (* one closed-loop operation, or one tick *)
  finish : unit -> unit;  (* untimed end-of-run correctness checks *)
  layer : unit -> (string * float) list;
      (* workload-specific per-layer values over the traced phase *)
  info : unit -> (string * string) list;  (* recorded with the result *)
}

type t = {
  name : string;
  domains : int;  (* SECCLOUD_DOMAINS this workload pins *)
  open_loop : bool;  (* arrivals on a schedule, not after each reply *)
  setups : int;  (* set-ups per run; the median is setup_s *)
  setup : ctx -> seed:string -> instance;
      (* builds an instance whose inputs depend only on [seed] *)
}

(* Workload generation: a fast PRNG seeded from the run seed, so the same
   seed gives the same inputs.  The library's own randomness (keys,
   signatures, challenge sampling) stays on its seeded DRBGs. *)
let rng ~seed tag =
  let d = Sc_hash.Sha256.digest (tag ^ "\x00" ^ seed) in
  Random.State.make (Array.init 16 (fun i -> Char.code d.[i] lor (Char.code d.[i + 16] lsl 8)))

let ints rs n =
  Sc_storage.Block.encode_ints (List.init n (fun _ -> Random.State.int rs 1000))

let simple_instance ~classes ~step ~finish =
  {
    classes;
    start_phase = ignore;
    step;
    finish;
    layer = (fun () -> []);
    info = (fun () -> []);
  }
