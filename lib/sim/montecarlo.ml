type result = { trials : int; survived : int; rate : float; predicted : float }

let bernoulli drbg p = Sc_hash.Drbg.float drbg < p

(* One sampled sub-task survives scrutiny under the FCS game. *)
let fcs_sample_survives drbg ~csc ~range =
  if bernoulli drbg csc then true
  else if range = infinity then false
  else bernoulli drbg (1.0 /. range)

let pcs_sample_survives drbg ~ssc ~sig_forge =
  if bernoulli drbg ssc then true else bernoulli drbg sig_forge

(* Trials fan out over the domain pool in a *fixed* number of chunks,
   each driven by its own DRBG forked from the caller's stream up
   front.  The outcome is therefore a pure function of the seed —
   identical at every SECCLOUD_DOMAINS setting, only the schedule
   changes.  (A shared stream would interleave nondeterministically
   across domains.) *)
let n_chunks = 64

let run_trials drbg ~trials ~predicted trial =
  let k = max 1 (min n_chunks trials) in
  let sub =
    Array.init k (fun _ ->
        Sc_hash.Drbg.create ~seed:(Sc_hash.Drbg.generate drbg 32))
  in
  let counts = Array.make k 0 in
  let base = trials / k and extra = trials mod k in
  Sc_parallel.iter_ranges k (fun lo hi ->
      for c = lo to hi - 1 do
        let d = sub.(c) in
        let n_c = base + if c < extra then 1 else 0 in
        let s = ref 0 in
        for _ = 1 to n_c do
          if trial d then incr s
        done;
        counts.(c) <- !s
      done);
  let survived = Array.fold_left ( + ) 0 counts in
  {
    trials;
    survived;
    rate = float_of_int survived /. float_of_int trials;
    predicted;
  }

let all_pass t sample_survives d =
  let rec go k = k = 0 || (sample_survives d && go (k - 1)) in
  go t

let combined_experiment ~drbg ~csc ~ssc ~range ~sig_forge ~t ~trials =
  (* The adversary mounts one of the two attacks per audit; eq. (14)
     upper-bounds the union, so we play both and count survival of
     either. *)
  run_trials drbg ~trials
    ~predicted:(Sc_audit.Sampling.pr_cheat ~csc ~ssc ~range ~sig_forge ~t)
    (fun d ->
      all_pass t (fun d -> fcs_sample_survives d ~csc ~range) d
      || all_pass t (fun d -> pcs_sample_survives d ~ssc ~sig_forge) d)
