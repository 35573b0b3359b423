let clamp01 x = max 0.0 (min 1.0 x)

let check_prob name v =
  if not (v >= 0.0 && v <= 1.0) then
    invalid_arg (Printf.sprintf "Sampling: %s must lie in [0,1]" name)

let pr_fcs ~csc ~range ~t =
  check_prob "csc" csc;
  if t < 0 then invalid_arg "Sampling.pr_fcs: negative t";
  if range < 1.0 then invalid_arg "Sampling.pr_fcs: range < 1";
  let per_sample =
    if range = infinity then csc else csc +. ((1.0 -. csc) /. range)
  in
  clamp01 (per_sample ** float_of_int t)

let pr_pcs ~ssc ~sig_forge ~t =
  check_prob "ssc" ssc;
  check_prob "sig_forge" sig_forge;
  if t < 0 then invalid_arg "Sampling.pr_pcs: negative t";
  let per_sample = ssc +. ((1.0 -. ssc) *. sig_forge) in
  clamp01 (per_sample ** float_of_int t)

let pr_cheat ~csc ~ssc ~range ~sig_forge ~t =
  clamp01 (pr_fcs ~csc ~range ~t +. pr_pcs ~ssc ~sig_forge ~t)

let required_samples ?(t_max = 100_000) ~csc ~ssc ~range ~sig_forge ~eps () =
  if eps <= 0.0 then invalid_arg "Sampling.required_samples: eps <= 0";
  (* The probability is monotone decreasing in t, so a geometric climb
     followed by binary search finds the threshold quickly. *)
  let ok t = pr_cheat ~csc ~ssc ~range ~sig_forge ~t <= eps in
  if ok 0 then Some 0
  else if not (ok t_max) then None
  else begin
    let rec climb hi = if ok hi then hi else climb (min t_max (hi * 2)) in
    let hi = climb 1 in
    let rec bisect lo hi =
      (* invariant: not (ok lo) && ok hi *)
      if hi - lo <= 1 then hi
      else begin
        let mid = (lo + hi) / 2 in
        if ok mid then bisect lo mid else bisect mid hi
      end
    in
    if hi = 1 then Some 1 else Some (bisect (hi / 2) hi)
  end

type grid_point = { ssc : float; csc : float; t : int option }

let figure4_grid ?(sig_forge = 1e-9) ?(steps = 10) ~eps ~range () =
  List.concat
    (List.init steps (fun i ->
         let ssc = float_of_int i /. float_of_int steps in
         List.init steps (fun j ->
             let csc = float_of_int j /. float_of_int steps in
             let t = required_samples ~csc ~ssc ~range ~sig_forge ~eps () in
             { ssc; csc; t })))
