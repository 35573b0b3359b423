(* Authenticated-dynamics cost check: proves the per-update cost of
   the persistent Merkle tree stays flat (within 2x) as the file grows
   16k -> 1M blocks, i.e. that update/append/proof really are O(log n)
   and not the O(n) rebuild the previous Storage.Dynamic paths paid.
   Writes BENCH_dynamic.json; exits 1 when the flatness gate fails.
   Wired into `make bench-check` via `make dynamic-check`. *)

module Dt = Sc_merkle.Dynamic_tree
module Drbg = Sc_hash.Drbg

let sizes = [ 16_384; 131_072; 1_048_576 ]
let small = List.hd sizes
let large = List.nth sizes (List.length sizes - 1)

(* cost(1M) / cost(16k) must stay under this for every O(log n) op.
   The depth ratio is log2(1M)/log2(16k) = 20/14 ~ 1.43, so 2.0 keeps
   honest headroom while any O(n) regression (x64) fails loudly. *)
let flatness_gate = 2.0

(* Best of [batches] timed batches, with a major collection before
   each: the minimum is far less sensitive to scheduler preemption and
   GC pauses than a single long average, and at 1M leaves (hundreds of
   MB live) those pauses otherwise dominate the per-op signal. *)
let time_ns ?(iters = 200) ?(batches = 5) f =
  for _ = 1 to 3 do
    ignore (f ())
  done;
  let best = ref infinity in
  for _ = 1 to batches do
    Gc.major ();
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (f ())
    done;
    let t1 = Unix.gettimeofday () in
    let per_op = (t1 -. t0) *. 1e9 /. float_of_int iters in
    if per_op < !best then best := per_op
  done;
  !best

let drbg = Drbg.create ~seed:"bench-dynamic"

let () =
  let results =
    List.map
      (fun n ->
        let t =
          Dt.of_leaf_hashes
            (List.init n (fun i -> Dt.leaf_hash (Printf.sprintf "blk-%d" i)))
        in
        let indices = Array.init 256 (fun _ -> Drbg.uniform_int drbg n) in
        let pos = ref 0 in
        let next_index () =
          let i = indices.(!pos land 255) in
          incr pos;
          i
        in
        let fresh_leaf = Dt.leaf_hash "fresh" in
        let modify_ns =
          time_ns (fun () -> Dt.modify t (next_index ()) fresh_leaf)
        in
        let append_ns = time_ns (fun () -> Dt.append t fresh_leaf) in
        let proof_verify_ns =
          time_ns (fun () ->
              let i = next_index () in
              let p = Dt.proof t i in
              assert (Dt.verify ~root:(Dt.root t) ~leaf_hash:(Dt.leaf t i) p))
        in
        (* The O(n) cost an update used to pay: rebuild from every
           leaf hash.  Only timed at the small sizes — that it is
           unaffordable at 1M is the point. *)
        let rebuild_ns =
          if n > small * 8 then None
          else
            let hashes = Dt.leaf_hashes t in
            Some (time_ns ~iters:5 (fun () -> Dt.of_leaf_hashes hashes))
        in
        (n, modify_ns, append_ns, proof_verify_ns, rebuild_ns))
      sizes
  in
  let find n =
    List.find (fun (n', _, _, _, _) -> n' = n) results
  in
  let _, m_s, a_s, p_s, _ = find small in
  let _, m_l, a_l, p_l, _ = find large in
  let ratios =
    [ "modify", m_l /. m_s; "append", a_l /. a_s; "proof_verify", p_l /. p_s ]
  in
  let pass = List.for_all (fun (_, r) -> r <= flatness_gate) ratios in
  let json =
    Printf.sprintf "{\n%s,\n%s,\n  \"flatness_gate\": %.2f,\n  \"pass\": %b\n}\n"
      (String.concat ",\n"
         (List.map
            (fun (n, m, a, p, rb) ->
              Printf.sprintf
                "  \"modify_ns_%d\": %.0f,\n  \"append_ns_%d\": %.0f,\n  \
                 \"proof_verify_ns_%d\": %.0f%s"
                n m n a n p
                (match rb with
                | None -> ""
                | Some r -> Printf.sprintf ",\n  \"rebuild_ns_%d\": %.0f" n r))
            results))
      (String.concat ",\n"
         (List.map
            (fun (op, r) -> Printf.sprintf "  \"%s_ratio_1M_over_16k\": %.2f" op r)
            ratios))
      flatness_gate pass
  in
  let oc = open_out "BENCH_dynamic.json" in
  output_string oc json;
  close_out oc;
  List.iter
    (fun (n, m, a, p, rb) ->
      Printf.printf
        "n=%-9d modify %8.1f ns  append %8.1f ns  proof+verify %8.1f ns%s\n" n
        m a p
        (match rb with
        | None -> ""
        | Some r -> Printf.sprintf "  (full rebuild %10.0f ns)" r))
    results;
  List.iter
    (fun (op, r) ->
      Printf.printf "%-12s cost(1M)/cost(16k) = x%.2f (gate x%.2f)\n" op r
        flatness_gate)
    ratios;
  print_endline "wrote BENCH_dynamic.json";
  if not pass then begin
    prerr_endline "dynamic update cost is not flat: O(log n) regression";
    exit 1
  end
