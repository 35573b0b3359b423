(* dynamic_rw — authenticated dynamic storage (Storage.Dynamic).  One
   owner's file of signed blocks; the timed mix is 90% read +
   verify_read at Zipf(0.99)-skewed positions, 6% update, 2% append
   and 2% delete at uniform positions.  A phase appends at most 512
   blocks (later append draws update instead), so the file, and with
   it the live heap, does not grow with throughput.  Every read must
   verify and return what the benchmark's own model of the file says;
   at the end the client and server roots must agree and a DA audit
   against a signed root statement must find the file intact.  Closed
   loop, one client. *)

open Seccloud
module Dynamic = Sc_storage.Dynamic

(* Inverse-CDF sampler over ranks 1..n with weight 1/k^s, mapped
   through a seeded permutation so the hot blocks are scattered. *)
let zipf rs ~n ~s =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for k = 0 to n - 1 do
    acc := !acc +. (1.0 /. (float_of_int (k + 1) ** s));
    cdf.(k) <- !acc
  done;
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rs (i + 1) in
    let v = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- v
  done;
  fun () ->
    let u = Random.State.float rs !acc in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    perm.(!lo)

let setup (ctx : Wl.ctx) ~seed =
  let n, appends_max = if ctx.tiny then 64, 8 else 1024, 512 in
  let seed = "perfbench/dynamic_rw/" ^ seed in
  let rs = Wl.rng ~seed "dynamic_rw" in
  let system = System.create ~seed ~cs_ids:[ "cs-0" ] ~da_id:"da" () in
  let pub = System.public system in
  let key = System.register_user system "owner" in
  let file = "dynamic-file" in
  let bytes_source = System.bytes_source system in
  let payloads = List.init n (fun _ -> Wl.ints rs 8) in
  let model = ref (Array.of_list (List.map (fun p -> Dynamic.Data p) payloads)) in
  let count = ref n in
  let client, server =
    Dynamic.init pub key ~bytes_source ~cs_id:"cs-0" ~da_id:(System.da_id system) ~file
      payloads
  in
  let hot = zipf rs ~n ~s:0.99 in
  let read = Probe.cls "read" and write = Probe.cls "write" in
  let read_s = ref 0.0 and verify_s = ref 0.0 and reads = ref 0 in
  let timed_part acc f =
    if not !Probe.tracing then f ()
    else begin
      let t0 = Probe.now_s () in
      let v = f () in
      acc := !acc +. (Probe.now_s () -. t0);
      v
    end
  in
  let do_read () =
    let i = hot () in
    let ok =
      Probe.timed read (fun () ->
          match
            Probe.span "storage.dynamic.read" (fun () ->
                timed_part read_s (fun () -> Dynamic.read server i))
          with
          | None -> false
          | Some rp ->
            Probe.span "storage.dynamic.verify_read" (fun () ->
                timed_part verify_s (fun () -> Dynamic.verify_read client ~index:i rp))
            && rp.Dynamic.content = !model.(i))
    in
    incr reads;
    Wl.judge ctx ok (Printf.sprintf "read of block %d did not verify" i)
  in
  let set i c =
    if i >= Array.length !model then begin
      let bigger = Array.make (2 * Array.length !model) Dynamic.Tombstone in
      Array.blit !model 0 bigger 0 (Array.length !model);
      model := bigger
    end;
    !model.(i) <- c
  in
  let mutate what f after =
    match Probe.timed write (fun () -> Probe.span "storage.dynamic.write" f) with
    | Ok () -> after (); Wl.judge ctx true what
    | Error _ -> Wl.fail ctx (what ^ " refused")
  in
  let appends = ref 0 in
  let step () =
    let u = Random.State.int rs 100 in
    if u < 90 then do_read ()
    else if u < 96 || (u < 98 && !appends >= appends_max) then begin
      let i = Random.State.int rs !count in
      let p = Wl.ints rs 8 in
      mutate "update" (fun () -> Dynamic.update client server ~index:i p) (fun () ->
          set i (Dynamic.Data p))
    end
    else if u < 98 then begin
      let p = Wl.ints rs 8 in
      incr appends;
      mutate "append" (fun () -> Dynamic.append client server p) (fun () ->
          set !count (Dynamic.Data p);
          incr count)
    end
    else begin
      let i = Random.State.int rs !count in
      mutate "delete" (fun () -> Dynamic.delete client server ~index:i) (fun () ->
          set i Dynamic.Tombstone)
    end
  in
  let finish () =
    if Dynamic.root client <> Dynamic.server_root server then
      Wl.mismatch ctx "client and server roots disagree";
    if Dynamic.count client <> !count then Wl.mismatch ctx "block count drifted";
    let stmt = Dynamic.publish_root client ~bytes_source in
    let report =
      Dynamic.audit pub ~verifier_key:(System.da_key system) ~owner:"owner" ~file
        ~root_statement:stmt server
        ~drbg:(Sc_hash.Drbg.create ~seed:("audit/" ^ seed))
        ~samples:(min 32 !count)
    in
    if not report.Dynamic.intact then Wl.mismatch ctx "final DA audit not intact"
  in
  let per_read acc = if !reads = 0 then 0.0 else !acc /. float_of_int !reads *. 1e6 in
  {
    (Wl.simple_instance ~classes:[ read; write ] ~step ~finish) with
    start_phase =
      (fun () ->
        read_s := 0.0;
        verify_s := 0.0;
        reads := 0;
        appends := 0);
    layer =
      (fun () ->
        [ "sc_storage.dyn_read_us", per_read read_s;
          "sc_storage.dyn_verify_read_us", per_read verify_s ]);
    info = (fun () -> [ "blocks", string_of_int n ]);
  }

let workload = { Wl.name = "dynamic_rw"; domains = 1; open_loop = false; setups = 5; setup }
