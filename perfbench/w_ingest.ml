(* ingest — the write path (Protocol II).  Owners sign 16-block files
   of 8 integers and upload them through a perfect transport into one
   server endpoint, which verifies every designated signature.  Uploads
   come from a warmed pool of 64 owners, except that every third upload
   of a phase comes from a never-seen identity, whose first upload
   misses the fixed-base precomputation caches, until 48 new owners
   have uploaded.  The caches never evict, so the fixed count keeps the
   live heap independent of how many uploads fit into the phase.  File
   names cycle through 256 slots (a re-upload replaces the file), so
   the server's footprint does not grow with throughput either.  Closed
   loop, one client. *)

open Seccloud

let setup (ctx : Wl.ctx) ~seed =
  let blocks, ints, pool_n, fresh_n = if ctx.tiny then 4, 8, 4, 4 else 16, 8, 64, 48 in
  let seed = "perfbench/ingest/" ^ seed in
  let rs = Wl.rng ~seed "ingest" in
  let system = System.create ~seed ~cs_ids:[ "cs-0" ] ~da_id:"da" () in
  let cloud = Cloud.create system ~id:"cs-0" () in
  let server = Endpoint.Server.create system cloud in
  let transport =
    Transport.create ~peer:"cs-0" ~public:(System.public system)
      ~handler:(Probe.wrap_handler (Endpoint.Server.handle server))
      ()
  in
  let warm = Probe.cls "store_warm" and cold = Probe.cls "store_new_owner" in
  let slots = 256 and files = ref 0 in
  let store ?cls user n =
    incr files;
    let file = Printf.sprintf "f%d" (!files mod slots) in
    let payloads = List.init n (fun _ -> Wl.ints rs ints) in
    let go () = User.store_over user ~transport ~cs_id:"cs-0" ~file payloads in
    let r = match cls with Some c -> Probe.timed c go | None -> go () in
    match r with
    | Ok ok -> Wl.judge ctx ok ("upload rejected: " ^ file)
    | Error e -> Wl.fail ctx ("upload lost: " ^ Transport.error_to_string e)
  in
  (* Warm the pool: one upload per owner fills the signer- and
     server-side tables for that identity.  Four blocks rather than one
     make the set-up long enough (about 0.6 s) for its host-speed
     samples to average out. *)
  let pool =
    Array.init pool_n (fun i ->
        let u = User.create system ~id:(Printf.sprintf "owner-%d" i) in
        store u 4;
        u)
  in
  let phase = ref 0 and uploads = ref 0 and fresh = ref 0 in
  let start_phase () =
    incr phase;
    uploads := 0;
    fresh := 0
  in
  let step () =
    incr uploads;
    if !uploads mod 3 = 0 && !fresh < fresh_n then begin
      incr fresh;
      let u = User.create system ~id:(Printf.sprintf "new-owner-%d-%d" !phase !fresh) in
      store ~cls:cold u blocks
    end
    else store ~cls:warm pool.(Random.State.int rs pool_n) blocks
  in
  let finish () =
    let stored = List.length (Sc_storage.Server.files (Cloud.storage cloud)) in
    if stored <> min slots !files then
      Wl.mismatch ctx
        (Printf.sprintf "server holds %d files, expected %d" stored (min slots !files))
  in
  { (Wl.simple_instance ~classes:[ warm; cold ] ~step ~finish) with start_phase }

let workload = { Wl.name = "ingest"; domains = 1; open_loop = false; setups = 7; setup }
