open Sc_bignum
open Sc_field
open Sc_ec
module Telemetry = Sc_telemetry.Telemetry

let c_precomp_hit = Telemetry.counter "pairing.precomp.hit"
let c_precomp_miss = Telemetry.counter "pairing.precomp.miss"
let c_id_hit = Telemetry.counter "pairing.id_memo.hit"
let c_id_hash = Telemetry.counter "pairing.id_hash"

module SMap = Map.Make (String)

(* Per-parameter-set precomputation caches, keyed by point encoding.
   Reads are lock-free (an immutable map behind an [Atomic]); misses
   take the lock, re-check, compute, and publish — the same
   double-check shape as {!g_comb} below.  A plain [Hashtbl]
   would not do: concurrent reads during a resize are undefined.  Each
   cache counts its own hits and misses. *)
type 'a cache = {
  map : 'a SMap.t Atomic.t;
  lock : Mutex.t;
  hit : Telemetry.counter;
  miss : Telemetry.counter;
}

let cache_create ~hit ~miss =
  { map = Atomic.make SMap.empty; lock = Mutex.create (); hit; miss }

type t = {
  p : Nat.t;
  q : Nat.t;
  cofactor : Nat.t;
  fp : Fp.ctx;
  curve : Curve.t;
  g : Curve.point;
  g_precomp : Curve.precomp Lazy.t;
  comb_cache : Curve.precomp cache;
  miller_cache : Miller.precomp cache;
  id_cache : Curve.point cache;
}

let build ~p ~q ~cofactor ~g_of_curve =
  if Nat.rem_int p 4 <> 3 then invalid_arg "Params: p must be 3 mod 4";
  if not (Nat.equal (Nat.add p Nat.one) (Nat.mul cofactor q))
  then invalid_arg "Params: p + 1 <> cofactor * q";
  let fp = Fp.create p in
  Fp2.check_ctx fp;
  let curve = Curve.create fp in
  let g = g_of_curve curve fp in
  if Curve.is_infinity g then invalid_arg "Params: generator is infinity";
  if not (Curve.on_curve curve g) then invalid_arg "Params: generator off curve";
  if not (Curve.mul_is_infinity curve q g)
  then invalid_arg "Params: generator order does not divide q";
  let g_precomp = lazy (Curve.precompute curve ~bits:(Nat.bit_length q) g) in
  {
    p;
    q;
    cofactor;
    fp;
    curve;
    g;
    g_precomp;
    comb_cache = cache_create ~hit:c_precomp_hit ~miss:c_precomp_miss;
    miller_cache = cache_create ~hit:c_precomp_hit ~miss:c_precomp_miss;
    id_cache = cache_create ~hit:c_id_hit ~miss:c_id_hash;
  }

let find_generator curve cofactor ~bytes_source _fp =
  let rec go () =
    let r = Curve.random curve ~bytes_source in
    let g = Curve.mul curve cofactor r in
    if Curve.is_infinity g then go () else g
  in
  go ()

let generate ?bits_p ~bytes_source ~bits_q () =
  let q = Prime.random_prime ~bytes_source ~bits:bits_q in
  (* p = c·q − 1 with 4 | c forces p ≡ 3 (mod 4) since q is odd.  With
     no target field size the smallest such cofactor is used; with
     [bits_p] the cofactor is drawn so that p has the requested width
     (paper-era parameter shapes like 512-bit p / 160-bit q). *)
  let p, cofactor =
    match bits_p with
    | None ->
      let rec find_p c =
        let cof = Nat.of_int c in
        let p = Nat.sub (Nat.mul cof q) Nat.one in
        if Prime.is_probably_prime ~bytes_source p then p, cof else find_p (c + 4)
      in
      find_p 4
    | Some bits_p ->
      if bits_p < bits_q + 3 then invalid_arg "Params.generate: bits_p too small";
      let cof_bits = bits_p - bits_q in
      let rec draw () =
        let r = Nat.random ~bytes_source ~bits:(cof_bits - 2) in
        (* Force the top bit and divisibility by 4. *)
        let cof =
          Nat.shift_left (Nat.add (Nat.shift_left Nat.one (cof_bits - 3)) r) 2
        in
        let p = Nat.sub (Nat.mul cof q) Nat.one in
        if Nat.bit_length p = bits_p && Prime.is_probably_prime ~bytes_source p
        then p, cof
        else draw ()
      in
      draw ()
  in
  build ~p ~q ~cofactor ~g_of_curve:(fun curve fp ->
      find_generator curve cofactor ~bytes_source fp)

(* Embedded presets produced by `dune exec bin/paramgen.exe` with the
   seeds recorded below; see bin/paramgen.ml. *)

let preset ?bits_p ~seed ~bits_q () =
  lazy
    (let drbg = Sc_hash.Drbg.create ~seed in
     generate ?bits_p ~bytes_source:(Sc_hash.Drbg.bytes_source drbg) ~bits_q ())

let toy = preset ~seed:"seccloud-toy-params-v1" ~bits_q:64 ()
let small = preset ~seed:"seccloud-small-params-v1" ~bits_q:112 ()
let mid = preset ~seed:"seccloud-mid-params-v1" ~bits_q:160 ~bits_p:512 ()
let presets = [ ("toy", toy); ("small", small); ("mid", mid) ]

let in_subgroup t pt =
  Curve.on_curve t.curve pt && Curve.mul_is_infinity t.curve t.q pt

let random_scalar t ~bytes_source =
  let qm1 = Nat.sub t.q Nat.one in
  Nat.add Nat.one (Nat.random_below ~bytes_source qm1)

(* Lazy.force is not domain-safe (concurrent first forcings race);
   serialize only the initial computation — once the lazy is a value,
   forcing it is a read and takes no lock.  [locked] is the shared
   critical-section helper every double-checked path below routes
   through. *)
let precomp_lock = Mutex.create ()

let locked lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let g_comb t =
  if Lazy.is_val t.g_precomp then Lazy.force t.g_precomp
  else locked precomp_lock (fun () -> Lazy.force t.g_precomp)

let mul_g t k = Curve.mul_precomp t.curve (g_comb t) (Nat.rem k t.q)

let cache_get cache key compute =
  match SMap.find_opt key (Atomic.get cache.map) with
  | Some v ->
    Telemetry.incr cache.hit;
    v
  | None ->
    locked cache.lock (fun () ->
        (* Re-check under the lock: another domain may have published
           the entry between the lock-free read and the acquisition. *)
        match SMap.find_opt key (Atomic.get cache.map) with
        | Some v ->
          Telemetry.incr cache.hit;
          v
        | None ->
          Telemetry.incr cache.miss;
          let v = compute () in
          Atomic.set cache.map (SMap.add key v (Atomic.get cache.map));
          v)

let precomp_for t pt =
  cache_get t.comb_cache (Curve.to_bytes t.curve pt) (fun () ->
      Curve.precompute t.curve ~bits:(Nat.bit_length t.q) pt)

let miller_precomp_for t pt =
  cache_get t.miller_cache (Curve.to_bytes t.curve pt) (fun () ->
      Miller.precompute ~fp:t.fp ~order:t.q pt)

let id_point t id hash = cache_get t.id_cache id (fun () -> hash id)
