(* Reference models for the differential tests: small, slow and
   obviously correct versions of what the library optimises, or of the
   loops its batched paths replaced.  They live beside the tests, not
   in lib/, and touch no telemetry counter. *)

open Sc_bignum
open Sc_field
open Sc_ec

(* --- SHA-256 and HMAC ------------------------------------------------ *)

(* The straightforward FIPS 180-4 kernel the library shipped before its
   rotations moved to the doubled-word form: byte-wise word loads, a
   rotation as two shifts and a mask, every sum masked, a separate
   padding buffer.  HMAC is RFC 2104 over it. *)
module Sha256 = struct
  let m32 = 0xFFFFFFFF

  let k =
    [|
      0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
      0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
      0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
      0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
      0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
      0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
      0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
      0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
      0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
      0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
      0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
    |]

  let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land m32

  let compress h b =
    let w = Array.make 64 0 in
    for t = 0 to 15 do
      w.(t) <-
        (Char.code (Bytes.get b (4 * t)) lsl 24)
        lor (Char.code (Bytes.get b ((4 * t) + 1)) lsl 16)
        lor (Char.code (Bytes.get b ((4 * t) + 2)) lsl 8)
        lor Char.code (Bytes.get b ((4 * t) + 3))
    done;
    for t = 16 to 63 do
      let s0 = rotr w.(t - 15) 7 lxor rotr w.(t - 15) 18 lxor (w.(t - 15) lsr 3) in
      let s1 = rotr w.(t - 2) 17 lxor rotr w.(t - 2) 19 lxor (w.(t - 2) lsr 10) in
      w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land m32
    done;
    let a = ref h.(0) and b' = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
    let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
    for t = 0 to 63 do
      let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
      let ch = (!e land !f) lxor (lnot !e land !g) in
      let t1 = (!hh + s1 + ch + k.(t) + w.(t)) land m32 in
      let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
      let maj = (!a land !b') lxor (!a land !c) lxor (!b' land !c) in
      let t2 = (s0 + maj) land m32 in
      hh := !g;
      g := !f;
      f := !e;
      e := (!d + t1) land m32;
      d := !c;
      c := !b';
      b' := !a;
      a := (t1 + t2) land m32
    done;
    List.iteri
      (fun i v -> h.(i) <- (h.(i) + v) land m32)
      [ !a; !b'; !c; !d; !e; !f; !g; !hh ]

  (* Pad the whole message (0x80, zeros, 64-bit big-endian bit length)
     and compress it block by block. *)
  let digest msg =
    let h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
        0x9b05688c; 0x1f83d9ab; 0x5be0cd19;
      |]
    in
    let len = String.length msg in
    let pad_len =
      let rem = (len + 1 + 8) mod 64 in
      if rem = 0 then 1 else 1 + (64 - rem)
    in
    let padded = Bytes.make (len + pad_len + 8) '\000' in
    Bytes.blit_string msg 0 padded 0 len;
    Bytes.set padded len '\x80';
    for i = 0 to 7 do
      Bytes.set padded (len + pad_len + i)
        (Char.chr (((len * 8) lsr (8 * (7 - i))) land 0xFF))
    done;
    for blk = 0 to (Bytes.length padded / 64) - 1 do
      compress h (Bytes.sub padded (64 * blk) 64)
    done;
    String.init 32 (fun i ->
        Char.chr ((h.(i / 4) lsr (8 * (3 - (i mod 4)))) land 0xFF))

  (* RFC 2104 over the reference digest: hash a long key, zero-pad, xor
     the pads, two passes. *)
  let hmac ~key msg =
    let key = if String.length key > 64 then digest key else key in
    let pad byte =
      String.init 64 (fun i ->
          let c = if i < String.length key then Char.code key.[i] else 0 in
          Char.chr (c lxor byte))
    in
    digest (pad 0x5C ^ digest (pad 0x36 ^ msg))
end

(* --- Field, scalar multiplication and the pairing ---------------------- *)

(* Binary long division, one quotient bit per step: the oracle for
   the Knuth division under [Nat.rem], and a quotient for the tests
   that need one. *)
let divmod a b =
  if Nat.is_zero b then raise Division_by_zero;
  let rec go q r i =
    if i < 0 then q, r
    else
      let r = Nat.shift_left r 1 in
      let r = if Nat.test_bit a i then Nat.add r Nat.one else r in
      let q = Nat.shift_left q 1 in
      if Nat.compare r b >= 0 then go (Nat.add q Nat.one) (Nat.sub r b) (i - 1)
      else go q r (i - 1)
  in
  go Nat.zero Nat.zero (Nat.bit_length a - 1)

(* Arithmetic mod m on canonical naturals, every result reduced by a
   division: the oracle for the Montgomery kernel and for F_p. *)
module Nat_mod = struct
  let mul m a b = Nat.rem (Nat.mul a b) m
  let add m a b = Nat.rem (Nat.add a b) m
  let sub m a b = Nat.rem (Nat.sub (Nat.add a m) b) m
  let neg m a = sub m Nat.zero a
end

(* Montgomery's REDC by its definition: x·y·R⁻¹ mod m, R = B^k for
   the k-limb modulus m, on naturals: the oracle for the limbs that
   [Montgomery.mul] and [sqr] return, read as naturals. *)
let redc m x y =
  let r = Nat.shift_left Nat.one (Array.length (Nat.to_limbs m) * Nat.base_bits) in
  Nat_mod.mul m (Nat.rem (Nat.mul x y) m) (Nat.inv_mod r m)

(* F_p² over canonical naturals mod p, multiplied schoolbook through
   [Nat_mod]: the oracle for the Karatsuba-over-REDC [Fp2]. *)
module Nat2 = struct
  type t = { re : Nat.t; im : Nat.t }

  let of_fp2 fp (a : Fp2.el) = { re = Fp.to_nat fp a.re; im = Fp.to_nat fp a.im }
  let to_fp2 fp a = Fp2.make (Fp.of_nat fp a.re) (Fp.of_nat fp a.im)
  let one = { re = Nat.one; im = Nat.zero }
  let is_zero a = Nat.is_zero a.re && Nat.is_zero a.im

  (* (a + bi)(c + di) = (ac − bd) + (ad + bc)i *)
  let mul m a b =
    let ( * ) = Nat_mod.mul m in
    { re = Nat_mod.sub m (a.re * b.re) (a.im * b.im);
      im = Nat_mod.add m (a.re * b.im) (a.im * b.re) }

  let conj m a = { a with im = Nat_mod.neg m a.im }

  let inv m a =
    let ( * ) = Nat_mod.mul m in
    let n = Nat_mod.add m (a.re * a.re) (a.im * a.im) in
    if Nat.is_zero n then raise Division_by_zero;
    let ninv = Nat.inv_mod n m in
    { re = a.re * ninv; im = Nat_mod.neg m (a.im * ninv) }

  (* Left-to-right square-and-multiply. *)
  let pow m a e =
    let rec go acc i =
      if i < 0 then acc
      else
        let acc = mul m acc acc in
        go (if Nat.test_bit e i then mul m acc a else acc) (i - 1)
    in
    go one (Nat.bit_length e - 1)
end

(* [Nat2] on [Fp2.el] arguments: conjugation (the p-power Frobenius,
   p ≡ 3 mod 4), inversion through the norm, and exponentiation. *)
let nat2 fp f a =
  Nat2.to_fp2 fp (f (Fp.characteristic fp) (Nat2.of_fp2 fp a))

let fp2_conj fp a = nat2 fp Nat2.conj a
let fp2_inv fp a = nat2 fp Nat2.inv a
let fp2_pow fp a e = nat2 fp (fun m x -> Nat2.pow m x e) a

(* The affine group law of y² = x³ + x over [f], one field inversion
   per operation: the chord-and-tangent formulas the library's
   Jacobian arithmetic is checked against. *)
let double f = function
  | Curve.Infinity -> Curve.Infinity
  | Curve.Affine (x, y) ->
    if Fp.is_zero y then Curve.Infinity
    else begin
      (* λ = (3x² + 1) / 2y *)
      let num = Fp.add f (Fp.mul f (Fp.of_int f 3) (Fp.sqr f x)) (Fp.one f) in
      let lam = Fp.mul f num (Fp.inv f (Fp.double f y)) in
      let x3 = Fp.sub f (Fp.sqr f lam) (Fp.double f x) in
      Curve.Affine (x3, Fp.sub f (Fp.mul f lam (Fp.sub f x x3)) y)
    end

let add f p q =
  match p, q with
  | Curve.Infinity, r | r, Curve.Infinity -> r
  | Curve.Affine (x1, y1), Curve.Affine (x2, y2) ->
    if Fp.equal x1 x2 then if Fp.equal y1 y2 then double f p else Curve.Infinity
    else begin
      let lam = Fp.mul f (Fp.sub f y2 y1) (Fp.inv f (Fp.sub f x2 x1)) in
      let x3 = Fp.sub f (Fp.sub f (Fp.sqr f lam) x1) x2 in
      Curve.Affine (x3, Fp.sub f (Fp.mul f lam (Fp.sub f x1 x3)) y1)
    end

(* Affine left-to-right double-and-add over [add]: what [Curve.mul]
   and [Curve.msm] are checked against. *)
let mul_naive f k p =
  let rec go acc i =
    if i < 0 then acc
    else
      let acc = double f acc in
      go (if Nat.test_bit k i then add f acc p else acc) (i - 1)
  in
  go Curve.Infinity (Nat.bit_length k - 1)

(* Evaluate the line through T (slope lam) at the distorted point
   φ(Q) = (−x_q, i·y_q): (lam·(x_q + x_t) − y_t) + i·y_q. *)
let line_eval fp ~lam ~xt ~yt ~xq ~yq =
  Nat2.of_fp2 fp (Fp2.make (Fp.sub fp (Fp.mul fp lam (Fp.add fp xq xt)) yt) yq)

(* Affine Miller loop, one field inversion per step; the value
   accumulates in [Nat2]. *)
let miller_affine (prm : Sc_pairing.Params.t) px py xq yq =
  let fp = prm.fp and m = prm.p in
  let three = Fp.of_int fp 3 in
  let tangent x y =
    Fp.mul fp
      (Fp.add fp (Fp.mul fp three (Fp.sqr fp x)) (Fp.one fp))
      (Fp.inv fp (Fp.double fp y))
  in
  let f = ref Nat2.one in
  let tx = ref px and ty = ref py in
  let t_inf = ref false in
  let step lam ~x3 =
    f := Nat2.mul m !f (line_eval fp ~lam ~xt:!tx ~yt:!ty ~xq ~yq);
    let y3 = Fp.sub fp (Fp.mul fp lam (Fp.sub fp !tx x3)) !ty in
    tx := x3;
    ty := y3
  in
  for i = Nat.bit_length prm.q - 2 downto 0 do
    f := Nat2.mul m !f !f;
    (* Doubling; a vertical tangent contributes an F_p factor only. *)
    if not !t_inf then begin
      if Fp.is_zero !ty then t_inf := true
      else
        let lam = tangent !tx !ty in
        step lam ~x3:(Fp.sub fp (Fp.sqr fp lam) (Fp.double fp !tx))
    end;
    (* Addition of P; T = −P gives a vertical chord and T = O. *)
    if Nat.test_bit prm.q i && not !t_inf then begin
      if Fp.equal !tx px then begin
        if Fp.equal !ty py then
          let lam = tangent !tx !ty in
          step lam ~x3:(Fp.sub fp (Fp.sqr fp lam) (Fp.double fp !tx))
        else t_inf := true
      end
      else
        let lam = Fp.mul fp (Fp.sub fp !ty py) (Fp.inv fp (Fp.sub fp !tx px)) in
        step lam ~x3:(Fp.sub fp (Fp.sub fp (Fp.sqr fp lam) !tx) px)
    end
  done;
  !f

(* f^((p² − 1)/q) = (conj(f)·f⁻¹)^c, conjugation being the p-power
   Frobenius when p ≡ 3 (mod 4). *)
let final_expo (prm : Sc_pairing.Params.t) f =
  let m = prm.p in
  Nat2.pow m (Nat2.mul m (Nat2.conj m f) (Nat2.inv m f)) prm.cofactor

(* The modified Tate pairing by an affine Miller loop and [Nat2]
   F_p²: the oracle for [Tate.pairing], which replays a Jacobian line
   table over Montgomery F_p². *)
let pairing_affine (prm : Sc_pairing.Params.t) p q =
  match (p, q) with
  | Curve.Infinity, _ | _, Curve.Infinity -> Sc_pairing.Tate.gt_one prm
  | Curve.Affine (px, py), Curve.Affine (qx, qy) ->
    let f = miller_affine prm px py qx qy in
    if Nat2.is_zero f then Sc_pairing.Tate.gt_one prm
    else Nat2.to_fp2 prm.fp (final_expo prm f)

(* --- Identity keys --------------------------------------------------- *)

(* sk_ID = s·Q_ID exactly when ê(sk_ID, P) = ê(Q_ID, P_pub), for a
   subgroup point: two plain pairings.  The library's key check, which
   this replaced, read: ê(sk, P) = ê(Q_ID, P_pub), checked as a
   one-Miller-loop 2-term multi-pairing ê(sk, P)·ê(−Q_ID, P_pub) = 1,
   replayed from the cached line tables of the fixed P / P_pub.  The
   replayed product relies on pairing symmetry, so the untrusted sk is
   checked into the subgroup first (Q_ID is in it by construction);
   the subgroup check here is that one. *)
let valid_key (pub : Sc_ibc.Setup.public) (key : Sc_ibc.Setup.identity_key) =
  let prm = pub.prm in
  Sc_pairing.Params.in_subgroup prm key.sk
  && Fp2.equal
       (Sc_pairing.Tate.pairing prm key.sk prm.g)
       (Sc_pairing.Tate.pairing prm key.q_id pub.p_pub)

(* --- The sampling games of §VII-A ------------------------------------ *)

(* Survival rate of a cheater over [trials] audits of [t] samples,
   trial after trial from one DRBG. *)
let survival_rate ~t ~trials sample_survives =
  let survived = ref 0 in
  for _ = 1 to trials do
    let rec all k = k = 0 || (sample_survives () && all (k - 1)) in
    if all t then incr survived
  done;
  float_of_int !survived /. float_of_int trials

(* FCS: an uncomputed result is guessed from a range of size [range]. *)
let fcs_rate ~drbg ~csc ~range ~t ~trials =
  let hit p = Sc_hash.Drbg.float drbg < p in
  survival_rate ~t ~trials (fun () ->
      hit csc || (range <> infinity && hit (1.0 /. range)))

(* PCS: wrong-position data survives only with a forged signature. *)
let pcs_rate ~drbg ~ssc ~sig_forge ~t ~trials =
  let hit p = Sc_hash.Drbg.float drbg < p in
  survival_rate ~t ~trials (fun () -> hit ssc || hit sig_forge)

(* --- Merkle tree ----------------------------------------------------- *)

module T = Sc_merkle.Dynamic_tree

(* Hash the leaves, then pair adjacent nodes level by level, promoting
   an odd last node unchanged. *)
let rec merkle_root_of_hashes = function
  | [] -> invalid_arg "merkle_root_of_hashes: empty"
  | [ h ] -> h
  | level ->
    let rec pair = function
      | a :: b :: rest ->
        Sc_hash.Sha256.digest_concat [ "node:"; a; b ] :: pair rest
      | rest -> rest
    in
    merkle_root_of_hashes (pair level)

let merkle_root payloads = merkle_root_of_hashes (List.map T.leaf_hash payloads)

(* Sibling sides by the same pairing: a node is a right child when its
   level index is odd, a left child when it has a right neighbour, and
   promoted (no sibling) otherwise. *)
let merkle_sides ~total ~index =
  let rec go n i acc =
    if n = 1 then List.rev acc
    else
      let acc =
        if i land 1 = 1 then T.L :: acc
        else if i + 1 < n then T.R :: acc
        else acc
      in
      go ((n + 1) / 2) (i / 2) acc
  in
  go total index []

(* --- Audits, one sample at a time ------------------------------------- *)

(* The per-sample loops the batched audit paths replaced: one
   [Dvs.verify] per sample, in sample order, by the DA. *)

module Block = Sc_storage.Block
module Server = Sc_storage.Server
module Protocol = Sc_audit.Protocol
module Dynamic = Sc_storage.Dynamic

let dvs_ok pub ~verifier_key ~signer ~msg dvs =
  Sc_ibc.Dvs.verify pub ~verifier_key
    ~q_id:(Sc_ibc.Setup.q_of_id pub signer)
    ~msg dvs

(* One stored block's designated signature, checked by the verifier
   the role names. *)
let verify_block pub ~verifier_key ~role ~q_id claimed
    (sb : Sc_storage.Signer.signed_block) =
  let sigma = match role with `Cs -> sb.sigma_cs | `Da -> sb.sigma_da in
  Sc_ibc.Dvs.verify pub ~verifier_key ~q_id ~msg:(Block.signing_message claimed)
    { Sc_ibc.Dvs.u = sb.u; sigma }

(* A storage audit's invalid indices: a read is good when it answers
   its own position and its designated signature verifies. *)
let storage_invalid pub ~verifier_key ~owner reads =
  List.filter_map
    (fun (i, read) ->
      match read with
      | Some { Server.claimed; signed }
        when claimed.Block.index = i
             && verify_block pub ~verifier_key ~role:`Da
                  ~q_id:(Sc_ibc.Setup.q_of_id pub owner) claimed signed ->
        None
      | Some _ | None -> Some i)
    reads

let root_failures pub (commitment : Protocol.commitment) =
  if
    Sc_ibc.Ibs.verify pub ~signer:commitment.cs_id
      ~msg:("root:" ^ commitment.root) commitment.root_signature
  then []
  else [ Protocol.Root_signature_wrong ]

(* The response Algorithm 1 checks for index [i]: the last one. *)
let response_at responses i =
  List.find_opt
    (fun (r : Sc_compute.Executor.response) -> r.task_index = i)
    (List.rev responses)

(* Per sample of Algorithm 1: the failures of its Merkle path (which
   must open its own slot of the committed tree), its block's claimed
   position and its recomputation, and whether its designated signature
   fails on its own. *)
let protocol_samples pub ~verifier_key ~owner (commitment : Protocol.commitment)
    (challenge : Protocol.challenge) responses =
  let module Executor = Sc_compute.Executor in
  List.map
    (fun i ->
      match response_at responses i with
      | None -> i, [ Protocol.Missing_response i ], false
      | Some { request; result; proof; read; _ } ->
        let path_ok =
          proof.T.index = i
          && proof.T.total = commitment.n_tasks
          && T.verify ~root:commitment.root
               ~leaf_hash:
                 (T.leaf_hash
                    (Executor.leaf_payload ~result
                       ~position:request.Sc_compute.Task.position))
               proof
        in
        let read_failures, signature_bad =
          match read with
          | None -> [ Protocol.Signature_wrong i ], false
          | Some { Server.claimed; signed } ->
            ( (if claimed.Block.index = request.position then []
               else [ Protocol.Signature_wrong i ])
              @ (match Sc_compute.Task.eval request.func claimed with
                | Some y when y = result -> []
                | Some _ | None -> [ Protocol.Computing_wrong i ]),
              not
                (verify_block pub ~verifier_key ~role:`Da
                   ~q_id:(Sc_ibc.Setup.q_of_id pub owner) claimed signed) )
        in
        ( i,
          (if path_ok then [] else [ Protocol.Root_wrong i ]) @ read_failures,
          signature_bad ))
    challenge.sample_indices

(* [Protocol.verify]'s order, job by job: the job's root failure, then
   each sample's other failures followed by its signature failure. *)
let protocol_verify pub ~verifier_key (jobs : Protocol.job list) =
  List.concat_map
    (fun (j : Protocol.job) ->
      root_failures pub j.commitment
      @ List.concat_map
          (fun (i, fs, bad) ->
            if bad then fs @ [ Protocol.Signature_wrong i ] else fs)
          (protocol_samples pub ~verifier_key ~owner:j.owner j.commitment
             j.challenge j.responses))
    jobs

(* [Dynamic.audit] for a statement that holds the client's current
   root: a sample is good when its path opens its own slot of that root
   and its designated signature verifies. *)
let dynamic_audit pub ~verifier_key ~owner client server ~file ~seed ~samples =
  let idx =
    Array.to_list
      (Sc_hash.Drbg.sample_prefix (Sc_hash.Drbg.create ~seed)
         ~n:(Dynamic.count client) ~k:samples)
  in
  let good index =
    match Dynamic.read server index with
    | Some ({ Dynamic.content = Dynamic.Data payload; _ } as rp) ->
      Dynamic.verify_read client ~index rp
      && dvs_ok pub ~verifier_key ~signer:owner
           ~msg:
             (Dynamic.signing_message ~file ~index ~version:rp.version
                ~payload)
           { Sc_ibc.Dvs.u = rp.u; sigma = rp.sigma_da }
    | Some _ | None -> false
  in
  let invalid = List.filter (fun i -> not (good i)) idx in
  {
    Dynamic.sampled = List.length idx;
    valid = List.length idx - List.length invalid;
    invalid_indices = invalid;
    intact = invalid = [];
  }
