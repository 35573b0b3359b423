open Sc_bignum
open Sc_field
module M = Fp.Mont

let c_mul_wnaf = Sc_telemetry.Telemetry.counter "curve.mul.wnaf"
let c_msm = Sc_telemetry.Telemetry.counter "curve.msm"
let c_msm_terms = Sc_telemetry.Telemetry.counter "curve.msm.terms"

type t = {
  fld : Fp.ctx;
  a : Fp.el;
  b : Fp.el;
  coord_bytes : int;
  has_mont : bool; (* odd characteristic: the Montgomery fast paths apply *)
  ma : M.e Lazy.t; (* curve coefficient a in the Montgomery domain *)
}

type point = Infinity | Affine of Fp.el * Fp.el

let create fld ~a ~b =
  (* Reject singular curves: 4a³ + 27b² ≠ 0. *)
  let disc =
    Fp.add fld
      (Fp.mul fld (Fp.of_int fld 4) (Fp.mul fld a (Fp.sqr fld a)))
      (Fp.mul fld (Fp.of_int fld 27) (Fp.sqr fld b))
  in
  if Fp.is_zero disc then invalid_arg "Curve.create: singular curve";
  let coord_bytes = (Nat.bit_length (Fp.characteristic fld) + 7) / 8 in
  let has_mont = not (Nat.is_even (Fp.characteristic fld)) in
  { fld; a; b; coord_bytes; has_mont; ma = lazy (M.enter fld a) }

let coeff_a c = c.a
let infinity = Infinity

let is_infinity = function Infinity -> true | Affine _ -> false

(* x³ + ax + b *)
let rhs c x =
  let f = c.fld in
  Fp.add f (Fp.mul f x (Fp.add f (Fp.sqr f x) c.a)) c.b

let on_curve c = function
  | Infinity -> true
  | Affine (x, y) -> Fp.equal (Fp.sqr c.fld y) (rhs c x)

let neg c = function
  | Infinity -> Infinity
  | Affine (x, y) -> Affine (x, Fp.neg c.fld y)

let double c p =
  match p with
  | Infinity -> Infinity
  | Affine (x, y) ->
    let f = c.fld in
    if Fp.is_zero y then Infinity
    else begin
      (* λ = (3x² + a) / 2y *)
      let num = Fp.add f (Fp.mul f (Fp.of_int f 3) (Fp.sqr f x)) c.a in
      let lam = Fp.div f num (Fp.double f y) in
      let x3 = Fp.sub f (Fp.sqr f lam) (Fp.double f x) in
      let y3 = Fp.sub f (Fp.mul f lam (Fp.sub f x x3)) y in
      Affine (x3, y3)
    end

let add c p q =
  match p, q with
  | Infinity, r | r, Infinity -> r
  | Affine (x1, y1), Affine (x2, y2) ->
    let f = c.fld in
    if Fp.equal x1 x2 then begin
      if Fp.equal y1 y2 then double c p else Infinity
    end
    else begin
      let lam = Fp.div f (Fp.sub f y2 y1) (Fp.sub f x2 x1) in
      let x3 = Fp.sub f (Fp.sub f (Fp.sqr f lam) x1) x2 in
      let y3 = Fp.sub f (Fp.mul f lam (Fp.sub f x1 x3)) y1 in
      Affine (x3, y3)
    end

(* Jacobian coordinates (X : Y : Z) with x = X/Z², y = Y/Z³; Z = 0
   encodes the point at infinity.  Scalar multiplication runs in
   Jacobian form so that the whole ladder needs a single field
   inversion, instead of one per group operation. *)
type jac = { jx : Fp.el; jy : Fp.el; jz : Fp.el }

let jac_infinity = { jx = Fp.one; jy = Fp.one; jz = Fp.zero }

let point_of_jac c j =
  let f = c.fld in
  if Fp.is_zero j.jz then Infinity
  else begin
    let zinv = Fp.inv f j.jz in
    let zinv2 = Fp.sqr f zinv in
    Affine (Fp.mul f j.jx zinv2, Fp.mul f j.jy (Fp.mul f zinv2 zinv))
  end

(* dbl-2007-bl, valid for any curve coefficient a. *)
let jdouble c j =
  let f = c.fld in
  if Fp.is_zero j.jz || Fp.is_zero j.jy then jac_infinity
  else begin
    let xx = Fp.sqr f j.jx in
    let yy = Fp.sqr f j.jy in
    let yyyy = Fp.sqr f yy in
    let zz = Fp.sqr f j.jz in
    let s =
      Fp.double f
        (Fp.sub f (Fp.sub f (Fp.sqr f (Fp.add f j.jx yy)) xx) yyyy)
    in
    let m =
      Fp.add f
        (Fp.add f (Fp.double f xx) xx)
        (Fp.mul f c.a (Fp.sqr f zz))
    in
    let t = Fp.sub f (Fp.sqr f m) (Fp.double f s) in
    let y3 =
      Fp.sub f
        (Fp.mul f m (Fp.sub f s t))
        (Fp.double f (Fp.double f (Fp.double f yyyy)))
    in
    let z3 = Fp.sub f (Fp.sub f (Fp.sqr f (Fp.add f j.jy j.jz)) yy) zz in
    { jx = t; jy = y3; jz = z3 }
  end

(* madd-2007-bl: mixed addition with an affine second operand. *)
let jadd_mixed c j x2 y2 =
  let f = c.fld in
  if Fp.is_zero j.jz then { jx = x2; jy = y2; jz = Fp.one }
  else begin
    let z1z1 = Fp.sqr f j.jz in
    let u2 = Fp.mul f x2 z1z1 in
    let s2 = Fp.mul f y2 (Fp.mul f j.jz z1z1) in
    if Fp.equal u2 j.jx then begin
      if Fp.equal s2 j.jy then jdouble c j else jac_infinity
    end
    else begin
      let h = Fp.sub f u2 j.jx in
      let hh = Fp.sqr f h in
      let i = Fp.double f (Fp.double f hh) in
      let jj = Fp.mul f h i in
      let r = Fp.double f (Fp.sub f s2 j.jy) in
      let v = Fp.mul f j.jx i in
      let x3 = Fp.sub f (Fp.sub f (Fp.sqr f r) jj) (Fp.double f v) in
      let y3 =
        Fp.sub f
          (Fp.mul f r (Fp.sub f v x3))
          (Fp.double f (Fp.mul f j.jy jj))
      in
      let z3 = Fp.sub f (Fp.sub f (Fp.sqr f (Fp.add f j.jz h)) z1z1) hh in
      { jx = x3; jy = y3; jz = z3 }
    end
  end

(* ------------------------------------------------------------------ *)
(* Montgomery-resident Jacobian machinery: the same dbl-2007-bl /
   madd-2007-bl formulas as above, but over Fp.Mont so every field
   multiplication is a single fused REDC.  All operations here stay
   strict (canonical outputs) because the group law compares
   coordinates for the doubling/inverse cases. *)

type mjac = { mx : M.e; my : M.e; mz : M.e }

let mjac_infinity f = { mx = M.one f; my = M.one f; mz = M.zero f }

let mjdouble f ma j =
  if M.is_zero j.mz || M.is_zero j.my then mjac_infinity f
  else begin
    let xx = M.sqr f j.mx in
    let yy = M.sqr f j.my in
    let yyyy = M.sqr f yy in
    let zz = M.sqr f j.mz in
    let s =
      M.double f (M.sub f (M.sub f (M.sqr f (M.add f j.mx yy)) xx) yyyy)
    in
    let m = M.add f (M.add f (M.double f xx) xx) (M.mul f ma (M.sqr f zz)) in
    let t = M.sub f (M.sqr f m) (M.double f s) in
    let y3 =
      M.sub f
        (M.mul f m (M.sub f s t))
        (M.double f (M.double f (M.double f yyyy)))
    in
    let z3 = M.sub f (M.sub f (M.sqr f (M.add f j.my j.mz)) yy) zz in
    { mx = t; my = y3; mz = z3 }
  end

let mjadd_mixed f ma j x2 y2 =
  if M.is_zero j.mz then { mx = x2; my = y2; mz = M.one f }
  else begin
    let z1z1 = M.sqr f j.mz in
    let u2 = M.mul f x2 z1z1 in
    let s2 = M.mul f y2 (M.mul f j.mz z1z1) in
    if M.equal u2 j.mx then begin
      if M.equal s2 j.my then mjdouble f ma j else mjac_infinity f
    end
    else begin
      let h = M.sub f u2 j.mx in
      let hh = M.sqr f h in
      let i = M.double f (M.double f hh) in
      let jj = M.mul f h i in
      let r = M.double f (M.sub f s2 j.my) in
      let v = M.mul f j.mx i in
      let x3 = M.sub f (M.sub f (M.sqr f r) jj) (M.double f v) in
      let y3 =
        M.sub f (M.mul f r (M.sub f v x3)) (M.double f (M.mul f j.my jj))
      in
      let z3 = M.sub f (M.sub f (M.sqr f (M.add f j.mz h)) z1z1) hh in
      { mx = x3; my = y3; mz = z3 }
    end
  end

let point_of_mjac c j =
  let f = c.fld in
  if M.is_zero j.mz then Infinity
  else begin
    let zi = M.inv f j.mz in
    let zi2 = M.sqr f zi in
    Affine
      ( M.leave f (M.mul f j.mx zi2),
        M.leave f (M.mul f j.my (M.mul f zi2 zi)) )
  end

(* Normalize a batch of Jacobian points to Montgomery affine with one
   shared inversion; infinity entries come back as None. *)
let mjac_batch_affine f jacs =
  let n = Array.length jacs in
  let live = ref [] in
  for i = n - 1 downto 0 do
    if not (M.is_zero jacs.(i).mz) then live := i :: !live
  done;
  let live = Array.of_list !live in
  let zs = Array.map (fun i -> jacs.(i).mz) live in
  let zinvs = if Array.length zs = 0 then [||] else M.batch_inv f zs in
  let out = Array.make n None in
  Array.iteri
    (fun li i ->
      let zi = zinvs.(li) in
      let zi2 = M.sqr f zi in
      out.(i) <-
        Some
          ( M.mul f jacs.(i).mx zi2,
            M.mul f jacs.(i).my (M.mul f zi2 zi) ))
    live;
  out

(* ------------------------------------------------------------------ *)
(* Windowed NAF (w = 5): digits in {0, ±1, ±3, …, ±15}, averaging one
   addition per w+1 doublings versus one per 2 for double-and-add. *)

let wnaf_window = 5

(* Odd multiples P, 3P, …, (2^(w−1) − 1)·P of each base, as
   Montgomery-affine points.  Two shared inversions serve every base:
   one normalizes all the 2P, one all the table entries.  An entry is
   None where a small-order base reaches O mid-chain; when 2P = O (a
   2-torsion base) every odd multiple is P itself. *)
let wnaf_tables f ma ~width bases =
  let size = 1 lsl (width - 2) in
  let doubles =
    Array.map (fun (x, y) -> mjdouble f ma { mx = x; my = y; mz = M.one f }) bases
  in
  let doubles = mjac_batch_affine f doubles in
  let njac =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun b (x, y) ->
              let row = Array.make size { mx = x; my = y; mz = M.one f } in
              (match doubles.(b) with
               | None -> ()
               | Some (tx, ty) ->
                 for i = 1 to size - 1 do
                   row.(i) <- mjadd_mixed f ma row.(i - 1) tx ty
                 done);
              row)
            bases))
  in
  let affs = mjac_batch_affine f njac in
  Array.init (Array.length bases) (fun b -> Array.sub affs (b * size) size)

(* Interleaved (Straus) wNAF ladder: one doubling chain shared by every
   term, plus a mixed addition per non-zero digit of each scalar. *)
let straus c ~width terms =
  let f = c.fld in
  let ma = Lazy.force c.ma in
  let tables =
    wnaf_tables f ma ~width
      (Array.map (fun (_, (x, y)) -> M.enter f x, M.enter f y) terms)
  in
  let digits = Array.map (fun (k, _) -> Nat.wnaf ~width k) terms in
  let len = Array.fold_left (fun m d -> max m (Array.length d)) 0 digits in
  let acc = ref (mjac_infinity f) in
  for i = len - 1 downto 0 do
    acc := mjdouble f ma !acc;
    Array.iteri
      (fun b ds ->
        let d = if i < Array.length ds then ds.(i) else 0 in
        if d <> 0 then
          match tables.(b).((abs d - 1) / 2) with
          | None -> ()
          | Some (tx, ty) ->
            let ty = if d < 0 then M.neg f ty else ty in
            acc := mjadd_mixed f ma !acc tx ty)
      digits
  done;
  point_of_mjac c !acc

let mul_wnaf c k px py =
  Sc_telemetry.Telemetry.incr c_mul_wnaf;
  straus c ~width:wnaf_window [| k, (px, py) |]

let mul c k p =
  match p with
  | Infinity -> Infinity
  | Affine (px, py) ->
    if Nat.is_zero k then Infinity
    else if c.has_mont then mul_wnaf c k px py
    else invalid_arg "Curve.mul: even characteristic"

(* Width 4 minimizes table plus addition cost for the 64- to 160-bit
   scalars the batch verifiers combine with. *)
let msm c terms =
  let live =
    List.filter_map
      (function
        | k, Affine (x, y) when not (Nat.is_zero k) -> Some (k, (x, y))
        | _, (Infinity | Affine _) -> None)
      terms
  in
  match live with
  | [] -> Infinity
  | _ ->
    Sc_telemetry.Telemetry.incr c_msm;
    Sc_telemetry.Telemetry.add c_msm_terms (List.length live);
    straus c ~width:4 (Array.of_list live)

(* ------------------------------------------------------------------ *)
(* Fixed-base comb: table.(w).(d) = d·16^w·P in affine form, so a
   b-bit scalar costs ⌈b/4⌉ mixed additions and zero doublings.  With
   an odd characteristic the tables are Montgomery-resident and built
   with one batched inversion per window (instead of one inversion per
   affine addition); the Barrett variant remains as the fallback. *)
type precomp =
  | Comb_mont of { mbits : int; mtables : (M.e * M.e) option array array }
  | Comb_affine of { bits : int; tables : point array array }

let precompute_affine c ~bits p =
  let nwindows = (bits + 3) / 4 in
  let tables = Array.init nwindows (fun _ -> Array.make 16 Infinity) in
  let base = ref p in
  for w = 0 to nwindows - 1 do
    for d = 1 to 15 do
      tables.(w).(d) <- add c tables.(w).(d - 1) !base
    done;
    (* advance base to 16^(w+1)·P *)
    base := double c (double c (double c (double c !base)))
  done;
  Comb_affine { tables; bits }

let precompute_mont c ~bits p =
  let f = c.fld in
  let ma = Lazy.force c.ma in
  let nwindows = (bits + 3) / 4 in
  let mtables = Array.init nwindows (fun _ -> Array.make 16 None) in
  (match p with
   | Infinity -> ()
   | Affine (x, y) ->
     let bx = ref (M.enter f x) and by = ref (M.enter f y) in
     let exhausted = ref false in
     let w = ref 0 in
     while (not !exhausted) && !w < nwindows do
       (* Window entries d·B in Jacobian via mixed additions of the
          affine base, plus the advanced base 16·B as a 17th entry, all
          normalized by one shared batch inversion. *)
       let jentries = Array.make 17 (mjac_infinity f) in
       for d = 1 to 15 do
         jentries.(d) <- mjadd_mixed f ma jentries.(d - 1) !bx !by
       done;
       let nb = ref jentries.(1) in
       for _ = 1 to 4 do
         nb := mjdouble f ma !nb
       done;
       jentries.(16) <- !nb;
       let affs = mjac_batch_affine f jentries in
       for d = 1 to 15 do
         mtables.(!w).(d) <- affs.(d)
       done;
       (match affs.(16) with
        | Some (nx, ny) ->
          bx := nx;
          by := ny
        | None -> exhausted := true (* 16·B = O: all later windows are O *));
       incr w
     done);
  Comb_mont { mbits = bits; mtables }

let precompute c ~bits p =
  if bits <= 0 then invalid_arg "Curve.precompute: bits <= 0";
  if c.has_mont then precompute_mont c ~bits p else precompute_affine c ~bits p

let comb_digit k w =
  let bit i = if Nat.test_bit k i then 1 else 0 in
  (bit ((4 * w) + 3) lsl 3)
  lor (bit ((4 * w) + 2) lsl 2)
  lor (bit ((4 * w) + 1) lsl 1)
  lor bit (4 * w)

let check_range ~bits k =
  if Nat.bit_length k > bits then
    invalid_arg "Curve.mul_precomp: scalar exceeds precomputed range"

(* Every scalar runs its own Jacobian comb; the Montgomery results are
   then normalized together, so n scalars cost one field inversion. *)
let mul_precomp_batch c pc ks =
  match pc with
  | Comb_mont { mbits; mtables } ->
    Array.iter (check_range ~bits:mbits) ks;
    let f = c.fld in
    let ma = Lazy.force c.ma in
    let comb k =
      let acc = ref (mjac_infinity f) in
      for w = 0 to Array.length mtables - 1 do
        let d = comb_digit k w in
        if d <> 0 then begin
          match mtables.(w).(d) with
          | None -> ()
          | Some (x, y) -> acc := mjadd_mixed f ma !acc x y
        end
      done;
      !acc
    in
    Array.map
      (function
        | None -> Infinity
        | Some (x, y) -> Affine (M.leave f x, M.leave f y))
      (mjac_batch_affine f (Array.map comb ks))
  | Comb_affine { bits; tables } ->
    Array.iter (check_range ~bits) ks;
    let comb k =
      let acc = ref jac_infinity in
      for w = 0 to Array.length tables - 1 do
        let d = comb_digit k w in
        if d <> 0 then begin
          match tables.(w).(d) with
          | Infinity -> ()
          | Affine (x, y) -> acc := jadd_mixed c !acc x y
        end
      done;
      point_of_jac c !acc
    in
    Array.map comb ks

let mul_precomp c pc k = (mul_precomp_batch c pc [| k |]).(0)

let lift_x c x =
  match Fp.sqrt c.fld (rhs c x) with
  | None -> None
  | Some y ->
    (* Pick the root with even least-significant bit for determinism. *)
    let y = if Nat.test_bit (Fp.to_nat y) 0 then Fp.neg c.fld y else y in
    Some (Affine (x, y))

let random c ~bytes_source =
  let rec draw () =
    let x = Fp.random c.fld ~bytes_source in
    match lift_x c x with
    | Some (Affine (_, y) as pt) ->
      (* Use one extra random bit to pick the sign of y. *)
      let flip = Char.code (bytes_source 1).[0] land 1 = 1 in
      if flip then Affine (x, Fp.neg c.fld y) else pt
    | Some Infinity | None -> draw ()
  in
  draw ()

let to_bytes c = function
  | Infinity -> "\x00"
  | Affine (x, y) ->
    let n = c.coord_bytes in
    "\x04"
    ^ Nat.to_bytes_be ~len:n (Fp.to_nat x)
    ^ Nat.to_bytes_be ~len:n (Fp.to_nat y)

let of_bytes c s =
  let n = c.coord_bytes in
  if s = "\x00" then Some Infinity
  else if String.length s = (2 * n) + 1 && s.[0] = '\x04' then begin
    let x = Nat.of_bytes_be (String.sub s 1 n) in
    let y = Nat.of_bytes_be (String.sub s (n + 1) n) in
    let p = Fp.characteristic c.fld in
    if Nat.compare x p >= 0 || Nat.compare y p >= 0 then None
    else begin
      let pt = Affine (x, y) in
      if on_curve c pt then Some pt else None
    end
  end
  else None
