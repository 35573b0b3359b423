open Sc_bignum
open Sc_field

let c_mul_wnaf = Sc_telemetry.Telemetry.counter "curve.mul.wnaf"
let c_msm = Sc_telemetry.Telemetry.counter "curve.msm"
let c_msm_terms = Sc_telemetry.Telemetry.counter "curve.msm.terms"
let c_inv = Sc_telemetry.Telemetry.counter "curve.inv"

(* [x] after counting the field inversion that computed it. *)
let inverted x =
  Sc_telemetry.Telemetry.incr c_inv;
  x

type t = { fld : Fp.ctx; coord_bytes : int }

type point = Infinity | Affine of Fp.el * Fp.el

(* The discriminant of y² = x³ + x, −16·(4·1³ + 27·0²) = −64,
   vanishes in characteristic 2 only, which {!Fp.create} rejects. *)
let create fld =
  { fld; coord_bytes = (Nat.bit_length (Fp.characteristic fld) + 7) / 8 }

let is_infinity = function Infinity -> true | Affine _ -> false

(* x³ + x *)
let rhs c x =
  let f = c.fld in
  Fp.mul f x (Fp.add f (Fp.sqr f x) (Fp.one f))

let on_curve c = function
  | Infinity -> true
  | Affine (x, y) -> Fp.equal (Fp.sqr c.fld y) (rhs c x)

let neg c = function
  | Infinity -> Infinity
  | Affine (x, y) -> Affine (x, Fp.neg c.fld y)

(* ------------------------------------------------------------------ *)
(* The group law, in Jacobian coordinates (X : Y : Z) with x = X/Z²,
   y = Y/Z³; Z = 0 encodes the point at infinity.  Every sum of points
   runs in this form and is normalized once, or in one batch, so it
   pays one field inversion, not one per group operation.  The formulas are
   dbl-2007-bl and madd-2007-bl, with the curve coefficient a = 1.
   All operations here stay strict (canonical outputs) because the
   group law compares coordinates for the doubling/inverse cases. *)

type mjac = { mx : Fp.el; my : Fp.el; mz : Fp.el }

let mjac_infinity f = { mx = Fp.one f; my = Fp.one f; mz = Fp.zero f }

let mjdouble f j =
  if Fp.is_zero j.mz || Fp.is_zero j.my then mjac_infinity f
  else begin
    let xx = Fp.sqr f j.mx in
    let yy = Fp.sqr f j.my in
    let yyyy = Fp.sqr f yy in
    let zz = Fp.sqr f j.mz in
    let s =
      Fp.double f (Fp.sub f (Fp.sub f (Fp.sqr f (Fp.add f j.mx yy)) xx) yyyy)
    in
    let m = Fp.add f (Fp.add f (Fp.double f xx) xx) (Fp.sqr f zz) in
    let t = Fp.sub f (Fp.sqr f m) (Fp.double f s) in
    let y3 =
      Fp.sub f
        (Fp.mul f m (Fp.sub f s t))
        (Fp.double f (Fp.double f (Fp.double f yyyy)))
    in
    let z3 = Fp.sub f (Fp.sub f (Fp.sqr f (Fp.add f j.my j.mz)) yy) zz in
    { mx = t; my = y3; mz = z3 }
  end

(* j + (x2, y2), or j + (x2, −y2) when [neg], without computing −y2:
   negating y2 negates s2, so r = 2·(−s2 − Y1) = −2·(s2 + Y1), which
   squares to the same x3, and y3 = r·(V − x3) − 2·Y1·J takes the sign
   as 2·(s2 + Y1)·(x3 − V). *)
let mjadd_mixed f j x2 y2 ~neg =
  if Fp.is_zero j.mz then
    { mx = x2; my = (if neg then Fp.neg f y2 else y2); mz = Fp.one f }
  else begin
    let z1z1 = Fp.sqr f j.mz in
    let u2 = Fp.mul f x2 z1z1 in
    let s2 = Fp.mul f y2 (Fp.mul f j.mz z1z1) in
    if Fp.equal u2 j.mx then begin
      if Fp.equal (if neg then Fp.neg f s2 else s2) j.my then mjdouble f j
      else mjac_infinity f
    end
    else begin
      let h = Fp.sub f u2 j.mx in
      let hh = Fp.sqr f h in
      let i = Fp.double f (Fp.double f hh) in
      let jj = Fp.mul f h i in
      let r = Fp.double f (if neg then Fp.add f s2 j.my else Fp.sub f s2 j.my) in
      let v = Fp.mul f j.mx i in
      let x3 = Fp.sub f (Fp.sub f (Fp.sqr f r) jj) (Fp.double f v) in
      let y3 =
        Fp.sub f
          (Fp.mul f r (if neg then Fp.sub f x3 v else Fp.sub f v x3))
          (Fp.double f (Fp.mul f j.my jj))
      in
      let z3 = Fp.sub f (Fp.sub f (Fp.sqr f (Fp.add f j.mz h)) z1z1) hh in
      { mx = x3; my = y3; mz = z3 }
    end
  end

let point_of_mjac c j =
  let f = c.fld in
  if Fp.is_zero j.mz then Infinity
  else begin
    let zi = inverted (Fp.inv f j.mz) in
    let zi2 = Fp.sqr f zi in
    Affine (Fp.mul f j.mx zi2, Fp.mul f j.my (Fp.mul f zi2 zi))
  end

(* Normalize a batch of Jacobian points to affine with one shared
   inversion; infinity entries come back as None. *)
let mjac_batch_affine f jacs =
  let n = Array.length jacs in
  let live = ref [] in
  for i = n - 1 downto 0 do
    if not (Fp.is_zero jacs.(i).mz) then live := i :: !live
  done;
  let live = Array.of_list !live in
  let zs = Array.map (fun i -> jacs.(i).mz) live in
  let zinvs =
    if Array.length zs = 0 then [||] else inverted (Fp.batch_inv f zs)
  in
  let out = Array.make n None in
  Array.iteri
    (fun li i ->
      let zi = zinvs.(li) in
      let zi2 = Fp.sqr f zi in
      out.(i) <-
        Some
          ( Fp.mul f jacs.(i).mx zi2,
            Fp.mul f jacs.(i).my (Fp.mul f zi2 zi) ))
    live;
  out

(* ------------------------------------------------------------------ *)
(* Windowed NAF: digits in {0, ±1, ±3, …, ±(2^(w−1) − 1)}, averaging
   one addition per w+1 doublings versus one per 2 for
   double-and-add.  [msm] runs it over several bases at once. *)

(* Odd multiples P, 3P, …, (2^(w−1) − 1)·P of each base, as affine
   points.  Two shared inversions serve every base:
   one normalizes all the 2P, one all the table entries.  An entry is
   None where a small-order base reaches O mid-chain; when 2P = O (a
   2-torsion base) every odd multiple is P itself. *)
let wnaf_tables f ~width bases =
  let size = 1 lsl (width - 2) in
  let doubles =
    Array.map (fun (x, y) -> mjdouble f { mx = x; my = y; mz = Fp.one f }) bases
  in
  let doubles = mjac_batch_affine f doubles in
  let njac =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun b (x, y) ->
              let row = Array.make size { mx = x; my = y; mz = Fp.one f } in
              (match doubles.(b) with
               | None -> ()
               | Some (tx, ty) ->
                 for i = 1 to size - 1 do
                   row.(i) <- mjadd_mixed f row.(i - 1) tx ty ~neg:false
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
  let tables = wnaf_tables f ~width (Array.map snd terms) in
  let digits = Array.map (fun (k, _) -> Nat.wnaf ~width k) terms in
  let len = Array.fold_left (fun m d -> max m (Array.length d)) 0 digits in
  let acc = ref (mjac_infinity f) in
  for i = len - 1 downto 0 do
    acc := mjdouble f !acc;
    Array.iteri
      (fun b ds ->
        let d = if i < Array.length ds then ds.(i) else 0 in
        if d <> 0 then
          match tables.(b).((abs d - 1) / 2) with
          | None -> ()
          | Some (tx, ty) -> acc := mjadd_mixed f !acc tx ty ~neg:(d < 0))
      digits
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Single-scalar multiplication by Montgomery's x-only ladder.
   y² = x³ + x is a Montgomery curve B·y² = x³ + A·x² + x with A = 0
   and B = 1, so on projective x-coordinates (X : Z) each scalar bit
   costs one differential addition and one doubling, 4 squarings and
   5 multiplications in all:

     R1 <- R0 + R1 = ((DA + CB)² : x_P·(DA − CB)²)   (R1 − R0 = P)
     R0 <- 2·R0    = (2·AA·BB : (AA − BB)·(AA + BB))

   with A = X0 + Z0, B = X0 − Z0, C = X1 + Z1, D = X1 − Z1, AA = A²,
   BB = B².  The doubling is Montgomery's (AA·BB : E·(BB + a24·E)),
   E = AA − BB, with a24 = (A + 2)/4 = 1/2 absorbed by scaling both
   coordinates by 2, since E·(BB + E/2) = E·(AA + BB)/2.  Which of
   R0, R1 is doubled follows the scalar bit through [Fp.cswap], a
   masked exchange, so the sequence of field operations and the
   allocation depend on the scalar's bit length only.

   The differential addition divides by x_P, so a base with y = 0 (of
   order 2: (0, 0) is the only one when p ≡ 3 mod 4) is handled
   before the ladder; O and k = 0 are too. *)

(* (k·P, (k+1)·P) as (X : Z) pairs, x_P the base's x. *)
let ladder f xp k =
  let x0 = ref (Fp.one f) and z0 = ref (Fp.zero f) in
  let x1 = ref xp and z1 = ref (Fp.one f) in
  let swap = ref 0 in
  for i = Nat.bit_length k - 1 downto 0 do
    let bit = Bool.to_int (Nat.test_bit k i) in
    let x0', x1' = Fp.cswap (!swap lxor bit) !x0 !x1 in
    let z0', z1' = Fp.cswap (!swap lxor bit) !z0 !z1 in
    swap := bit;
    let a = Fp.add_lazy f x0' z0' and b = Fp.sub_lazy f x0' z0' in
    let c = Fp.add_lazy f x1' z1' and d = Fp.sub_lazy f x1' z1' in
    let aa = Fp.sqr f a and bb = Fp.sqr f b in
    let da = Fp.mul f d a and cb = Fp.mul f c b in
    x1 := Fp.sqr f (Fp.add_lazy f da cb);
    z1 := Fp.mul f xp (Fp.sqr f (Fp.sub_lazy f da cb));
    x0 := Fp.double f (Fp.mul f aa bb);
    z0 := Fp.mul f (Fp.sub_lazy f aa bb) (Fp.add_lazy f aa bb)
  done;
  let x0, x1 = Fp.cswap !swap !x0 !x1 in
  let z0, z1 = Fp.cswap !swap !z0 !z1 in
  (x0, z0), (x1, z1)

let mul c k p =
  match p with
  | Infinity -> Infinity
  | Affine _ when Nat.is_zero k -> Infinity
  | Affine (px, py) ->
    Sc_telemetry.Telemetry.incr c_mul_wnaf;
    if Fp.is_zero py then if Nat.is_even k then Infinity else p
    else begin
      let f = c.fld in
      let (x, z), (x', z') = ladder f px k in
      if Fp.is_zero z then Infinity
      else if Fp.is_zero z' then Affine (px, Fp.neg f py) (* k·P = −P *)
      else begin
        (* Okeya–Sakurai: with Q = k·P = (X : Z) and Q + P = (X' : Z'),
           y_Q = ((x_P·X + Z)(X + x_P·Z)·Z' − (X − x_P·Z)²·X')
                 / (2·y_P·Z²·Z'),
           and one inversion of that denominator gives x_Q too. *)
        let pz = Fp.mul f px z in
        let num =
          Fp.sub f
            (Fp.mul f
               (Fp.mul f (Fp.add_lazy f (Fp.mul f px x) z) (Fp.add_lazy f x pz))
               z')
            (Fp.mul f (Fp.sqr f (Fp.sub_lazy f x pz)) x')
        in
        let w = Fp.mul f (Fp.double f (Fp.mul f py z)) z' in
        let d = inverted (Fp.inv f (Fp.mul f w z)) in
        Affine (Fp.mul f (Fp.mul f w x) d, Fp.mul f num d)
      end
    end

let mul_is_infinity c k p =
  match p with
  | Infinity -> true
  | Affine _ when Nat.is_zero k -> true
  | Affine (px, py) ->
    Sc_telemetry.Telemetry.incr c_mul_wnaf;
    if Fp.is_zero py then Nat.is_even k
    else
      let (_, z), _ = ladder c.fld px k in
      Fp.is_zero z

(* ------------------------------------------------------------------ *)
(* Fixed-base comb over signed 4-bit digits.  A scalar below 2^bits is
   recoded as k = Σ d_w·16^w with d_w ∈ [−8, 7], over ⌈bits/4⌉
   windows and one more that takes the last carry (its digit is 0 or
   1).  table.(w).(|d| − 1) = |d|·16^w·P in affine form, 8
   entries per window and 1 in the carry window, so a b-bit scalar
   costs at most ⌈b/4⌉ + 1 mixed additions, a negative digit negating
   y, and zero doublings. *)
type precomp = { bits : int; tables : (Fp.el * Fp.el) option array array }

let precompute c ~bits p =
  if bits <= 0 then invalid_arg "Curve.precompute: bits <= 0";
  let f = c.fld in
  match p with
  | Infinity -> { bits; tables = [||] } (* k·O = O: no window adds *)
  | Affine (x, y) ->
    let nwindows = ((bits + 3) / 4) + 1 in
    (* d·B_w for d = 2…8, every window but the carry window's. *)
    let jmults = Array.make ((nwindows - 1) * 7) (mjac_infinity f) in
    let slot w d = (w * 7) + d - 2 in
    (* The window bases B_w = 16^w·P: one Jacobian doubling chain,
       which passes 2·B_w, 4·B_w and 8·B_w on its way to B_(w+1),
       normalized by one batch inversion.  Once a small-order base
       reaches O, every later B_w is O too, and None. *)
    let jbases =
      Array.make nwindows { mx = x; my = y; mz = Fp.one f }
    in
    for w = 0 to nwindows - 2 do
      let b = ref jbases.(w) in
      for e = 1 to 3 do
        b := mjdouble f !b;
        jmults.(slot w (1 lsl e)) <- !b
      done;
      jbases.(w + 1) <- mjdouble f !b
    done;
    let bases = mjac_batch_affine f jbases in
    (* 3·B_w, 5·B_w, 6·B_w and 7·B_w by mixed additions of the affine
       B_w to 2·B_w, 4·B_w, 5·B_w and (negated) 8·B_w, then every
       multiple normalized by a second batch inversion; one that is O
       (small-order B_w) comes back None. *)
    for w = 0 to nwindows - 2 do
      match bases.(w) with
      | None -> ()
      | Some (bx, by) ->
        let add d e ~neg =
          jmults.(slot w d) <- mjadd_mixed f jmults.(slot w e) bx by ~neg
        in
        add 3 2 ~neg:false;
        add 5 4 ~neg:false;
        add 6 5 ~neg:false;
        add 7 8 ~neg:true
    done;
    let mults = mjac_batch_affine f jmults in
    {
      bits;
      tables =
        Array.init nwindows (fun w ->
            if w = nwindows - 1 then [| bases.(w) |]
            else
              Array.init 8 (fun i ->
                  if i = 0 then bases.(w) else mults.(slot w (i + 1))));
    }

(* The unsigned nibble of window w. *)
let nibble k w =
  let i = 4 * w in
  Bool.to_int (Nat.test_bit k i)
  lor (Bool.to_int (Nat.test_bit k (i + 1)) lsl 1)
  lor (Bool.to_int (Nat.test_bit k (i + 2)) lsl 2)
  lor (Bool.to_int (Nat.test_bit k (i + 3)) lsl 3)

let check_range pc k =
  if Nat.bit_length k > pc.bits then
    invalid_arg "Curve.mul_precomp: scalar exceeds precomputed range"

(* acc + k·B on a Jacobian accumulator: one mixed addition per
   non-zero signed digit, recoded on the fly: nibble plus carry, in
   [0, 16], is a digit in [−8, 7] and a carry of 0 or 1 into the next
   window.  Starting from a point other than O fuses that addition
   into the comb, with no normalization of its own. *)
let comb_into f pc acc k =
  let acc = ref acc and carry = ref 0 in
  for w = 0 to Array.length pc.tables - 1 do
    let u = nibble k w + !carry in
    carry := if u >= 8 then 1 else 0;
    let d = u - (!carry * 16) in
    if d <> 0 then begin
      match pc.tables.(w).(abs d - 1) with
      | None -> ()
      | Some (x, y) -> acc := mjadd_mixed f !acc x y ~neg:(d < 0)
    end
  done;
  !acc

let mjac_of_point f = function
  | Infinity -> mjac_infinity f
  | Affine (x, y) -> { mx = x; my = y; mz = Fp.one f }

(* Every row runs its own Jacobian comb from its start point; the
   results are then normalized together, so n rows cost one field
   inversion. *)
let add_mul_precomp_batch c rows =
  Array.iter (fun (_, pc, k) -> check_range pc k) rows;
  let f = c.fld in
  Array.map
    (function None -> Infinity | Some (x, y) -> Affine (x, y))
    (mjac_batch_affine f
       (Array.map
          (fun (p, pc, k) -> comb_into f pc (mjac_of_point f p) k)
          rows))

let mul_precomp_batch c pc ks =
  add_mul_precomp_batch c (Array.map (fun k -> Infinity, pc, k) ks)

let mul_precomp c pc k = (mul_precomp_batch c pc [| k |]).(0)

(* Width 4 minimizes table plus addition cost for the 64- to 160-bit
   scalars the batch verifiers combine with.  The [fixed] terms run
   their combs on the ladder's Jacobian accumulator, so the whole sum
   pays one inversion. *)
let msm c ?(fixed = []) terms =
  List.iter (fun (pc, k) -> check_range pc k) fixed;
  let live =
    List.filter_map
      (function
        | k, Affine (x, y) when not (Nat.is_zero k) -> Some (k, (x, y))
        | _, (Infinity | Affine _) -> None)
      terms
  in
  match live, fixed with
  | [], [] -> Infinity
  | _ ->
    let f = c.fld in
    let acc =
      match live with
      | [] -> mjac_infinity f
      | _ ->
        Sc_telemetry.Telemetry.incr c_msm;
        Sc_telemetry.Telemetry.add c_msm_terms (List.length live);
        straus c ~width:4 (Array.of_list live)
    in
    point_of_mjac c
      (List.fold_left (fun acc (pc, k) -> comb_into f pc acc k) acc fixed)

let lift_x c x =
  match Fp.sqrt c.fld (rhs c x) with
  | None -> None
  | Some y ->
    (* Pick the root with even least-significant bit for determinism. *)
    let y = if Nat.test_bit (Fp.to_nat c.fld y) 0 then Fp.neg c.fld y else y in
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
    ^ Nat.to_bytes_be ~len:n (Fp.to_nat c.fld x)
    ^ Nat.to_bytes_be ~len:n (Fp.to_nat c.fld y)

let of_bytes c s =
  let n = c.coord_bytes in
  if s = "\x00" then Some Infinity
  else if String.length s = (2 * n) + 1 && s.[0] = '\x04' then begin
    let x = Nat.of_bytes_be (String.sub s 1 n) in
    let y = Nat.of_bytes_be (String.sub s (n + 1) n) in
    let p = Fp.characteristic c.fld in
    if Nat.compare x p >= 0 || Nat.compare y p >= 0 then None
    else begin
      let pt = Affine (Fp.of_nat c.fld x, Fp.of_nat c.fld y) in
      if on_curve c pt then Some pt else None
    end
  end
  else None
