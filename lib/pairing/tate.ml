open Sc_bignum
open Sc_field
open Sc_ec
module Telemetry = Sc_telemetry.Telemetry

(* Registry counters: the evaluation section compares schemes by
   pairing counts, so every Miller-loop entry point keeps a tally.
   [pairing.count] counts pairing *equations* — a multi-pairing runs
   one Miller chain and one final exponentiation, so it counts once
   however many terms it multiplies. *)
let c_pairings = Telemetry.counter "pairing.count"
let c_single = Telemetry.counter "pairing.single"
let c_multi = Telemetry.counter "pairing.multi"
let c_multi_terms = Telemetry.counter "pairing.multi_terms"
let c_final_expo = Telemetry.counter "pairing.final_expo"
let c_gt_pow = Telemetry.counter "pairing.gt_pow"
let c_gt_comb_build = Telemetry.counter "pairing.gt_comb_build"
let c_gt_comb_exp = Telemetry.counter "pairing.gt_comb_exp"
let c_gt_member = Telemetry.counter "pairing.gt_member"
let c_gt_multi_exp = Telemetry.counter "pairing.gt_multi_exp"
let c_gt_multi_exp_terms = Telemetry.counter "pairing.gt_multi_exp_terms"

type gt = Fp2.el

let gt_one = Fp2.one
let gt_is_one = Fp2.is_one
let gt_equal = Fp2.equal
let gt_mul (prm : Params.t) a b = Fp2.mul prm.fp a b

(* Membership in the unitary (norm-1) subgroup of F_p²* — where every
   honest GT element lives after the final exponentiation. *)
let gt_is_unitary (prm : Params.t) a = Fp.equal (Fp2.norm prm.fp a) Fp.one

(* Conjugation inverts only unitary elements — true of every value
   that went through the final exponentiation, but not of arbitrary
   F_p² values (e.g. decoded, possibly mauled wire bytes).  Take the
   cheap conjugation exactly when the subgroup fast path applies and
   fall back to a full inversion, so the function is a total inverse
   either way. *)
let gt_inv (prm : Params.t) a =
  if gt_is_unitary prm a then Fp2.conj prm.fp a else Fp2.inv prm.fp a

(* --- Montgomery-domain projective Miller machinery ----------------

   The hot path lives entirely on Montgomery-resident elements
   ({!Fp.Mont.e} / {!Fp2.Mont.e}): inputs are converted once on entry,
   every Miller-loop and final-exponentiation multiplication is a
   single fused REDC, and the result is converted back once at the
   end.

   T is tracked in Jacobian coordinates (x = X/Z², y = Y/Z³), and
   every line function is scaled by an F_p* factor (2YZ³ for tangents,
   V·Z for chords) that the final exponentiation annihilates — so the
   whole loop is inversion-free.

   Tangent at T evaluated at φ(Q) = (−x_q, i·y_q), scaled by 2YZ³:
     re = M·(X + x_q·Z²) − 2Y²,   im = 2Y·Z³·y_q,
   with M = 3X² + a·Z⁴.  Chord through T and the affine P, scaled by
   V·Z with U = y_p·Z³ − Y, V = x_p·Z² − X:
     re = U·(x_q + x_p) − V·Z·y_p,   im = V·Z·y_q. *)

module FpM = Fp.Mont
module F2M = Fp2.Mont

(* GT exponentiation runs in the Montgomery domain like the Miller
   loop: one conversion each way around a square-and-multiply whose
   every product is a single fused REDC — several times faster than
   [Fp2.pow]'s Barrett reductions, with the same result. *)
let gt_pow (prm : Params.t) a e =
  Telemetry.incr c_gt_pow;
  F2M.leave prm.fp (F2M.pow prm.fp (F2M.enter prm.fp a) e)

(* Fixed-base Lim–Lee comb of height h = 4.  An exponent of at most
   h·d bits, d = ⌈bit_length q / h⌉, is read as h rows of d bits:
   e = Σ_k e_k·2^(k·d).  Entry j of the table is
   Π_(bit k of j set) a^(2^(k·d)), with entry 0 = 1, so column c of
   the exponent (bit c of every row) picks one entry, and
   a^e = Π_c T[j_c]^(2^c) costs d squarings and d multiplications —
   against bit_length q squarings for square-and-multiply.  Every
   column squares and multiplies, including by T[0] = 1, and reads the
   table by a full masked scan ({!Fp2.Mont.select}), so neither the
   operation sequence nor the memory trace depends on the exponent. *)
let comb_height = 4

type gt_comb = { cols : int; table : F2M.table }

let gt_comb (prm : Params.t) a =
  Telemetry.incr c_gt_comb_build;
  let fp = prm.fp in
  let cols = (Nat.bit_length prm.q + comb_height - 1) / comb_height in
  let table = Array.make (1 lsl comb_height) (F2M.one fp) in
  let row = ref (F2M.enter fp a) in
  for k = 0 to comb_height - 1 do
    if k > 0 then
      for _ = 1 to cols do
        row := F2M.sqr fp !row
      done;
    let bit = 1 lsl k in
    table.(bit) <- !row;
    for j = 1 to bit - 1 do
      table.(bit lor j) <- F2M.mul fp table.(j) !row
    done
  done;
  { cols; table = F2M.table table }

let gt_comb_exp (prm : Params.t) { cols; table } e =
  if Nat.bit_length e > comb_height * cols then
    invalid_arg "Tate.gt_comb_exp: exponent wider than the comb";
  Telemetry.incr c_gt_comb_exp;
  let fp = prm.fp in
  let acc = ref (F2M.one fp) in
  for c = cols - 1 downto 0 do
    let j = ref 0 in
    for k = comb_height - 1 downto 0 do
      j := (!j lsl 1) lor Bool.to_int (Nat.test_bit e ((k * cols) + c))
    done;
    acc := F2M.mul fp (F2M.sqr fp !acc) (F2M.select table !j)
  done;
  F2M.leave fp !acc

(* GT is the order-q subgroup of the unitary group, whose order is
   p + 1 = c·q.  A unitary a is a root of x² − t·x + 1 with trace
   t = 2·re(a), so the Lucas sequence V_k = a^k + a^(−k) over F_p,
   run as a ladder on (V_k, V_(k+1)) with V_2k = V_k² − 2 and
   V_(2k+1) = V_k·V_(k+1) − t, gives V_q = 2 exactly when a^q = 1: one
   F_p square and one product per bit of q, where an F_p² square and
   multiply would cost several. *)
let gt_in_group (prm : Params.t) a =
  Telemetry.incr c_gt_member;
  gt_is_unitary prm a
  &&
  let fp = prm.fp in
  let two = FpM.of_int fp 2 in
  let t = FpM.enter fp (Fp.double fp a.Fp2.re) in
  let v0 = ref two and v1 = ref t in
  for i = Nat.bit_length prm.q - 1 downto 0 do
    let mid = FpM.sub fp (FpM.mul fp !v0 !v1) t in
    if Nat.test_bit prm.q i then begin
      v0 := mid;
      v1 := FpM.sub fp (FpM.sqr fp !v1) two
    end
    else begin
      v0 := FpM.sub fp (FpM.sqr fp !v0) two;
      v1 := mid
    end
  done;
  FpM.equal !v0 two

(* Simultaneous width-4 wNAF exponentiation: one squaring chain as long
   as the widest exponent, and per base the odd powers a, a³, a⁵, a⁷.
   Negative digits multiply by conjugates, which invert unitary bases
   only — hence the precondition. *)
let gt_multi_exp (prm : Params.t) terms =
  let fp = prm.fp in
  if not (List.for_all (fun (a, _) -> gt_is_unitary prm a) terms) then
    invalid_arg "Tate.gt_multi_exp: base not unitary";
  Telemetry.incr c_gt_multi_exp;
  Telemetry.add c_gt_multi_exp_terms (List.length terms);
  let width = 4 in
  let powers =
    Array.of_list
      (List.map
         (fun (a, e) ->
           let a = F2M.enter fp a in
           let a2 = F2M.sqr fp a in
           let odd = Array.make (1 lsl (width - 2)) a in
           for i = 1 to Array.length odd - 1 do
             odd.(i) <- F2M.mul fp odd.(i - 1) a2
           done;
           odd, Array.map (F2M.conj fp) odd, Nat.wnaf ~width e)
         terms)
  in
  let len = Array.fold_left (fun m (_, _, d) -> max m (Array.length d)) 0 powers in
  let acc = ref (F2M.one fp) in
  for i = len - 1 downto 0 do
    acc := F2M.sqr fp !acc;
    Array.iter
      (fun (odd, inv, ds) ->
        let d = if i < Array.length ds then ds.(i) else 0 in
        if d > 0 then acc := F2M.mul fp !acc odd.((d - 1) / 2)
        else if d < 0 then acc := F2M.mul fp !acc inv.((-d - 1) / 2))
      powers
  done;
  F2M.leave fp !acc

(* Per-pair Miller state: fixed affine inputs plus the running
   Jacobian T.  Several states can share one f-squaring chain — that
   is exactly what {!multi_pairing} does. *)
type mstate = {
  px : FpM.e;
  py : FpM.e;
  xq : FpM.e;
  yq : FpM.e;
  mutable tx : FpM.e;
  mutable ty : FpM.e;
  mutable tz : FpM.e;
  mutable inf : bool;
}

let mstate fp px py xq yq =
  let pxm = FpM.enter fp px and pym = FpM.enter fp py in
  {
    px = pxm;
    py = pym;
    xq = FpM.enter fp xq;
    yq = FpM.enter fp yq;
    tx = pxm;
    ty = pym;
    tz = FpM.one fp;
    inf = false;
  }

(* Tangent step: multiply the line at T into f and double T. *)
let dbl_step fp am st f =
  if st.inf then f
  else if FpM.is_zero st.ty then begin
    (* Vertical tangent: contributes an eliminated F_p factor only. *)
    st.inf <- true;
    f
  end
  else begin
    let x = st.tx and y = st.ty and z = st.tz in
    let xx = FpM.sqr fp x in
    let yy = FpM.sqr fp y in
    let zz = FpM.sqr fp z in
    (* M = 3X² + aZ⁴ stays lazy (< 4m): it only ever feeds
       multiplications, which REDC re-canonicalizes. *)
    let m =
      FpM.add_lazy fp
        (FpM.add_lazy fp (FpM.double fp xx) xx)
        (FpM.mul fp am (FpM.sqr fp zz))
    in
    (* Line first (it needs the old X, Y, Z). *)
    let two_yy = FpM.double fp yy in
    let re =
      FpM.sub fp
        (FpM.mul fp m (FpM.add_lazy fp x (FpM.mul fp st.xq zz)))
        two_yy
    in
    let z3 = FpM.double fp (FpM.mul fp y z) in
    let im = FpM.mul fp (FpM.mul fp z3 zz) st.yq in
    let f = F2M.mul fp f (F2M.make re im) in
    (* dbl: S = 4XY², X3 = M² − 2S, Y3 = M(S − X3) − 8Y⁴. *)
    let s = FpM.double fp (FpM.double fp (FpM.mul fp x yy)) in
    let x3 = FpM.sub fp (FpM.sqr fp m) (FpM.double fp s) in
    let y3 =
      FpM.sub fp
        (FpM.mul fp m (FpM.sub fp s x3))
        (FpM.double fp (FpM.double fp (FpM.double fp (FpM.sqr fp yy))))
    in
    st.tx <- x3;
    st.ty <- y3;
    st.tz <- z3;
    f
  end

(* Chord step: multiply the line through T and P into f, T <- T + P. *)
let add_step fp am st f =
  if st.inf then f
  else begin
    let x = st.tx and y = st.ty and z = st.tz in
    let zz = FpM.sqr fp z in
    let u = FpM.sub fp (FpM.mul fp st.py (FpM.mul fp z zz)) y in
    let v = FpM.sub fp (FpM.mul fp st.px zz) x in
    if FpM.is_zero v then begin
      if FpM.is_zero u then
        (* T = P: tangent step (cannot happen for a prime-order Miller
           loop, but stay total). *)
        dbl_step fp am st f
      else begin
        (* Vertical chord: eliminated factor, T becomes O. *)
        st.inf <- true;
        f
      end
    end
    else begin
      let vz = FpM.mul fp v z in
      let re =
        FpM.sub fp
          (FpM.mul fp u (FpM.add_lazy fp st.xq st.px))
          (FpM.mul fp vz st.py)
      in
      let im = FpM.mul fp vz st.yq in
      let f = F2M.mul fp f (F2M.make re im) in
      (* madd: X3 = U² − V³ − 2V²X, Y3 = U(V²X − X3) − V³Y, Z3 = VZ. *)
      let vv = FpM.sqr fp v in
      let vvv = FpM.mul fp vv v in
      let vvx = FpM.mul fp vv x in
      let x3 = FpM.sub fp (FpM.sub fp (FpM.sqr fp u) vvv) (FpM.double fp vvx) in
      let y3 =
        FpM.sub fp (FpM.mul fp u (FpM.sub fp vvx x3)) (FpM.mul fp vvv y)
      in
      st.tx <- x3;
      st.ty <- y3;
      st.tz <- vz;
      f
    end
  end

(* One Miller loop shared by any number of pair states: f is squared
   once per exponent bit regardless of how many pairs ride along, so a
   k-term product pays one squaring chain instead of k. *)
let miller_shared (prm : Params.t) states =
  let fp = prm.fp in
  let am = FpM.enter fp (Curve.coeff_a prm.curve) in
  let f = ref (F2M.one fp) in
  let nbits = Nat.bit_length prm.q in
  for i = nbits - 2 downto 0 do
    f := F2M.sqr fp !f;
    Array.iter (fun st -> f := dbl_step fp am st !f) states;
    if Nat.test_bit prm.q i then
      Array.iter (fun st -> f := add_step fp am st !f) states
  done;
  !f

let miller_projective prm px py xq yq =
  miller_shared prm [| mstate prm.fp px py xq yq |]

(* f^((p² − 1)/q) = (f^(p−1))^c = (conj(f)·f⁻¹)^c, using that
   conjugation is the p-power Frobenius when p ≡ 3 (mod 4). *)
let final_expo_mont (prm : Params.t) f =
  Telemetry.incr c_final_expo;
  let fp = prm.fp in
  let g = F2M.mul fp (F2M.conj fp f) (F2M.inv fp f) in
  F2M.pow fp g prm.cofactor

(* Thin shims over the [pairing.count] registry counter, kept so
   existing callers (tests, repro, bench) need no change. *)
let pairings_performed () = Telemetry.value c_pairings
let reset_pairing_count () = Telemetry.reset_counter c_pairings

let pairing prm p q =
  Telemetry.incr c_pairings;
  Telemetry.incr c_single;
  match p, q with
  | Curve.Infinity, _ | _, Curve.Infinity -> gt_one
  | Curve.Affine (px, py), Curve.Affine (qx, qy) ->
    let f = miller_projective prm px py qx qy in
    if F2M.is_zero f then gt_one
    else F2M.leave prm.fp (final_expo_mont prm f)

let multi_pairing (prm : Params.t) pairs =
  let finite =
    List.filter_map
      (function
        | Curve.Infinity, _ | _, Curve.Infinity -> None
        | Curve.Affine (px, py), Curve.Affine (qx, qy) -> Some (px, py, qx, qy))
      pairs
  in
  match finite with
  | [] -> gt_one
  | _ ->
    Telemetry.incr c_pairings;
    Telemetry.incr c_multi;
    Telemetry.add c_multi_terms (List.length finite);
    let states =
      Array.of_list
        (List.map (fun (px, py, qx, qy) -> mstate prm.fp px py qx qy) finite)
    in
    let f = miller_shared prm states in
    if F2M.is_zero f then gt_one
    else F2M.leave prm.fp (final_expo_mont prm f)

(* --- Fixed-base (precomputed) Miller loops ------------------------

   A {!Miller.precomp} replays the line sequence of a fixed base point
   A; evaluating it at a variable point B costs one F_p multiplication
   and one lazy addition per line — no Jacobian arithmetic at all —
   and computes ê(A, B).  By the symmetry of the modified Tate pairing
   on G1 (both sides reduce to ê(G, G)^{ab}) this equals ê(B, A) for
   subgroup points, which is how verification call sites use it: the
   *fixed* argument (generator, system key) carries the precomp, the
   variable argument is only evaluated.  For points outside the
   order-q subgroup the two sides may differ — ê(A, ·) annihilates the
   cofactor component — so callers that accept untrusted points must
   subgroup-check them first (all IBC call sites do). *)

type precomp = Miller.precomp

let precompute (prm : Params.t) pt =
  Miller.precompute ~fp:prm.fp ~curve:prm.curve ~order:prm.q pt

let precomp_for = Params.miller_precomp_for

(* Per-term replay state: the precomp plus the evaluation point in the
   Montgomery domain. *)
type rstate = { entries : Miller.entry array; exq : FpM.e; eyq : FpM.e }

let line_value fp (c : Miller.coeffs) xq yq =
  (* alpha + beta·x_q is lazy (< 2m): it feeds only the F2M
     multiplication below. *)
  F2M.make
    (FpM.add_lazy fp c.Miller.alpha (FpM.mul fp c.Miller.beta xq))
    (FpM.mul fp c.Miller.gamma yq)

let miller_replay_shared (prm : Params.t) states =
  let fp = prm.fp in
  let f = ref (F2M.one fp) in
  let n = max (Nat.bit_length prm.q - 1) 0 in
  for j = 0 to n - 1 do
    f := F2M.sqr fp !f;
    Array.iter
      (fun st ->
        match st.entries.(j).Miller.dbl with
        | Some c -> f := F2M.mul fp !f (line_value fp c st.exq st.eyq)
        | None -> ())
      states;
    (* Chord entries are [Some] exactly on set exponent bits, so the
       bit test of the live loop is implicit here. *)
    Array.iter
      (fun st ->
        match st.entries.(j).Miller.add with
        | Some c -> f := F2M.mul fp !f (line_value fp c st.exq st.eyq)
        | None -> ())
      states
  done;
  !f

let rstate (prm : Params.t) (pc : Miller.precomp) bx by =
  if pc.Miller.nbits <> Nat.bit_length prm.q then
    invalid_arg "Tate.pairing_precomp: precomp from a different parameter set";
  {
    entries = pc.Miller.entries;
    exq = FpM.enter prm.fp bx;
    eyq = FpM.enter prm.fp by;
  }

let pairing_precomp (prm : Params.t) b (pc : precomp) =
  Telemetry.incr c_pairings;
  Telemetry.incr c_single;
  match b, pc.Miller.base with
  | Curve.Infinity, _ | _, Curve.Infinity -> gt_one
  | Curve.Affine (bx, by), _ ->
    let f = miller_replay_shared prm [| rstate prm pc bx by |] in
    if F2M.is_zero f then gt_one else F2M.leave prm.fp (final_expo_mont prm f)

let multi_pairing_precomp (prm : Params.t) terms =
  let finite =
    List.filter_map
      (fun (b, (pc : precomp)) ->
        match b, pc.Miller.base with
        | Curve.Infinity, _ | _, Curve.Infinity -> None
        | Curve.Affine (bx, by), _ -> Some (rstate prm pc bx by))
      terms
  in
  match finite with
  | [] -> gt_one
  | _ ->
    Telemetry.incr c_pairings;
    Telemetry.incr c_multi;
    Telemetry.add c_multi_terms (List.length finite);
    let f = miller_replay_shared prm (Array.of_list finite) in
    if F2M.is_zero f then gt_one else F2M.leave prm.fp (final_expo_mont prm f)

let gt_to_bytes (prm : Params.t) (g : gt) =
  let n = (Nat.bit_length prm.p + 7) / 8 in
  Nat.to_bytes_be ~len:n (Fp.to_nat g.Fp2.re) ^ Nat.to_bytes_be ~len:n (Fp.to_nat g.Fp2.im)

let gt_of_bytes (prm : Params.t) s =
  let n = (Nat.bit_length prm.p + 7) / 8 in
  if String.length s <> 2 * n then None
  else begin
    let re = Nat.of_bytes_be (String.sub s 0 n) in
    let im = Nat.of_bytes_be (String.sub s n n) in
    if Nat.compare re prm.p >= 0 || Nat.compare im prm.p >= 0 then None
    else Some (Fp2.make re im)
  end
