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
let c_lines = Telemetry.counter "pairing.lines"
let c_gt_pow = Telemetry.counter "pairing.gt_pow"
let c_gt_comb_build = Telemetry.counter "pairing.gt_comb_build"
let c_gt_comb_exp = Telemetry.counter "pairing.gt_comb_exp"
let c_gt_member = Telemetry.counter "pairing.gt_member"
let c_gt_multi_exp = Telemetry.counter "pairing.gt_multi_exp"
let c_gt_multi_exp_terms = Telemetry.counter "pairing.gt_multi_exp_terms"

type gt = Fp2.el

let gt_one (prm : Params.t) = Fp2.one prm.fp

(* Membership in the unitary (norm-1) subgroup of F_p²* — where every
   honest GT element lives after the final exponentiation. *)
let gt_is_unitary (prm : Params.t) a =
  Fp.equal (Fp2.norm prm.fp a) (Fp.one prm.fp)

let gt_pow (prm : Params.t) a e =
  Telemetry.incr c_gt_pow;
  Fp2.pow prm.fp a e

(* Fixed-base Lim–Lee comb of height h = 4.  An exponent of at most
   h·d bits, d = ⌈bit_length q / h⌉, is read as h rows of d bits:
   e = Σ_k e_k·2^(k·d).  Entry j of the table is
   Π_(bit k of j set) a^(2^(k·d)), with entry 0 = 1, so column c of
   the exponent (bit c of every row) picks one entry, and
   a^e = Π_c T[j_c]^(2^c) costs d squarings and d multiplications —
   against bit_length q squarings for square-and-multiply.  Every
   column squares and multiplies, including by T[0] = 1, and reads the
   table by a full masked scan ({!Fp2.select}), so neither the
   operation sequence nor the memory trace depends on the exponent. *)
let comb_height = 4

type gt_comb = { cols : int; table : Fp2.table }

let gt_comb (prm : Params.t) a =
  Telemetry.incr c_gt_comb_build;
  let fp = prm.fp in
  let cols = (Nat.bit_length prm.q + comb_height - 1) / comb_height in
  let table = Array.make (1 lsl comb_height) (Fp2.one fp) in
  let row = ref a in
  for k = 0 to comb_height - 1 do
    if k > 0 then
      for _ = 1 to cols do
        row := Fp2.sqr fp !row
      done;
    let bit = 1 lsl k in
    table.(bit) <- !row;
    for j = 1 to bit - 1 do
      table.(bit lor j) <- Fp2.mul fp table.(j) !row
    done
  done;
  { cols; table = Fp2.table table }

let gt_comb_exp (prm : Params.t) { cols; table } e =
  if Nat.bit_length e > comb_height * cols then
    invalid_arg "Tate.gt_comb_exp: exponent wider than the comb";
  Telemetry.incr c_gt_comb_exp;
  let fp = prm.fp in
  let acc = ref (Fp2.one fp) in
  for c = cols - 1 downto 0 do
    let j = ref 0 in
    for k = comb_height - 1 downto 0 do
      j := (!j lsl 1) lor Bool.to_int (Nat.test_bit e ((k * cols) + c))
    done;
    acc := Fp2.mul fp (Fp2.sqr fp !acc) (Fp2.select table !j)
  done;
  !acc

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
  let two = Fp.of_int fp 2 in
  let t = Fp.double fp a.Fp2.re in
  let v0 = ref two and v1 = ref t in
  for i = Nat.bit_length prm.q - 1 downto 0 do
    let mid = Fp.sub fp (Fp.mul fp !v0 !v1) t in
    if Nat.test_bit prm.q i then begin
      v0 := mid;
      v1 := Fp.sub fp (Fp.sqr fp !v1) two
    end
    else begin
      v0 := Fp.sub fp (Fp.sqr fp !v0) two;
      v1 := mid
    end
  done;
  Fp.equal !v0 two

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
           let a2 = Fp2.sqr fp a in
           let odd = Array.make (1 lsl (width - 2)) a in
           for i = 1 to Array.length odd - 1 do
             odd.(i) <- Fp2.mul fp odd.(i - 1) a2
           done;
           odd, Array.map (Fp2.conj fp) odd, Nat.wnaf ~width e)
         terms)
  in
  let len = Array.fold_left (fun m (_, _, d) -> max m (Array.length d)) 0 powers in
  let acc = ref (Fp2.one fp) in
  for i = len - 1 downto 0 do
    acc := Fp2.sqr fp !acc;
    Array.iter
      (fun (odd, inv, ds) ->
        let d = if i < Array.length ds then ds.(i) else 0 in
        if d > 0 then acc := Fp2.mul fp !acc odd.((d - 1) / 2)
        else if d < 0 then acc := Fp2.mul fp !acc inv.((-d - 1) / 2))
      powers
  done;
  !acc

(* f^((p² − 1)/q) = (f^(p−1))^c = (conj(f)·f⁻¹)^c, using that
   conjugation is the p-power Frobenius when p ≡ 3 (mod 4). *)
let final_expo (prm : Params.t) f =
  Telemetry.incr c_final_expo;
  let fp = prm.fp in
  let g = Fp2.mul fp (Fp2.conj fp f) (Fp2.inv fp f) in
  Fp2.pow fp g prm.cofactor

let pairings_performed () = Telemetry.value c_pairings

(* --- Fixed-base (precomputed) Miller loops ------------------------

   A {!Miller.precomp} replays the line sequence of a fixed base point
   A; evaluating it at a variable point B costs one F_p multiplication
   and one lazy addition per line, plus the F_p² multiplication that
   takes the line in — no Jacobian arithmetic at all —
   and computes ê(A, B).  By the symmetry of the modified Tate pairing
   on G1 (both sides reduce to ê(G, G)^{ab}) this equals ê(B, A) for
   subgroup points, which is how verification call sites use it: the
   *fixed* argument (generator, system key) carries the precomp, the
   variable argument is only evaluated.  For points outside the
   order-q subgroup the two sides may differ: ê(A, ·) annihilates the
   cofactor component.  Torsion on a point that is also hashed into the
   equation (the IBS and DVS U, inside h = H2(U‖m)) cannot help a third
   party, so no IBC call site checks U.  Torsion on a point that is not
   hashed can: anyone could turn an IBS (U, V) into (U, V + T), so V is
   the one point the IBS verifiers subgroup-check. *)

type precomp = Miller.precomp

let precompute (prm : Params.t) pt =
  Miller.precompute ~fp:prm.fp ~order:prm.q pt

let precomp_for = Params.miller_precomp_for

(* Per-term replay state: the line table plus the evaluation point. *)
type rstate = { entries : Miller.entry array; exq : Fp.el; eyq : Fp.el }

(* A normalized line at Q: (alpha + beta·x_q) + y_q·i, one
   multiplication.  The real part is lazy (< 2m): it feeds only the
   F_p² multiplication below. *)
let line_value fp (c : Miller.coeffs) xq yq =
  Fp2.make (Fp.add_lazy fp c.Miller.alpha (Fp.mul fp c.Miller.beta xq)) yq

let miller_replay_shared (prm : Params.t) states =
  let fp = prm.fp in
  let f = ref (Fp2.one fp) in
  let n = Array.length states.(0).entries in
  if Array.exists (fun st -> Array.length st.entries <> n) states then
    invalid_arg "Tate.pairing_precomp: precomp from a different parameter set";
  for j = 0 to n - 1 do
    f := Fp2.sqr fp !f;
    Array.iter
      (fun st ->
        match st.entries.(j).Miller.dbl with
        | Some c -> f := Fp2.mul fp !f (line_value fp c st.exq st.eyq)
        | None -> ())
      states;
    (* Chord entries are [Some] exactly on the non-zero NAF digits of
       q, so the replay needs no digit test. *)
    Array.iter
      (fun st ->
        match st.entries.(j).Miller.add with
        | Some c -> f := Fp2.mul fp !f (line_value fp c st.exq st.eyq)
        | None -> ())
      states
  done;
  !f

let rstate (prm : Params.t) (pc : Miller.precomp) bx by =
  if pc.Miller.nbits <> Nat.bit_length prm.q then
    invalid_arg "Tate.pairing_precomp: precomp from a different parameter set";
  (* Every term a replay evaluates adds its table's line count. *)
  Telemetry.add c_lines pc.Miller.lines;
  { entries = pc.Miller.entries; exq = bx; eyq = by }

(* The Miller value of one replayed term, or [None] when the pairing
   is 1 without a loop (an infinity argument). *)
let miller_single (prm : Params.t) b (pc : precomp) =
  Telemetry.incr c_pairings;
  Telemetry.incr c_single;
  match b, pc.Miller.base with
  | Curve.Infinity, _ | _, Curve.Infinity -> None
  | Curve.Affine (bx, by), _ ->
    Some (miller_replay_shared prm [| rstate prm pc bx by |])

let miller_multi (prm : Params.t) terms =
  let finite =
    List.filter_map
      (fun (b, (pc : precomp)) ->
        match b, pc.Miller.base with
        | Curve.Infinity, _ | _, Curve.Infinity -> None
        | Curve.Affine (bx, by), _ -> Some (rstate prm pc bx by))
      terms
  in
  match finite with
  | [] -> None
  | _ ->
    Telemetry.incr c_pairings;
    Telemetry.incr c_multi;
    Telemetry.add c_multi_terms (List.length finite);
    Some (miller_replay_shared prm (Array.of_list finite))

let reduce (prm : Params.t) = function
  | Some f when not (Fp2.is_zero f) -> final_expo prm f
  | Some _ | None -> gt_one prm

(* Whether the reduced value equals [t], without the inversion of
   {!final_expo}: with g = f^c, f^((p² − 1)/q) = conj(g)/g, so
   the value is t exactly when conj(g) = t·g (g ≠ 0 since f ≠ 0). *)
let reduces_to (prm : Params.t) t = function
  | Some f when not (Fp2.is_zero f) ->
    Telemetry.incr c_final_expo;
    let fp = prm.fp in
    let g = Fp2.pow fp f prm.cofactor in
    Fp2.equal (Fp2.conj fp g) (Fp2.mul fp t g)
  | Some _ | None -> Fp2.equal t (gt_one prm)

let pairing_precomp prm b pc = reduce prm (miller_single prm b pc)
let multi_pairing_precomp prm terms = reduce prm (miller_multi prm terms)

let multi_pairing_precomp_equal prm terms t =
  reduces_to prm t (miller_multi prm terms)

(* The uncached pairing walks P's trajectory once and replays it at Q.
   P stays the loop base, so the value is ê(P, Q) off the order-q
   subgroup too. *)
let pairing prm p q = pairing_precomp prm q (precompute prm p)

let gt_to_bytes (prm : Params.t) (g : gt) =
  let n = (Nat.bit_length prm.p + 7) / 8 in
  Nat.to_bytes_be ~len:n (Fp.to_nat prm.fp g.Fp2.re)
  ^ Nat.to_bytes_be ~len:n (Fp.to_nat prm.fp g.Fp2.im)

let gt_of_bytes (prm : Params.t) s =
  let n = (Nat.bit_length prm.p + 7) / 8 in
  if String.length s <> 2 * n then None
  else begin
    let re = Nat.of_bytes_be (String.sub s 0 n) in
    let im = Nat.of_bytes_be (String.sub s n n) in
    if Nat.compare re prm.p >= 0 || Nat.compare im prm.p >= 0 then None
    else Some (Fp2.make (Fp.of_nat prm.fp re) (Fp.of_nat prm.fp im))
  end
