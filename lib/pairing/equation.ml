open Sc_bignum
open Sc_ec

type side =
  | Point of Curve.point
  | Shift of { u : Curve.point; h : Nat.t; base : Curve.point }

type target = One | Gt of Tate.gt
type t = { terms : (side * Tate.precomp) list; target : target }

let pop r =
  let x = List.hd !r in
  r := List.tl !r;
  x

(* The replay reads affine points, so every U + h·B of every equation
   leaves its comb on one batch, normalized with one shared inversion,
   and is read back in order. *)
let holds_each (prm : Params.t) eqs =
  let shift = function
    | Shift { u; h; base }, _ -> Some (u, Params.precomp_for prm base, h)
    | Point _, _ -> None
  in
  let shifts =
    List.concat_map (fun eq -> List.filter_map shift eq.terms) (List.filter_map Fun.id eqs)
  in
  let points =
    ref (Array.to_list (Curve.add_mul_precomp_batch prm.curve (Array.of_list shifts)))
  in
  let point = function Point a -> a | Shift _ -> pop points in
  List.map
    (Option.fold ~none:false ~some:(fun eq ->
         Tate.multi_pairing_precomp_equal prm
           (List.map (fun (side, table) -> point side, table) eq.terms)
           (match eq.target with One -> Tate.gt_one prm | Gt t -> t)))
    eqs

let holds prm eq = List.hd (holds_each prm [ Some eq ])

(* Σ c_i·A_i over one table's sides: one MSM over the bare points and
   the U's, plus one comb per distinct B for (Σ c_i·h_i mod q)·B, exact
   because B has order q.  Bases are told apart by physical equality:
   {!Params.id_point} hands out one point per identity. *)
let sum (prm : Params.t) column =
  let rec add base ch = function
    | [] -> [ base, ch ]
    | (b, s) :: rest when b == base -> (b, Nat.add s ch) :: rest
    | bs :: rest -> bs :: add base ch rest
  in
  let combs =
    List.fold_left
      (fun acc -> function
        | c, Shift { h; base; _ } -> add base (Nat.mul c h) acc
        | _, Point _ -> acc)
      [] column
  in
  Curve.msm prm.curve
    ~fixed:(List.map (fun (b, ch) -> Params.precomp_for prm b, Nat.rem ch prm.q) combs)
    (List.map (function c, (Point a | Shift { u = a; _ }) -> c, a) column)

let combine (prm : Params.t) = function
  | [] -> invalid_arg "Equation.combine: no equations"
  | (_, first) :: _ as weighted ->
    let side j table (c, eq) =
      match List.nth_opt eq.terms j with
      | Some (a, t) when t == table && List.compare_lengths eq.terms first.terms = 0 -> c, a
      | Some _ | None -> invalid_arg "Equation.combine: tables differ"
    in
    {
      terms =
        List.mapi
          (fun j (_, table) -> Point (sum prm (List.map (side j table) weighted)), table)
          first.terms;
      target =
        (match
           List.filter_map
             (function c, { target = Gt t; _ } -> Some (t, c) | _, { target = One; _ } -> None)
             weighted
         with
        | [] -> One
        | powers -> Gt (Tate.gt_multi_exp prm powers));
    }

(* Answers the [xs] that [keep] picks with one [yes] over them and the
   others with one [no], in the order of [xs]; an empty group costs
   nothing. *)
let split keep yes no xs =
  let tagged = List.map (fun x -> keep x, x) xs in
  let answer f k =
    match List.filter_map (fun (t, x) -> if t = k then Some x else None) tagged with
    | [] -> ref []
    | picked -> ref (f picked)
  in
  let ys = answer yes true in
  let ns = answer no false in
  List.map (fun (t, _) -> pop (if t then ys else ns)) tagged

(* A batch that holds vouches for every entry; only a rejected one pays
   for the checks that say which entries are bad.  A lone entry is its
   own check: as a batch of one it would pay for the combination too. *)
let verify_each ~single ~batch ~blame ?(aside = (fun _ -> false), fun _ -> []) slots =
  let policy = function
    | [ x ] -> [ single x ]
    | xs -> if batch xs then List.map (fun _ -> true) xs else blame xs
  in
  split Option.is_some
    (fun xs ->
      List.map Option.some (split (fst aside) (snd aside) policy (List.filter_map Fun.id xs)))
    (List.map (fun _ -> None))
    slots
