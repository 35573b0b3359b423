(* A literal, not [Nat.base_bits], so the shifts and masks in [mul]
   compile to immediates; [create] checks that the two agree. *)
let limb_bits = 26
let base = 1 lsl limb_bits
let mask = base - 1

type mont = int array (* exactly k limbs, value < m *)

type ctx = {
  m : Nat.t;
  m_limbs : int array; (* k limbs, k >= 1 *)
  k : int;
  m' : int; (* -m[0]^-1 mod B *)
  one : mont; (* B^k mod m, the domain image of 1 *)
  r2 : mont; (* B^2k mod m: REDC(a·r2) = a·B^k, the domain image of a *)
  unit : mont; (* the plain integer 1: REDC(a·unit) = a·B^-k *)
  lazy_ok : bool; (* 16m <= B^k: redundant operands stay inside REDC's bound *)
}

(* Every entry point below checks that its operands have exactly k
   limbs, once per call; the limb loops then index 0 … k−1 only, so
   their reads need no bounds check of their own. *)
external ( .%() ) : int array -> int -> int = "%array_unsafe_get"

let width_error () = invalid_arg "Montgomery: operand of another context's width"

(* Inverse of an odd limb modulo B by Newton iteration: for odd a,
   a·a ≡ 1 (mod 8), and each step doubles the number of correct
   low bits. *)
let inv_limb a =
  let x = ref a in
  for _ = 1 to 4 do
    (* Mask the inner term before multiplying so the product stays
       below 2^52. *)
    let t = (2 - (a * !x)) land mask in
    x := !x * t land mask
  done;
  !x land mask

(* Every column of [mul] sums at most 2k products below 2^52, plus the
   previous column's carry (below 2^35), in one OCaml int, whose
   largest value is 2^62 - 1: k <= 256 keeps each column below 2^61. *)
let max_limbs = 256

(* A k-limb copy of limbs that fit in k. *)
let pad k limbs =
  let out = Array.make k 0 in
  Array.blit limbs 0 out 0 (Array.length limbs);
  out

let create m =
  assert (limb_bits = Nat.base_bits);
  if Nat.compare m (Nat.of_int 3) < 0 || Nat.is_even m
  then invalid_arg "Montgomery.create: modulus must be odd and >= 3";
  let m_limbs = Nat.to_limbs m in
  let k = Array.length m_limbs in
  if k > max_limbs
  then invalid_arg "Montgomery.create: modulus wider than 256 limbs";
  let m' = (base - inv_limb m_limbs.(0)) land mask in
  let r = Nat.shift_left Nat.one (k * limb_bits) in
  let residue n = pad k (Nat.to_limbs (Nat.rem n m)) in
  (* Lazy (redundant) operands are only sound when 16m <= B^k: then a
     sum of two once-lazy values stays < 4m, and a product of two such
     operands is < 16m^2 <= m*B^k, REDC's input bound. *)
  let lazy_ok = Nat.bit_length m + 4 <= k * limb_bits in
  {
    m;
    m_limbs;
    k;
    m';
    one = residue r;
    r2 = residue (Nat.mul r r);
    unit = pad k [| 1 |];
    lazy_ok;
  }

(* a >= m, comparing the k-limb arrays from the top.  A loop, not a
   local recursive function, which would allocate a closure per call. *)
let ge_mod ctx (a : mont) =
  let m = ctx.m_limbs in
  let i = ref (ctx.k - 1) in
  while !i >= 0 && a.%(!i) = m.%(!i) do
    decr i
  done;
  !i < 0 || a.%(!i) > m.%(!i)

(* In-place a <- a - m mod B^k.  The caller ensures a >= m, or that a
   carry it dropped out of the top limb absorbs the final borrow. *)
let sub_mod_inplace ctx (a : mont) =
  let m = ctx.m_limbs in
  let borrow = ref 0 in
  for i = 0 to ctx.k - 1 do
    let d = a.%(i) - m.%(i) - !borrow in
    if d < 0 then begin
      a.(i) <- d + base;
      borrow := 1
    end
    else begin
      a.(i) <- d;
      borrow := 0
    end
  done

(* Product-scanning (FIPS) Montgomery multiplication: a·b·B^-k mod m
   in one pass over the 2k columns of a·b + u·m, where u is the REDC
   quotient that clears the low k limbs.  Column i sums every
   a_j·b_(i-j) and u_j·m_(i-j) into a single accumulator; in the low
   half u_i is chosen so that column i ends in a zero limb.  The u_j
   are parked in the output array: u_j is last read in column j+k-1,
   and column j+k writes result limb j over it.  The result is below
   2m whenever a·b < m·B^k (canonical operands, or lazy ones under
   [lazy_ok]), so one conditional subtraction leaves it canonical. *)
let mul ctx (a : mont) (b : mont) =
  if Array.length a <> ctx.k || Array.length b <> ctx.k then width_error ();
  let k = ctx.k and m = ctx.m_limbs in
  let out = Array.make k 0 in
  let acc = ref 0 in
  for i = 0 to k - 1 do
    let s = ref (!acc + (a.%(i) * b.%(0))) in
    for j = 0 to i - 1 do
      s := !s + (a.%(j) * b.%(i - j)) + (out.%(j) * m.%(i - j))
    done;
    let u = (!s land mask) * ctx.m' land mask in
    out.(i) <- u;
    acc := (!s + (u * m.%(0))) lsr limb_bits
  done;
  for i = k to (2 * k) - 1 do
    let s = ref !acc in
    for j = i - k + 1 to k - 1 do
      s := !s + (a.%(j) * b.%(i - j)) + (out.%(j) * m.%(i - j))
    done;
    out.(i - k) <- !s land mask;
    acc := !s lsr limb_bits
  done;
  (* The value is out + acc·B^k with acc <= 1. *)
  if !acc > 0 || ge_mod ctx out then sub_mod_inplace ctx out;
  out

let sqr ctx a = mul ctx a a

(* Entering the domain is one multiplication by R² mod m:
   a·R²·R^-1 = aR.  Only an argument of m or more costs a division
   first. *)
let to_mont ctx a =
  let a = if Nat.compare a ctx.m < 0 then a else Nat.rem a ctx.m in
  mul ctx (pad ctx.k (Nat.to_limbs a)) ctx.r2

(* Leaving the domain is one multiplication by the plain integer 1:
   (aR)·1·R^-1 = a. *)
let of_mont ctx (a : mont) = Nat.of_limbs (mul ctx a ctx.unit)

let one ctx = ctx.one
let zero ctx = Array.make ctx.k 0
let of_int ctx n = to_mont ctx (Nat.of_int n)

let is_zero (a : mont) =
  let rec go i = i < 0 || (a.(i) = 0 && go (i - 1)) in
  go (Array.length a - 1)

(* Values are canonical (< m), so domain equality is limb equality. *)
let equal (a : mont) (b : mont) =
  let rec go i = i < 0 || (a.(i) = b.(i) && go (i - 1)) in
  Array.length a = Array.length b && go (Array.length a - 1)

(* The Montgomery map is additive (aR + bR = (a+b)R), so modular
   add/sub/neg work directly on domain representatives. *)
let add ctx (a : mont) (b : mont) =
  if Array.length a <> ctx.k || Array.length b <> ctx.k then width_error ();
  let k = ctx.k in
  let out = Array.make k 0 in
  let carry = ref 0 in
  for i = 0 to k - 1 do
    let x = a.%(i) + b.%(i) + !carry in
    out.(i) <- x land mask;
    carry := x lsr limb_bits
  done;
  if !carry > 0 || ge_mod ctx out then sub_mod_inplace ctx out;
  out

let sub ctx (a : mont) (b : mont) =
  if Array.length a <> ctx.k || Array.length b <> ctx.k then width_error ();
  let k = ctx.k and m = ctx.m_limbs in
  let out = Array.make k 0 in
  let borrow = ref 0 in
  for i = 0 to k - 1 do
    let d = a.%(i) - b.%(i) - !borrow in
    if d < 0 then begin
      out.(i) <- d + base;
      borrow := 1
    end
    else begin
      out.(i) <- d;
      borrow := 0
    end
  done;
  if !borrow > 0 then begin
    let carry = ref 0 in
    for i = 0 to k - 1 do
      let x = out.%(i) + m.%(i) + !carry in
      out.(i) <- x land mask;
      carry := x lsr limb_bits
    done
  end;
  out

(* 0 − a: m − a for a ≠ 0, and 0 with no borrow for a = 0. *)
let neg ctx (a : mont) = sub ctx (zero ctx) a
let double ctx (a : mont) = add ctx a a

(* Redundant-representation add: skips the conditional subtraction, so
   the result may reach the sum of the operand bounds.  Sound only
   under [lazy_ok] (16m <= B^k), where a chain of two lazy adds over
   canonical inputs stays < 4m, and a product of two such operands is
   < 16m^2 <= m·B^k — still inside REDC's input bound.  Lazy values
   must only ever flow into [mul]/[sqr] (whose REDC output is again
   canonical), never into [equal]/[is_zero]/[of_mont]. *)
let add_lazy ctx (a : mont) (b : mont) =
  if not ctx.lazy_ok then add ctx a b
  else begin
    if Array.length a <> ctx.k || Array.length b <> ctx.k then width_error ();
    let k = ctx.k in
    let out = Array.make k 0 in
    let carry = ref 0 in
    for i = 0 to k - 1 do
      let x = a.%(i) + b.%(i) + !carry in
      out.(i) <- x land mask;
      carry := x lsr limb_bits
    done;
    (* a + b < 8m <= B^k/2: no carry out of the top limb. *)
    out
  end

(* Lazy subtract as a + 2m - b, valid for operands < 2m; the result is
   < 4m and non-negative without any branch on the borrow. *)
let sub_lazy ctx (a : mont) (b : mont) =
  if not ctx.lazy_ok then sub ctx a b
  else begin
    if Array.length a <> ctx.k || Array.length b <> ctx.k then width_error ();
    let k = ctx.k and m = ctx.m_limbs in
    let out = Array.make k 0 in
    let carry = ref 0 in
    for i = 0 to k - 1 do
      (* Offset by B so the limb stays non-negative; the -1 in the
         carry update cancels the offset. *)
      let x = a.%(i) + (2 * m.%(i)) - b.%(i) + !carry + base in
      out.(i) <- x land mask;
      carry := (x lsr limb_bits) - 1
    done;
    out
  end

(* Montgomery's trick: n inversions for one [inv] and 3(n-1) [mul]s.
   Zero elements are rejected up front so the shared prefix product
   cannot silently absorb them. *)
let batch_inv ctx ~inv (xs : mont array) =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    Array.iter (fun x -> if is_zero x then raise Not_found) xs;
    let prefix = Array.make n xs.(0) in
    for i = 1 to n - 1 do
      prefix.(i) <- mul ctx prefix.(i - 1) xs.(i)
    done;
    let acc = ref (inv prefix.(n - 1)) in
    let out = Array.make n (zero ctx) in
    for i = n - 1 downto 1 do
      out.(i) <- mul ctx !acc prefix.(i - 1);
      acc := mul ctx !acc xs.(i)
    done;
    out.(0) <- !acc;
    out
  end

(* All ones when i = j, else zero, with no branch: d lor (-d) has its
   sign bit set exactly when d <> 0. *)
let eq_mask i j =
  let d = i lxor j in
  lnot ((d lor (-d)) asr (Sys.int_size - 1))

(* (y, x) when b = 1, (x, y) when b = 0: every limb of both operands
   goes through the same xor-and-mask, so neither the operation
   sequence nor the allocation depends on b. *)
let cswap b (x : mont) (y : mont) =
  let m = -(b land 1) in
  let k = Array.length x in
  let x' = Array.make k 0 and y' = Array.make k 0 in
  for i = 0 to k - 1 do
    let t = m land (x.(i) lxor y.(i)) in
    x'.(i) <- x.(i) lxor t;
    y'.(i) <- y.(i) lxor t
  done;
  x', y'

(* Entry j occupies limbs [j·width, (j+1)·width) of one flat array. *)
type table = { width : int; limbs : int array }

let table (entries : mont array) =
  { width = Array.length entries.(0); limbs = Array.concat (Array.to_list entries) }

(* Every limb of every entry is read and masked, so the memory trace
   and the operation count do not depend on the index. *)
let select t i =
  let k = t.width in
  let out = Array.make k 0 in
  for j = 0 to (Array.length t.limbs / k) - 1 do
    let m = eq_mask i j in
    for l = 0 to k - 1 do
      out.(l) <- out.(l) lor (t.limbs.((j * k) + l) land m)
    done
  done;
  out

(* Left-to-right square-and-multiply inside the domain; it branches on
   the bits of the exponent only. *)
let pow_mont ctx (a : mont) e =
  let acc = ref (one ctx) in
  for i = Nat.bit_length e - 1 downto 0 do
    acc := sqr ctx !acc;
    if Nat.test_bit e i then acc := mul ctx !acc a
  done;
  !acc

let pow ctx b e = of_mont ctx (pow_mont ctx (to_mont ctx b) e)
