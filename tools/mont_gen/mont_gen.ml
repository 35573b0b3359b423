(* Emits Sc_bignum's straight-line Montgomery kernels:

     mont_gen.exe mont_kernels.ml mont_kernels.mli

   For each limb count in [widths] it writes mul<k>, sqr<k>, add<k>,
   sub<k>, add_lazy<k> and sub_lazy<k>.  Each computes exactly what the
   matching limb loop of montgomery.ml computes, limb for limb, with
   the loops unrolled: product-scanning REDC in the loop's column
   order, a squaring that forms each cross product a_j·a_i once and
   doubles it, and add/sub with the loops' conditional subtraction
   and borrow fix-up.  Montgomery picks the kernel by the modulus's
   limb count and keeps its loops for every other width.  The rule in
   lib/bignum/dune runs this; the output is a build artifact. *)

let limb_bits = 26
let mask = Printf.sprintf "0x%x" ((1 lsl limb_bits) - 1)

(* The presets' limb counts: toy (71-bit p), small (119) and mid
   (512).  Montgomery's dispatch names each width's kernels, so
   dropping one here fails its build. *)
let widths = [ 3; 5; 20 ]

let out = Buffer.create 65536
let pr fmt = Printf.bprintf out fmt
let range lo hi = if hi < lo then [] else List.init (hi - lo + 1) (fun i -> lo + i)
let limbs f k = String.concat "; " (List.map f (range 0 (k - 1)))

(* A sum of terms, four to a line. *)
let sum terms =
  String.concat ""
    (List.mapi
       (fun i t -> if i = 0 then t else if i mod 4 = 0 then "\n    + " ^ t else " + " ^ t)
       terms)

(* Limb i of operand x, read at a constant index where it is used.
   Reading every limb into a local once instead measured no faster at
   k = 3 and slower from k = 5, where the spills cost more than the
   loads they save (DESIGN §4m). *)
let limb x i = Printf.sprintf "%s.%%(%d)" x i
let local x i = Printf.sprintf "%s%d" x i

(* d = x − y + borrow limb by limb, the borrow being the previous d
   asr 26 (0 or −1); [each i] follows limb i's d. *)
let borrow_chain x y k each =
  List.iter
    (fun i ->
      if i = 0 then pr "  let d = %s - %s in\n" (x 0) (y 0)
      else pr "  let d = %s - %s + (d asr %d) in\n" (x i) (y i) limb_bits;
      each i)
    (range 0 (k - 1))

(* The value is r + c·B^k with c <= 1, in the locals r_i.  As in the
   loop, m is subtracted once when c > 0 or r >= m, which is when the
   top borrow of r − m does not cancel c. *)
let final_sub k =
  borrow_chain (local "r") (limb "m") k (fun i -> pr "  let t%d = d land %s in\n" i mask);
  pr "  if c lor ((d asr %d) + 1) <> 0 then [| %s |] else [| %s |]\n\n" limb_bits
    (limbs (local "t") k) (limbs (local "r") k)

(* Product-scanning REDC over the 2k columns of x·y + u·m; [products
   i] lists column i's terms of x·y.  As in the loop, u_i clears
   column i in the low half, and the high half's columns are the
   result limbs; u_i and the result limbs are parked in [out] as the
   loop parks them.  Each store there also ends the compiler's reuse
   of the loads before it, so a column holds only its own limbs in
   registers. *)
let redc k products =
  let column i lo hi =
    let um j = Printf.sprintf "%s * %s" (limb "out" j) (limb "m" (i - j)) in
    products i @ List.map um (range lo hi)
  in
  List.iter
    (fun i ->
      pr "  let s = %s in\n" (sum ((if i = 0 then [] else [ "c" ]) @ column i 0 (i - 1)));
      pr "  let u%d = (s land %s) * m' land %s in\n" i mask mask;
      (* A literal with a variable in it allocates inline; an
         all-constant one would be copied by a C call. *)
      if i = 0 then
        pr "  let out = [| u0%s |] in\n" (String.concat "" (List.init (k - 1) (fun _ -> "; 0")))
      else pr "  out.%%(%d) <- u%d;\n" i i;
      pr "  let c = (s + (u%d * m.%%(0))) lsr %d in\n" i limb_bits)
    (range 0 (k - 1));
  List.iter
    (fun i ->
      pr "  let s = %s in\n" (sum ("c" :: column i (i - k + 1) (k - 1)));
      pr "  out.%%(%d) <- s land %s;\n" (i - k) mask;
      pr "  let c = s lsr %d in\n" limb_bits)
    (range k ((2 * k) - 1));
  borrow_chain (limb "out") (limb "m") k ignore;
  pr "  if c lor ((d asr %d) + 1) <> 0 then begin\n" limb_bits;
  borrow_chain (limb "out") (limb "m") k (fun i -> pr "  out.%%(%d) <- d land %s;\n" i mask);
  pr "  end;\n  out\n\n"

let mul k =
  pr "let mul%d (m : int array) m' (a : int array) (b : int array) =\n" k;
  let a = limb "a" and b = limb "b" in
  redc k (fun i ->
      List.map
        (fun j -> Printf.sprintf "(%s * %s)" (a j) (b (i - j)))
        (range (max 0 (i - k + 1)) (min i (k - 1))))

(* Column i of a·a: each a_j·a_(i−j) with j < i − j once, doubled,
   plus a_(i/2)² on even columns: about k²/2 products for the loop's
   k².  The column's value, and so every u_i and result limb, is the
   same. *)
let sqr k =
  pr "let sqr%d (m : int array) m' (a : int array) =\n" k;
  let a = limb "a" in
  redc k (fun i ->
      let js = List.filter (fun j -> j < i - j) (range (max 0 (i - k + 1)) (min i (k - 1))) in
      let cross = List.map (fun j -> Printf.sprintf "(%s * %s)" (a j) (a (i - j))) js in
      let square = Printf.sprintf "(%s * %s)" (a (i / 2)) (a (i / 2)) in
      (if cross = [] then [] else [ Printf.sprintf "((%s) lsl 1)" (String.concat " + " cross) ])
      @ if i mod 2 = 0 && i / 2 < k then [ square ] else [])

(* r = a + b limb by limb; s lsr 26 is the carry into the next. *)
let add_chain k =
  List.iter
    (fun i ->
      if i = 0 then pr "  let s = a.%%(0) + b.%%(0) in\n"
      else pr "  let s = a.%%(%d) + b.%%(%d) + (s lsr %d) in\n" i i limb_bits;
      pr "  let r%d = s land %s in\n" i mask)
    (range 0 (k - 1))

let add k =
  pr "let add%d (m : int array) (a : int array) (b : int array) =\n" k;
  add_chain k;
  pr "  let c = s lsr %d in\n" limb_bits;
  final_sub k

(* a + b with no reduction: the caller keeps it below B^k. *)
let add_lazy k =
  pr "let add_lazy%d (a : int array) (b : int array) =\n" k;
  add_chain k;
  pr "  [| %s |]\n\n" (limbs (local "r") k)

(* r = a − b mod B^k, and m added back on a borrow out of the top
   limb. *)
let sub k =
  pr "let sub%d (m : int array) (a : int array) (b : int array) =\n" k;
  borrow_chain (limb "a") (limb "b") k (fun i -> pr "  let r%d = d land %s in\n" i mask);
  pr "  if d >= 0 then [| %s |]\n  else begin\n" (limbs (local "r") k);
  List.iter
    (fun i ->
      if i = 0 then pr "  let s = r0 + m.%%(0) in\n"
      else pr "  let s = r%d + m.%%(%d) + (s lsr %d) in\n" i i limb_bits;
      pr "  let t%d = s land %s in\n" i mask)
    (range 0 (k - 1));
  pr "  [| %s |]\n  end\n\n" (limbs (local "t") k)

(* a + 2m − b, each limb offset by B so it stays non-negative; the
   next limb's − 1 cancels the offset, folded into B − 1. *)
let sub_lazy k =
  pr "let sub_lazy%d (m : int array) (a : int array) (b : int array) =\n" k;
  List.iter
    (fun i ->
      if i = 0 then
        pr "  let x = a.%%(0) + (2 * m.%%(0)) - b.%%(0) + 0x%x in\n" (1 lsl limb_bits)
      else
        pr "  let x = a.%%(%d) + (2 * m.%%(%d)) - b.%%(%d) + (x lsr %d) + %s in\n" i i i
          limb_bits mask;
      pr "  let r%d = x land %s in\n" i mask)
    (range 0 (k - 1));
  pr "  [| %s |]\n\n" (limbs (local "r") k)

let header =
  "(* Generated by tools/mont_gen: straight-line Montgomery kernels per\n\
  \   preset limb count.  Do not edit; montgomery.ml holds the loops\n\
  \   they unroll and the contracts they keep.  Callers check operand\n\
  \   widths, so limbs are read without bounds checks. *)\n\n"

let implementation () =
  pr "%s" header;
  pr "external ( .%%() ) : int array -> int -> int = \"%%array_unsafe_get\"\n";
  pr "external ( .%%()<- ) : int array -> int -> int -> unit = \"%%array_unsafe_set\"\n\n";
  List.iter
    (fun k ->
      mul k;
      sqr k;
      add k;
      sub k;
      add_lazy k;
      sub_lazy k)
    widths

let interface () =
  pr "%s" header;
  List.iter
    (fun k ->
      pr "val mul%d : int array -> int -> int array -> int array -> int array\n" k;
      pr "val sqr%d : int array -> int -> int array -> int array\n" k;
      pr "val add%d : int array -> int array -> int array -> int array\n" k;
      pr "val sub%d : int array -> int array -> int array -> int array\n" k;
      pr "val add_lazy%d : int array -> int array -> int array\n" k;
      pr "val sub_lazy%d : int array -> int array -> int array -> int array\n" k)
    widths

let write path emit =
  Buffer.clear out;
  emit ();
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Buffer.output_buffer oc out)

let () =
  match Sys.argv with
  | [| _; ml; mli |] ->
    write ml implementation;
    write mli interface
  | _ ->
    prerr_endline "usage: mont_gen.exe KERNELS.ml KERNELS.mli";
    exit 2
