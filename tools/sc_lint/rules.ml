(* The Parsetree rules, on the 5.1 Parsetree via [Ast_iterator].  The
   typed rules (secret flow, determinism, domain capture, discarded
   errors) live in [Typed_rules]; these are the syntactic checks with
   no typed counterpart.

   Rule ids:
     domain-safety      toplevel mutable state (ref / Hashtbl.create /
                        Buffer.create / Queue.create / Stack.create /
                        mutable-field record literal) at module level
     signing-encode     sprintf / (^) / String.concat results with >= 2
                        unvalidated fragments flowing syntactically into
                        a hash / sign / KDF sink instead of Sc_hash.Encode
     exception-swallow  catch-all [with _ ->] / [with e ->] handlers that
                        neither use the exception nor re-raise
     naive-scalar-mul   (informational) hand-rolled double-and-add scalar
                        multiplication outside lib/ec — a Nat.test_bit
                        loop driving Curve.double; Curve.mul (ladder) or a
                        cached Curve.mul_precomp comb is faster
     dynamic-metric-name (informational) non-literal name argument to
                        Telemetry./Registry. counter/gauge/histogram or
                        [with_span ~name:] outside lib/telemetry —
                        computed names grow the registry without bound;
                        per-key fan-out belongs in Labels.counter_vec /
                        Labels.histogram_vec under a literal family *)

open Parsetree
module SSet = Set.Make (String)
module SMap = Map.Make (String)

type ctx = {
  path : string; (* root-relative *)
  mutable_fields : SSet.t; (* mutable record labels declared in this file *)
  mutable producers : int SMap.t;
      (* file-local functions whose body is a tainted concatenation,
         mapped to their fragment taint count (e.g. Warrant.encode) *)
  mutable out : Finding.t list;
}

let line_of (loc : Location.t) = loc.loc_start.Lexing.pos_lnum

let emit ?(severity = Finding.Error) ctx ~rule ~loc ~key msg =
  ctx.out <-
    { Finding.rule; file = ctx.path; line = line_of loc; severity; key; msg }
    :: ctx.out

(* ------------------------------------------------------------------ *)
(* Longident helpers                                                  *)

let rec flat = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flat l @ [ s ]
  | Longident.Lapply (_, l) -> flat l

let tail1 p = match List.rev p with x :: _ -> Some x | [] -> None

let tail2 p =
  match List.rev p with b :: a :: _ -> Some (a ^ "." ^ b) | _ -> None

let path_of e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (flat txt)
  | _ -> None

let path_string p = String.concat "." p

(* ------------------------------------------------------------------ *)
(* Rule tables                                                        *)

(* Constructors of shared mutable state.  Atomic.make, Mutex.create,
   Condition.create and Domain.DLS.new_key are deliberately absent:
   those are the domain-safe alternatives the rule pushes toward. *)
let mutable_ctor p =
  match (p, tail2 p) with
  | [ "ref" ], _ | [ "Stdlib"; "ref" ], _ -> true
  | _, Some ("Hashtbl.create" | "Buffer.create" | "Queue.create" | "Stack.create")
    ->
    true
  | _ -> false

(* Hash / sign / KDF sinks whose string arguments must be canonically
   framed.  Matched on the last two path segments so both [Sha256.digest]
   and [Sc_hash.Sha256.digest] hit. *)
let encode_sinks =
  SSet.of_list
    [
      "Sha256.digest";
      "Sha256.digest_hex";
      "Sha256.digest_concat";
      "Sha256.feed";
      "Hmac.mac";
      "Hmac.mac_hex";
      "Hmac.mac_concat";
      "Hmac.mac_prepared";
      "Hash_g1.hash_to_point";
      "Hash_g1.hash_to_scalar";
      "Ibs.sign";
      "Drbg.create";
    ]

(* digest_concat / mac_concat / mac_prepared take fragment *lists*: a
   literal list of raw fragments is exactly the ambiguity Encode.frame
   exists for. *)
let concat_sinks =
  SSet.of_list
    [ "Sha256.digest_concat"; "Hmac.mac_concat"; "Hmac.mac_prepared" ]

(* Fragment producers that cannot introduce framing ambiguity: decimal
   renderings of scalars contain no attacker bytes, and Encode output
   is already canonical. *)
let safe_fragment_fn p =
  (match tail1 p with
  | Some ("string_of_int" | "string_of_float" | "string_of_bool") -> true
  | _ -> false)
  || match tail2 p with
     | Some
         ( "Int.to_string" | "Float.to_string" | "Bool.to_string"
         | "Encode.canonical" | "Encode.digest" ) ->
       true
     | _ -> false

(* ------------------------------------------------------------------ *)
(* Taint analysis for signing-encode                                  *)

(* A printf conversion consumes arguments; only %s/%S (and %a, whose
   printed form we cannot bound) produce attacker-shaped fragments. *)
let conversions fmt =
  let out = ref [] in
  let n = String.length fmt in
  let i = ref 0 in
  while !i < n do
    if fmt.[!i] = '%' && !i + 1 < n then begin
      incr i;
      if fmt.[!i] = '%' then incr i
      else begin
        (* skip flags / width / precision *)
        while
          !i < n
          && (match fmt.[!i] with
             | '0' .. '9' | '-' | '+' | ' ' | '#' | '.' | '*' -> true
             | _ -> false)
        do
          incr i
        done;
        (* skip length modifiers *)
        while !i < n && (match fmt.[!i] with 'l' | 'L' | 'n' -> true | _ -> false)
        do
          incr i
        done;
        if !i < n then begin
          out := fmt.[!i] :: !out;
          incr i
        end
      end
    end
    else incr i
  done;
  List.rev !out

let rec literal_list e =
  match e.pexp_desc with
  | Pexp_construct ({ txt = Longident.Lident "[]"; _ }, None) -> Some []
  | Pexp_construct
      ( { txt = Longident.Lident "::"; _ },
        Some { pexp_desc = Pexp_tuple [ hd; tl ]; _ } ) -> (
    match literal_list tl with Some rest -> Some (hd :: rest) | None -> None)
  | _ -> None

(* [taint ctx env e] is [Some n] when [e] is concatenation-shaped
   ((^) chain, sprintf, String.concat, a file-local producer of one of
   those, or a let-bound variable holding one) with [n] unvalidated
   fragments; [None] when [e] is not a concatenation. *)
let rec taint ctx env e : int option =
  match e.pexp_desc with
  | Pexp_constraint (e, _) -> taint ctx env e
  | Pexp_ident { txt = Longident.Lident x; _ } -> SMap.find_opt x env
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Longident.Lident "^"; _ }; _ },
        [ (_, a); (_, b) ] ) ->
    Some (fragment ctx env a + fragment ctx env b)
  | Pexp_apply (f, args) -> (
    match path_of f with
    | Some p when tail1 p = Some "sprintf" || tail1 p = Some "asprintf" -> (
      match args with
      | (_, { pexp_desc = Pexp_constant (Pconst_string (fmt, _, _)); _ })
        :: rest ->
        let rest = List.map snd rest in
        let t = ref 0 in
        let remaining = ref rest in
        let pop () =
          match !remaining with
          | x :: tl ->
            remaining := tl;
            Some x
          | [] -> None
        in
        List.iter
          (fun conv ->
            match conv with
            | 's' | 'S' -> (
              match pop () with
              | Some arg -> t := !t + max 1 (fragment ctx env arg)
              | None -> incr t (* partial application: assume tainted *))
            | 'a' ->
              ignore (pop ());
              ignore (pop ());
              incr t
            | _ -> ignore (pop ()))
          (conversions fmt);
        Some !t
      | _ -> Some 2 (* dynamic format string: assume ambiguous *))
    | Some p when tail2 p = Some "String.concat" -> (
      match args with
      | [ _sep; (_, lst) ] -> (
        match literal_list lst with
        | Some elems ->
          Some (List.fold_left (fun acc x -> acc + fragment ctx env x) 0 elems)
        | None -> Some 2 (* unknown fragment list: assume ambiguous *))
      | _ -> Some 2)
    | Some [ f1 ] when SMap.mem f1 ctx.producers ->
      Some (SMap.find f1 ctx.producers)
    | _ -> None)
  | _ -> None

(* Taint of a single fragment inside a concatenation. *)
and fragment ctx env e : int =
  match taint ctx env e with
  | Some n -> n
  | None -> (
    match e.pexp_desc with
    | Pexp_constant _ -> 0
    | Pexp_constraint (e, _) -> fragment ctx env e
    | Pexp_apply (f, _) -> (
      match path_of f with Some p when safe_fragment_fn p -> 0 | _ -> 1)
    | _ -> 1)

(* ------------------------------------------------------------------ *)
(* Per-rule checks invoked from the main iterator                     *)

let mentions names body =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> (
            match tail1 (flat txt) with
            | Some n when List.mem n names -> found := true
            | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it body;
  !found

let rec catch_all_pattern p =
  match p.ppat_desc with
  | Ppat_any -> true
  | Ppat_var _ -> true
  | Ppat_alias (p, _) -> catch_all_pattern p
  | Ppat_or (a, b) -> catch_all_pattern a || catch_all_pattern b
  | Ppat_constraint (p, _) -> catch_all_pattern p
  | _ -> false

let rec bound_var p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_alias (_, { txt; _ }) -> Some txt
  | Ppat_constraint (p, _) -> bound_var p
  | _ -> None

let check_handler_case ctx ~enclosing (case : case) =
  if catch_all_pattern case.pc_lhs then begin
    let handled =
      let raising = [ "raise"; "raise_notrace"; "reraise" ] in
      match bound_var case.pc_lhs with
      | Some v -> mentions (v :: raising) case.pc_rhs
      | None -> mentions raising case.pc_rhs
    in
    if not handled then
      emit ctx ~rule:"exception-swallow" ~loc:case.pc_lhs.ppat_loc
        ~key:enclosing
        "catch-all handler silently swallows the exception; match specific \
         exceptions, use the bound exception, or re-raise"
  end

let check_encode_sink ctx env ~enclosing ~sink (label, arg) =
  ignore label;
  let flag loc n =
    emit ctx ~rule:"signing-encode" ~loc ~key:(enclosing ^ ":" ^ sink)
      (Printf.sprintf
         "%d unvalidated fragments concatenated into %s; build the message \
          with Sc_hash.Encode (length-prefixed, domain-tagged) instead"
         n sink)
  in
  if SSet.mem sink concat_sinks then begin
    (* fragment-list sinks: a literal list of raw fragments is only safe
       when produced by Encode.frame *)
    match literal_list arg with
    | Some elems ->
      let n = List.fold_left (fun acc x -> acc + fragment ctx env x) 0 elems in
      if n >= 2 then flag arg.pexp_loc n
    | None -> (
      match arg.pexp_desc with
      | Pexp_apply (f, _)
        when path_of f <> None
             && tail2 (Option.get (path_of f)) = Some "Encode.frame" ->
        ()
      | _ -> (
        match taint ctx env arg with
        | Some n when n >= 2 -> flag arg.pexp_loc n
        | _ -> ()))
  end
  else
    match taint ctx env arg with
    | Some n when n >= 2 -> flag arg.pexp_loc n
    | _ -> ()

(* ------------------------------------------------------------------ *)
(* Pre-passes                                                         *)

let collect_mutable_fields (str : structure) =
  let acc = ref SSet.empty in
  let it =
    {
      Ast_iterator.default_iterator with
      type_declaration =
        (fun it td ->
          (match td.ptype_kind with
          | Ptype_record labels ->
            List.iter
              (fun ld ->
                if ld.pld_mutable = Mutable then
                  acc := SSet.add ld.pld_name.txt !acc)
              labels
          | _ -> ());
          Ast_iterator.default_iterator.type_declaration it td);
    }
  in
  it.structure it str;
  !acc

(* File-local [let f args = <tainted concat>] producers, collected in
   order so later producers can reference earlier ones. *)
let collect_producers ctx (str : structure) =
  let rec strip e =
    match e.pexp_desc with
    | Pexp_fun (_, _, _, body) -> strip body
    | Pexp_newtype (_, body) -> strip body
    | Pexp_constraint (body, _) -> strip body
    | _ -> e
  in
  let item si =
    match si.pstr_desc with
    | Pstr_value (_, vbs) ->
      List.iter
        (fun vb ->
          match bound_var vb.pvb_pat with
          | Some name -> (
            match taint ctx SMap.empty (strip vb.pvb_expr) with
            | Some n when n >= 1 ->
              ctx.producers <- SMap.add name n ctx.producers
            | _ -> ())
          | None -> ())
        vbs
    | _ -> ()
  in
  List.iter item str

(* ------------------------------------------------------------------ *)
(* Rule 1: toplevel mutable state                                     *)

let rule_domain_safety ctx ~name vb =
  let flagged = ref false in
  let flag loc what =
    if not !flagged then begin
      flagged := true;
      emit ctx ~rule:"domain-safety" ~loc ~key:name
        (Printf.sprintf
           "toplevel binding %S holds shared mutable state (%s); guard it \
            with a mutex / make it Atomic / move it into Domain.DLS, or \
            waive it with a justification"
           name what)
    end
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          if not !flagged then
            match e.pexp_desc with
            | Pexp_fun _ | Pexp_function _ ->
              () (* per-call state, not shared *)
            | Pexp_apply (f, _) when
                (match path_of f with
                | Some p -> mutable_ctor p
                | None -> false) ->
              flag e.pexp_loc
                (path_string (Option.get (path_of f)))
            | Pexp_record (fields, _)
              when List.exists
                     (fun (({ txt; _ } : Longident.t Location.loc), _) ->
                       match tail1 (flat txt) with
                       | Some l -> SSet.mem l ctx.mutable_fields
                       | None -> false)
                     fields ->
              flag e.pexp_loc "record literal with mutable fields"
            | _ -> Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it vb.pvb_expr

(* ------------------------------------------------------------------ *)
(* Rule 6: naive scalar multiplication outside lib/ec                 *)

(* The signature of a hand-rolled double-and-add ladder is a scalar
   bit scan ([test_bit]) in the same binding as a direct
   [Curve.double] call: well-behaved callers never touch
   [Curve.double] — they go through [Curve.mul] (ladder) or a cached
   [Curve.mul_precomp] comb.  Informational: a bespoke ladder can be
   deliberate (e.g. a constant-time variant), so it never fails the
   build and is not meant to be waived away. *)
let in_lib_ec path =
  String.length path >= 7 && String.sub path 0 7 = "lib/ec/"

let rule_naive_scalar_mul ctx ~name vb =
  if not (in_lib_ec ctx.path) then begin
    let scans_bits = ref false and doubles_point = ref false in
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun it e ->
            (match e.pexp_desc with
            | Pexp_ident { txt; _ } ->
              let p = flat txt in
              if tail1 p = Some "test_bit" then scans_bits := true;
              if tail2 p = Some "Curve.double" then doubles_point := true
            | _ -> ());
            Ast_iterator.default_iterator.expr it e);
      }
    in
    it.expr it vb.pvb_expr;
    if !scans_bits && !doubles_point then
      emit ctx ~severity:Finding.Info ~rule:"naive-scalar-mul"
        ~loc:vb.pvb_loc ~key:name
        (Printf.sprintf
           "%S scans scalar bits and calls Curve.double directly — a naive \
            double-and-add ladder; use Curve.mul (x-only ladder) or a cached \
            Curve.mul_precomp comb (informational)"
           name)
  end

(* ------------------------------------------------------------------ *)
(* Rule 7: dynamic metric / span names                                *)

(* A registry cell lives forever, so a computed name is an unbounded
   cardinality leak waiting for adversarial input (one counter per
   file name, per peer id, ...).  The sanctioned shape is a literal
   family plus [Labels.counter_vec] / [Labels.histogram_vec], which
   bound the fan-out and spill to an "other" cell.  lib/telemetry/
   itself is exempt: it is the implementation and derives cell names
   by construction.  Informational — a computed name over a closed
   static set is legitimate. *)
let metric_ctors =
  SSet.of_list
    [
      "Telemetry.counter";
      "Telemetry.gauge";
      "Telemetry.histogram";
      "Registry.counter";
      "Registry.gauge";
      "Registry.histogram";
    ]

let in_lib_telemetry path =
  String.length path >= 14 && String.sub path 0 14 = "lib/telemetry/"

let is_string_literal e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string _) -> true
  | _ -> false

let rule_dynamic_metric_name ctx ~enclosing ~loc p args =
  if not (in_lib_telemetry ctx.path) then begin
    let flag what arg =
      if not (is_string_literal arg) then
        emit ctx ~severity:Finding.Info ~rule:"dynamic-metric-name" ~loc
          ~key:(enclosing ^ ":" ^ what)
          (Printf.sprintf
             "%s in %S takes a computed name — dynamic names grow the \
              registry without bound; use a literal family with \
              Labels.counter_vec / Labels.histogram_vec for per-key fan-out \
              (informational)"
             what enclosing)
    in
    (match tail2 p with
    | Some callee when SSet.mem callee metric_ctors -> (
      match List.find_opt (fun (l, _) -> l = Asttypes.Nolabel) args with
      | Some (_, a) -> flag callee a
      | None -> ())
    | _ -> ());
    if tail1 p = Some "with_span" then
      match
        List.find_opt (fun (l, _) -> l = Asttypes.Labelled "name") args
      with
      | Some (_, a) -> flag "with_span ~name" a
      | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Main walk                                                          *)

let lint_structure ctx (str : structure) =
  let enclosing = ref "<toplevel>" in
  let env = ref SMap.empty in
  let expr_iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          match e.pexp_desc with
          | Pexp_let (_, vbs, body) ->
            let saved_env = !env and saved_enc = !enclosing in
            List.iter
              (fun vb ->
                (match bound_var vb.pvb_pat with
                | Some n -> enclosing := n
                | None -> ());
                it.expr it vb.pvb_expr;
                enclosing := saved_enc)
              vbs;
            List.iter
              (fun vb ->
                match bound_var vb.pvb_pat with
                | Some n -> (
                  match taint ctx !env vb.pvb_expr with
                  | Some t -> env := SMap.add n t !env
                  | None -> env := SMap.remove n !env)
                | None -> ())
              vbs;
            it.expr it body;
            env := saved_env
          | Pexp_apply (f, args) ->
            (match path_of f with
            | Some p ->
              (match tail2 p with
              | Some sink when SSet.mem sink encode_sinks ->
                List.iter (check_encode_sink ctx !env ~enclosing:!enclosing ~sink) args
              | _ -> ());
              rule_dynamic_metric_name ctx ~enclosing:!enclosing
                ~loc:e.pexp_loc p args
            | None -> ());
            it.expr it f;
            List.iter (fun (_, a) -> it.expr it a) args
          | Pexp_try (_, cases) ->
            List.iter (check_handler_case ctx ~enclosing:!enclosing) cases;
            Ast_iterator.default_iterator.expr it e
          | Pexp_match (_, cases) ->
            List.iter
              (fun c ->
                match c.pc_lhs.ppat_desc with
                | Ppat_exception p ->
                  check_handler_case ctx ~enclosing:!enclosing
                    { c with pc_lhs = p }
                | _ -> ())
              cases;
            Ast_iterator.default_iterator.expr it e
          | _ -> Ast_iterator.default_iterator.expr it e);
    }
  in
  let rec structure ~toplevel items = List.iter (item ~toplevel) items
  and item ~toplevel si =
    match si.pstr_desc with
    | Pstr_value (_, vbs) ->
      List.iter
        (fun vb ->
          let name = Option.value (bound_var vb.pvb_pat) ~default:"_" in
          if toplevel then rule_domain_safety ctx ~name vb;
          rule_naive_scalar_mul ctx ~name vb;
          let saved = !enclosing in
          enclosing := name;
          expr_iter.expr expr_iter vb.pvb_expr;
          enclosing := saved)
        vbs
    | Pstr_eval (e, _) -> expr_iter.expr expr_iter e
    | Pstr_module mb -> module_expr ~toplevel mb.pmb_expr
    | Pstr_recmodule mbs ->
      List.iter (fun mb -> module_expr ~toplevel mb.pmb_expr) mbs
    | Pstr_include incl -> module_expr ~toplevel incl.pincl_mod
    | _ -> ()
  and module_expr ~toplevel me =
    match me.pmod_desc with
    | Pmod_structure s -> structure ~toplevel s
    | Pmod_constraint (me, _) -> module_expr ~toplevel me
    | Pmod_functor (_, me) ->
      (* a functor body is instantiated per application; its bindings
         are not process-global state *)
      module_expr ~toplevel:false me
    | _ -> ()
  in
  structure ~toplevel:true str

let lint ~path (str : structure) : Finding.t list =
  let ctx =
    {
      path;
      mutable_fields = collect_mutable_fields str;
      producers = SMap.empty;
      out = [];
    }
  in
  collect_producers ctx str;
  lint_structure ctx str;
  (* one finding per (rule, file, line, key) *)
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (f : Finding.t) ->
      let k = (f.rule, f.line, f.key) in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    (List.rev ctx.out)
