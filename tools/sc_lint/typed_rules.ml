(* The five typed rules over loaded cmts:

   - typed-secret-flow: taint by *type* (IBC setup secrets, identity
     keys, DRBG states) plus keystream sources, propagated through
     lets, tuples, records, matches and resolved calls (per-function
     leak summaries, fixpointed over the whole graph) into telemetry
     names/attrs, printf-family output, wire payloads and Format
     printers.
   - domain-capture: closures submitted to the Sc_parallel pool that
     capture mutable state (known from types, not names) without
     Atomic/Mutex, modulo the position-addressed-array idiom the
     Merkle/Monte-Carlo kernels rely on.
   - discarded-error: ignore/wildcard/let _ swallowing a typed
     failure the protocols depend on surfacing (Overloaded, Diverged,
     Transport errors, audit verdicts).
   - determinism: every direct Stdlib.Random / wall-clock use in a
     lib/ binding (randomness belongs to Sc_hash.Drbg, time to the
     simulated clock), keyed by the enclosing toplevel binding.
   - transitive-determinism: the same sources pushed through the call
     graph, reporting the full chain at each lib/ entry point.
     Waivers block propagation: an accepted direct use (telemetry
     clock) does not contaminate its callers.

   All keys are line-free and chain-stable so the waiver baseline
   survives reformatting. *)

open Typedtree

module SSet = Set.Make (String)

let line_of_expr (e : expression) = e.exp_loc.Location.loc_start.Lexing.pos_lnum

let line_of_pat (p : 'k general_pattern) =
  p.pat_loc.Location.loc_start.Lexing.pos_lnum

let finding ~rule ~file ~line ~key msg =
  { Finding.rule; file; line; severity = Finding.Error; key; msg }

let last_seg q =
  match String.rindex_opt q '.' with
  | Some i -> String.sub q (i + 1) (String.length q - i - 1)
  | None -> q

let prefix_of q =
  match String.rindex_opt q '.' with Some i -> String.sub q 0 i | None -> q

let strip_stdlib = function "Stdlib" :: rest -> rest | segs -> segs

let last1 segs = match List.rev segs with s :: _ -> Some s | [] -> None

let last2 segs =
  match List.rev segs with b :: a :: _ -> Some (a ^ "." ^ b) | _ -> None

(* "Setup.sio" for a bare "sio" written in setup.ml itself *)
let qualified_last2 ~current segs =
  match segs with
  | [ one ] -> Some (last_seg current ^ "." ^ one)
  | _ -> last2 segs

let tokens_of name = String.split_on_char '_' (String.lowercase_ascii name)

let iter_exprs f body =
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          f e;
          Tast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it body

(* ------------------------------------------------------------------ *)
(* Type predicates                                                    *)

let scalar_ty ty =
  match Types.get_desc ty with
  | Tconstr (p, _, _) -> (
    match last1 (Flow_graph.path_segs p) with
    | Some
        ("int" | "bool" | "float" | "unit" | "char" | "int32" | "int64"
        | "nativeint") ->
      true
    | _ -> false)
  | _ -> false

let string_like ty =
  match Types.get_desc ty with
  | Tconstr (p, _, _) -> (
    match last1 (Flow_graph.path_segs p) with
    | Some ("string" | "bytes") -> true
    | _ -> false)
  | _ -> false

(* Types whose values are secrets wherever they appear.  [Dvs.base] is
   ê(sk_ID, Q_B), which forges B-designated signatures; [Tate.gt_comb]
   is the comb table a base is held as, whose entry 1 is the base
   itself; [Ibs.exponent] is r + h, which recovers that base from any
   published Σ. *)
let secret_type_names =
  SSet.of_list
    [
      "Setup.sio"; "Setup.identity_key"; "Drbg.t"; "Dvs.base"; "Tate.gt_comb";
      "Ibs.exponent";
    ]

let rec secret_ty ~current ty depth =
  if depth > 3 then None
  else
    match Types.get_desc ty with
    | Tconstr (p, args, _) -> (
      let segs = Flow_graph.path_segs p in
      match qualified_last2 ~current segs with
      | Some n when SSet.mem n secret_type_names -> Some n
      | _ -> (
        match last1 segs with
        | Some ("list" | "option" | "array" | "result") ->
          List.find_map (fun a -> secret_ty ~current a (depth + 1)) args
        | _ -> None))
    | Ttuple comps ->
      List.find_map (fun c -> secret_ty ~current c (depth + 1)) comps
    | _ -> None

(* Typed failure/verdict types that must never be silently dropped. *)
let monitored_type_names =
  SSet.of_list
    [
      "Service.error";
      "Dynamic.update_error";
      "Transport.error";
      "Protocol.failure";
      "Protocol.verdict";
    ]

let rec monitored_ty ~current ty depth =
  if depth > 3 then None
  else
    match Types.get_desc ty with
    | Tconstr (p, args, _) -> (
      let segs = Flow_graph.path_segs p in
      match qualified_last2 ~current segs with
      | Some n when SSet.mem n monitored_type_names -> Some n
      | _ -> (
        match last1 segs with
        (* deliberately not lists/tuples: aggregating responses is
           fine, losing an individual verdict is not *)
        | Some ("result" | "option") ->
          List.find_map (fun a -> monitored_ty ~current a (depth + 1)) args
        | _ -> None))
    | _ -> None

(* ------------------------------------------------------------------ *)
(* Sinks, sources, sanitizers                                         *)

(* Sinks where a secret is an immediate break: telemetry metric names
   / span attrs, textual output, and wire payload construction. *)
let secret_sink segs =
  List.exists (fun seg -> seg = "Telemetry" || seg = "Registry" || seg = "Span")
    segs
  || (match last1 segs with
     | Some
         ( "printf" | "eprintf" | "fprintf" | "sprintf" | "asprintf"
         | "print_string" | "print_endline" | "prerr_endline" | "failwith"
         | "invalid_arg" ) ->
       true
     | _ -> false)
  || last2 segs = Some "Wire.encode"

let sink_name segs =
  let s = strip_stdlib segs in
  let short () =
    match last2 s with Some n -> n | None -> String.concat "." s
  in
  if secret_sink s then Some (short ())
  else if List.mem "Format" s then
    match last1 s with
    | Some f
      when (String.length f > 3 && String.sub f 0 3 = "pp_")
           || f = "print_string" || f = "print_text" ->
      Some (short ())
    | _ -> None
  else None

(* Digest/MAC outputs are public by design (they go on the wire); a
   hash is where taint stops. *)
let sanitizers =
  SSet.of_list
    [
      "Sha256.digest";
      "Sha256.digest_hex";
      "Sha256.digest_concat";
      "Hmac.mac";
      "Hmac.mac_hex";
      "Hmac.mac_concat";
      "Hmac.mac_prepared";
      "Hash_g1.hash_to_point";
      "Hash_g1.hash_to_scalar";
    ]

let is_sanitizer segs =
  match last2 (strip_stdlib segs) with
  | Some n -> SSet.mem n sanitizers
  | None -> false

(* Calls whose *result* is secret even though its type is a plain
   string: the DRBG keystream. *)
let secret_sources = SSet.of_list [ "Drbg.generate" ]

let secret_source segs =
  match last2 (strip_stdlib segs) with
  | Some n when SSet.mem n secret_sources -> Some n
  | _ -> None

(* record fields that launder a secret into a public value *)
let public_field (ld : Types.label_description) =
  List.exists (fun t -> t = "pub" || t = "public" || t = "id")
    (tokens_of ld.lbl_name)
  || scalar_ty ld.lbl_arg

(* ------------------------------------------------------------------ *)
(* Secret-flow: taint analysis with per-function summaries            *)

type taint = Secret of string | Param of int

type summary = {
  mutable leaks : (int * string list) list;
      (* param index -> call chain to the sink, ending with its name *)
  mutable returns_params : int list;
  mutable returns_secret : bool;
}

type pass = {
  graph : Flow_graph.t;
  waivers : Waiver.t list;
  summaries : (string, summary) Hashtbl.t;
  nondet : (string, string list * int * bool) Hashtbl.t;
      (* fn qname -> (chain ending in prim, line, propagate) *)
}

type sctx = {
  p : pass;
  rel : string;
  current : string; (* enclosing module's dotted name, for resolution *)
  fname : string; (* enclosing binding name, for keys *)
  summary : summary option; (* filled during the fixpoint passes *)
  emit : (Finding.t -> unit) option; (* filled during the report pass *)
  env : (string, taint) Hashtbl.t; (* Ident.unique_name -> taint *)
}

let report ctx taint chain line =
  match taint with
  | Secret origin -> (
    match ctx.emit with
    | None -> ()
    | Some emit ->
      let sink = match List.rev chain with s :: _ -> s | [] -> "?" in
      let via =
        match chain with
        | [ _ ] -> ""
        | _ ->
          " via "
          ^ String.concat " -> "
              (List.filteri (fun i _ -> i < List.length chain - 1) chain)
      in
      emit
        (finding ~rule:"typed-secret-flow" ~file:ctx.rel ~line
           ~key:(String.concat ">" (ctx.fname :: chain))
           (Printf.sprintf
              "secret value (%s) reaches sink %s%s; log/encode a public \
               digest instead"
              origin sink via)))
  | Param i -> (
    match ctx.summary with
    | Some s when not (List.mem_assoc i s.leaks) -> s.leaks <- (i, chain) :: s.leaks
    | _ -> ())

let rec bind_pat : type k. sctx -> k general_pattern -> taint option -> unit =
 fun ctx p t ->
  let bind_var id ty =
    let t =
      match secret_ty ~current:ctx.current ty 0 with
      | Some n -> Some (Secret n)
      | None -> t
    in
    match t with
    | Some taint when not (scalar_ty ty) ->
      Hashtbl.replace ctx.env (Ident.unique_name id) taint
    | _ -> ()
  in
  match p.pat_desc with
  | Tpat_value v -> bind_pat ctx (v :> pattern) t
  | Tpat_exception _ -> ()
  | Tpat_var (id, _) -> bind_var id p.pat_type
  | Tpat_alias (sub, id, _) ->
    bind_var id p.pat_type;
    bind_pat ctx sub t
  | Tpat_tuple ps -> List.iter (fun sp -> bind_pat ctx sp t) ps
  | Tpat_construct (_, _, ps, _) -> List.iter (fun sp -> bind_pat ctx sp t) ps
  | Tpat_variant (_, po, _) -> Option.iter (fun sp -> bind_pat ctx sp t) po
  | Tpat_record (fields, _) ->
    List.iter
      (fun (_, ld, sp) ->
        let t' = if public_field ld then None else t in
        bind_pat ctx sp t')
      fields
  | Tpat_or (a, b, _) ->
    bind_pat ctx a t;
    bind_pat ctx b t
  | Tpat_array ps -> List.iter (fun sp -> bind_pat ctx sp t) ps
  | Tpat_lazy sp -> bind_pat ctx sp t
  | _ -> ()

let rec scan ctx (e : expression) : taint option =
  let narrow t =
    match t with Some _ when scalar_ty e.exp_type -> None | t -> t
  in
  let by_type () =
    Option.map (fun n -> Secret n) (secret_ty ~current:ctx.current e.exp_type 0)
  in
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) ->
    narrow
      (match Hashtbl.find_opt ctx.env (Ident.unique_name id) with
      | Some t -> Some t
      | None -> by_type ())
  | Texp_ident _ -> narrow (by_type ())
  | Texp_constant _ -> None
  | Texp_let (_, vbs, body) ->
    List.iter
      (fun vb ->
        let t = scan ctx vb.vb_expr in
        bind_pat ctx vb.vb_pat t)
      vbs;
    scan ctx body
  | Texp_function { cases; _ } ->
    (* an inner lambda: its body can still hit sinks with the outer
       environment; the lambda value itself carries no taint *)
    List.iter (fun c -> ignore (scan_case ctx None c)) cases;
    None
  | Texp_apply (head, args) -> scan_apply ctx e head args
  | Texp_match (scrut, cases, _) ->
    let t = scan ctx scrut in
    let ts = List.map (fun c -> scan_case ctx t c) cases in
    narrow (List.find_map Fun.id ts)
  | Texp_try (body, cases) ->
    let t = scan ctx body in
    let ts = List.map (fun c -> scan_case ctx None c) cases in
    narrow (match t with Some _ -> t | None -> List.find_map Fun.id ts)
  | Texp_tuple es | Texp_array es ->
    List.find_map Fun.id (List.map (scan ctx) es)
  | Texp_construct (_, _, es) ->
    narrow (List.find_map Fun.id (List.map (scan ctx) es))
  | Texp_variant (_, eo) -> Option.bind eo (scan ctx)
  | Texp_record { fields; extended_expression; _ } ->
    let ft =
      Array.to_list fields
      |> List.map (fun (_, def) ->
             match def with
             | Overridden (_, fe) -> scan ctx fe
             | Kept _ -> None)
    in
    let bt = Option.bind extended_expression (scan ctx) in
    (match List.find_map Fun.id ft with Some t -> Some t | None -> bt)
  | Texp_field (sub, _, ld) ->
    let t = scan ctx sub in
    narrow
      (match by_type () with
      | Some s -> Some s
      | None -> (
        match t with
        | Some taint when not (public_field ld) -> Some taint
        | _ -> None))
  | Texp_setfield (a, _, _, b) ->
    ignore (scan ctx a);
    ignore (scan ctx b);
    None
  | Texp_ifthenelse (c, a, b) -> (
    ignore (scan ctx c);
    let ta = scan ctx a in
    let tb = Option.bind b (scan ctx) in
    match ta with Some _ -> ta | None -> tb)
  | Texp_sequence (a, b) ->
    ignore (scan ctx a);
    scan ctx b
  | Texp_while (c, body) ->
    ignore (scan ctx c);
    ignore (scan ctx body);
    None
  | Texp_for (_, _, a, b, _, body) ->
    ignore (scan ctx a);
    ignore (scan ctx b);
    ignore (scan ctx body);
    None
  | Texp_assert (a, _) ->
    ignore (scan ctx a);
    None
  | Texp_lazy a -> scan ctx a
  | Texp_open (_, a) -> scan ctx a
  | Texp_letmodule (_, _, _, _, body) -> scan ctx body
  | Texp_letexception (_, body) -> scan ctx body
  | _ -> None

and scan_case : type k. sctx -> taint option -> k case -> taint option =
 fun ctx t c ->
  bind_pat ctx c.c_lhs t;
  Option.iter (fun g -> ignore (scan ctx g)) c.c_guard;
  scan ctx c.c_rhs

and scan_apply ctx e head args =
  let pairs =
    List.map
      (fun (_, ao) ->
        match ao with Some a -> (Some a, scan ctx a) | None -> (None, None))
      args
  in
  let any_taint = List.find_map snd pairs in
  let narrow t =
    match t with Some _ when scalar_ty e.exp_type -> None | t -> t
  in
  let by_type () =
    Option.map (fun n -> Secret n) (secret_ty ~current:ctx.current e.exp_type 0)
  in
  let default () =
    match by_type () with
    | Some s -> Some s
    | None -> if string_like e.exp_type then any_taint else None
  in
  match head.exp_desc with
  | Texp_ident (path, _, _) -> (
    let segs = Flow_graph.path_segs path in
    match sink_name segs with
    | Some sink ->
      List.iter
        (fun (ao, t) ->
          match (ao, t) with
          | Some a, Some taint -> report ctx taint [ sink ] (line_of_expr a)
          | _ -> ())
        pairs;
      None
    | None -> (
      if is_sanitizer segs then None
      else
        match secret_source segs with
        | Some src -> Some (Secret (src ^ " output"))
        | None -> (
          match
            Flow_graph.resolve_path ctx.p.graph ~rel:ctx.rel
              ~current:ctx.current path
          with
          | Some callee -> (
            match Hashtbl.find_opt ctx.p.summaries callee.qname with
            | Some s ->
              List.iteri
                (fun i (_, t) ->
                  match t with
                  | Some taint -> (
                    match List.assoc_opt i s.leaks with
                    | Some chain when List.length chain < 8 ->
                      report ctx taint (callee.qname :: chain)
                        (line_of_expr e)
                    | _ -> ())
                  | None -> ())
                pairs;
              let res =
                if s.returns_secret then
                  Some (Secret (callee.qname ^ " result"))
                else
                  List.find_mapi
                    (fun i (_, t) ->
                      if List.mem i s.returns_params then t else None)
                    pairs
              in
              (* A string built from a secret stays secret even when
                 the callee's summary lost the flow inside numeric
                 code (a GT element through [Tate.gt_to_bytes]). *)
              narrow (match res with Some _ -> res | None -> default ())
            | None -> narrow (default ()))
          | None -> narrow (default ()))))
  | _ ->
    ignore (scan ctx head);
    narrow (default ())

(* Analyze one binding: peel the parameter spine (each parameter gets
   [Param i]), then scan the body; returns the body's result taint. *)
let analyze_binding ctx body =
  let rec peel i (e : expression) =
    match e.exp_desc with
    | Texp_function { cases = [ c ]; _ } when c.c_guard = None ->
      bind_pat ctx c.c_lhs (Some (Param i));
      peel (i + 1) c.c_rhs
    | Texp_function { cases; _ } ->
      List.find_map Fun.id
        (List.map (fun c -> scan_case ctx (Some (Param i)) c) cases)
    | _ -> scan ctx e
  in
  peel 0 body

let summary_sig (s : summary) =
  ( List.sort compare (List.map fst s.leaks),
    List.sort compare s.returns_params,
    s.returns_secret )

let run_binding pass ~rel ~qname ~summary ~emit body =
  let ctx =
    {
      p = pass;
      rel;
      current = prefix_of qname;
      fname = last_seg qname;
      summary;
      emit;
      env = Hashtbl.create 16;
    }
  in
  let t = analyze_binding ctx body in
  (match (summary, t) with
  | Some s, Some (Param i) ->
    if not (List.mem i s.returns_params) then
      s.returns_params <- i :: s.returns_params
  | Some s, Some (Secret _) -> s.returns_secret <- true
  | _ -> ())

let compute_summaries pass =
  let fns = Flow_graph.functions pass.graph in
  List.iter
    (fun (fn : Flow_graph.fn) ->
      Hashtbl.replace pass.summaries fn.qname
        { leaks = []; returns_params = []; returns_secret = false })
    fns;
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 10 do
    changed := false;
    incr rounds;
    List.iter
      (fun (fn : Flow_graph.fn) ->
        let s = Hashtbl.find pass.summaries fn.qname in
        let before = summary_sig s in
        run_binding pass ~rel:fn.rel ~qname:fn.qname ~summary:(Some s)
          ~emit:None fn.body;
        if summary_sig s <> before then changed := true)
      fns
  done

(* ------------------------------------------------------------------ *)
(* Determinism, direct and transitive                                 *)

let waived pass ~rule ~file ~key =
  List.exists
    (fun (w : Waiver.t) -> w.rule = rule && w.file = file && w.key = key)
    pass.waivers

let in_lib rel = String.length rel >= 4 && String.sub rel 0 4 = "lib/"

(* Forbidden sources of nondeterminism: Random (randomness belongs to
   Sc_hash.Drbg) and the wall clocks (time to the simulated clock). *)
let nondet_prim segs =
  match strip_stdlib segs with
  | ("Random" :: _ :: _ | [ "Unix"; ("gettimeofday" | "time") ] | [ "Sys"; "time" ])
    as segs ->
    Some (String.concat "." segs)
  | _ -> None

let compute_nondet pass =
  let fns =
    List.filter
      (fun (fn : Flow_graph.fn) -> in_lib fn.rel)
      (Flow_graph.functions pass.graph)
  in
  (* reverse call edges and direct seeds *)
  let rev : (string, (Flow_graph.fn * int) list) Hashtbl.t =
    Hashtbl.create 64
  in
  let seeds = ref [] in
  List.iter
    (fun (fn : Flow_graph.fn) ->
      iter_exprs
        (fun e ->
          match e.exp_desc with
          | Texp_ident (path, _, _) -> (
            match nondet_prim (Flow_graph.path_segs path) with
            | Some prim ->
              if
                not
                  (waived pass ~rule:"determinism" ~file:fn.rel
                     ~key:(fn.name ^ ":" ^ prim))
              then seeds := (fn, prim, line_of_expr e) :: !seeds
            | None -> (
              match
                Flow_graph.resolve_path pass.graph ~rel:fn.rel
                  ~current:(prefix_of fn.qname) path
              with
              | Some callee when callee.qname <> fn.qname && in_lib callee.rel
                ->
                Hashtbl.replace rev callee.qname
                  ((fn, line_of_expr e)
                  :: Option.value ~default:[]
                       (Hashtbl.find_opt rev callee.qname))
              | _ -> ()))
          | _ -> ())
        fn.body)
    fns;
  let q = Queue.create () in
  List.iter
    (fun ((fn : Flow_graph.fn), prim, line) ->
      if not (Hashtbl.mem pass.nondet fn.qname) then begin
        Hashtbl.replace pass.nondet fn.qname ([ prim ], line, true);
        Queue.push fn.qname q
      end)
    (List.rev !seeds);
  while not (Queue.is_empty q) do
    let fq = Queue.pop q in
    match Hashtbl.find_opt pass.nondet fq with
    | Some (chain, _, true) when List.length chain < 8 ->
      List.iter
        (fun ((caller : Flow_graph.fn), line) ->
          if not (Hashtbl.mem pass.nondet caller.qname) then begin
            let chain' = fq :: chain in
            let key = caller.name ^ ">" ^ String.concat ">" chain' in
            let propagate =
              not
                (waived pass ~rule:"transitive-determinism" ~file:caller.rel
                   ~key)
            in
            Hashtbl.replace pass.nondet caller.qname (chain', line, propagate);
            if propagate then Queue.push caller.qname q
          end)
        (Option.value ~default:[] (Hashtbl.find_opt rev fq))
    | _ -> ()
  done

(* Each direct use is a chain of length 1, reported under its own rule
   id; every binding counts, anonymous toplevel ones ([let () = ...])
   included. *)
let direct_determinism (entry : Typed_load.entry) =
  let findings = ref [] in
  List.iter
    (fun (qname, _, body) ->
      let name = last_seg qname in
      iter_exprs
        (fun e ->
          match e.exp_desc with
          | Texp_ident (path, _, _) -> (
            match nondet_prim (Flow_graph.path_segs path) with
            | Some prim ->
              findings :=
                finding ~rule:"determinism" ~file:entry.rel
                  ~line:(line_of_expr e) ~key:(name ^ ":" ^ prim)
                  (Printf.sprintf
                     "%s in lib/ breaks 1-vs-N-domain value identity; use \
                      Sc_hash.Drbg for randomness and the simulated clock \
                      for time"
                     prim)
                :: !findings
            | None -> ())
          | _ -> ())
        body)
    (Flow_graph.top_bindings entry);
  !findings

let transitive_determinism pass (entry : Typed_load.entry) =
  List.filter_map
    (fun (fn : Flow_graph.fn) ->
      match Hashtbl.find_opt pass.nondet fn.qname with
      | Some (chain, line, _) when List.length chain >= 2 ->
        Some
          (finding ~rule:"transitive-determinism" ~file:entry.rel ~line
             ~key:(fn.name ^ ">" ^ String.concat ">" chain)
             (Printf.sprintf
                "%s is transitively nondeterministic: %s; thread a seed/DRBG \
                 through the call chain instead"
                fn.name
                (String.concat " -> " (fn.name :: chain))))
      | _ -> None)
    (Flow_graph.fns_in_file pass.graph ~rel:entry.rel)

(* ------------------------------------------------------------------ *)
(* Domain-capture                                                     *)

let pool_entry segs =
  match last2 (strip_stdlib segs) with
  | Some
      ( "Sc_parallel.parallel_map" | "Sc_parallel.parallel_iter"
      | "Sc_parallel.map_array" | "Sc_parallel.iter_ranges"
      | "Sc_parallel.run_tasks" ) ->
    true
  | _ -> false

type use_info = {
  uname : string;
  uty : Types.type_expr;
  uline : int;
  mutable total : int;
  mutable safe : int; (* occurrences as the target of get/set/length *)
  mutable idxs : expression list;
}

let analyze_closure pass (entry : Typed_load.entry) ~enclosing closure =
  let bound = Hashtbl.create 32 in
  let add_bound id = Hashtbl.replace bound (Ident.unique_name id) () in
  let uses : (string, use_info) Hashtbl.t = Hashtbl.create 32 in
  let ensure id (e : expression) =
    let u = Ident.unique_name id in
    match Hashtbl.find_opt uses u with
    | Some info -> info
    | None ->
      let info =
        {
          uname = Ident.name id;
          uty = e.exp_type;
          uline = line_of_expr e;
          total = 0;
          safe = 0;
          idxs = [];
        }
      in
      Hashtbl.replace uses u info;
      info
  in
  let use id e =
    let info = ensure id e in
    info.total <- info.total + 1
  in
  (* the apply case runs before the generic ident visit increments
     [total], so [ensure] must create the entry here *)
  let indexed id tgt idx =
    let info = ensure id tgt in
    info.safe <- info.safe + 1;
    Option.iter (fun i -> info.idxs <- i :: info.idxs) idx
  in
  let positional args =
    List.filter_map (fun (_, ao) -> ao) args
  in
  let note_pat : type k. k general_pattern -> unit =
   fun p ->
    match p.pat_desc with
    | Tpat_var (id, _) -> add_bound id
    | Tpat_alias (_, id, _) -> add_bound id
    | _ -> ()
  in
  let it =
    {
      Tast_iterator.default_iterator with
      pat =
        (fun it p ->
          note_pat p;
          Tast_iterator.default_iterator.pat it p);
      expr =
        (fun it e ->
          (match e.exp_desc with
          | Texp_function { param; _ } -> add_bound param
          | Texp_for (id, _, _, _, _, _) -> add_bound id
          | Texp_ident (Path.Pident id, _, _) -> use id e
          | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
            (* a.(i) / Bytes.get b i ... : the target occurrence is a
               position-addressed access; the generic Texp_ident case
               still counts it in [total] when the children are
               visited below *)
            match (last2 (strip_stdlib (Flow_graph.path_segs p)), positional args)
            with
            | ( Some
                  ( "Array.get" | "Array.set" | "Bytes.get" | "Bytes.set"
                  | "Array.unsafe_get" | "Array.unsafe_set"
                  | "Bytes.unsafe_get" | "Bytes.unsafe_set" ),
                ({ exp_desc = Texp_ident (Path.Pident id, _, _); _ } as tgt)
                :: idx :: _ ) ->
              indexed id tgt (Some idx)
            | ( Some ("Array.length" | "Bytes.length"),
                ({ exp_desc = Texp_ident (Path.Pident id, _, _); _ } as tgt)
                :: _ ) ->
              indexed id tgt None
            | _ -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr it e);
    }
  in
  (* bind the closure's own parameters, then walk *)
  it.expr it closure;
  let mentions_bound idx =
    let found = ref false in
    iter_exprs
      (fun e ->
        match e.exp_desc with
        | Texp_ident (Path.Pident id, _, _)
          when Hashtbl.mem bound (Ident.unique_name id) ->
          found := true
        | _ -> ())
      idx;
    !found
  in
  let findings = ref [] in
  Hashtbl.iter
    (fun u info ->
      if not (Hashtbl.mem bound u) then
        match
          Flow_graph.mutable_type_reason pass.graph ~current:entry.modname
            info.uty
        with
        | None -> ()
        | Some tyname ->
          let arrayish =
            tyname = "array" || tyname = "bytes"
            || last_seg tyname = "array"
            || last_seg tyname = "bytes"
          in
          let position_addressed =
            arrayish && info.total = info.safe
            && (info.idxs = [] || List.for_all mentions_bound info.idxs)
          in
          if not position_addressed then
            findings :=
              finding ~rule:"domain-capture" ~file:entry.rel ~line:info.uline
                ~key:(enclosing ^ ":" ^ info.uname)
                (Printf.sprintf
                   "closure submitted to the Sc_parallel pool captures \
                    mutable state %s : %s without Atomic/Mutex; make the \
                    state shard-owned or position-addressed"
                   info.uname tyname)
              :: !findings)
    uses;
  !findings

let domain_capture pass (entry : Typed_load.entry) =
  if
    String.length entry.rel >= 13
    && String.sub entry.rel 0 13 = "lib/parallel/"
  then []
  else
    let findings = ref [] in
    List.iter
      (fun (qname, _, body) ->
        let enclosing = last_seg qname in
        iter_exprs
          (fun e ->
            match e.exp_desc with
            | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
              when pool_entry (Flow_graph.path_segs p) ->
              List.iter
                (fun (_, ao) ->
                  match ao with
                  | None -> ()
                  | Some a ->
                    (* analyze each outermost closure in this argument *)
                    let closures = ref [] in
                    let it =
                      {
                        Tast_iterator.default_iterator with
                        expr =
                          (fun it e ->
                            match e.exp_desc with
                            | Texp_function _ -> closures := e :: !closures
                            | _ ->
                              Tast_iterator.default_iterator.expr it e);
                      }
                    in
                    it.expr it a;
                    List.iter
                      (fun c ->
                        findings :=
                          analyze_closure pass entry ~enclosing c @ !findings)
                      !closures)
                args
            | _ -> ())
          body)
      (Flow_graph.top_bindings entry);
    !findings

(* ------------------------------------------------------------------ *)
(* Discarded errors                                                   *)

let is_ignore segs = strip_stdlib segs = [ "ignore" ]

let underscore_name n = String.length n > 0 && n.[0] = '_'

let wildcard_case (c : Typedtree.computation case) =
  let rec value_wild (p : pattern) =
    match p.pat_desc with
    | Tpat_any -> true
    | Tpat_var (_, n) -> underscore_name n.txt
    | Tpat_alias (sub, _, _) -> value_wild sub
    | _ -> false
  in
  match c.c_lhs.pat_desc with
  | Tpat_value v -> value_wild (v :> pattern)
  | _ -> false

let discarded_error _pass (entry : Typed_load.entry) =
  let current = entry.modname in
  let findings = ref [] in
  let emit ~enclosing ~kind ~name ~line =
    findings :=
      finding ~rule:"discarded-error" ~file:entry.rel ~line
        ~key:(enclosing ^ ":" ^ kind ^ ":" ^ name)
        (Printf.sprintf
           "%s silently drops a typed failure (%s); match on it and surface \
            the verdict"
           (match kind with
           | "ignore" -> "ignore"
           | "wildcard" -> "wildcard match arm"
           | "unused-let" -> "let _"
           | _ -> "statement position")
           name)
      :: !findings
  in
  let check_vb ~enclosing (vb : value_binding) =
    let is_discard =
      match vb.vb_pat.pat_desc with
      | Tpat_any -> true
      | Tpat_var (_, n) -> underscore_name n.txt
      | _ -> false
    in
    if is_discard then
      match monitored_ty ~current vb.vb_expr.exp_type 0 with
      | Some name ->
        emit ~enclosing ~kind:"unused-let" ~name
          ~line:vb.vb_loc.Location.loc_start.Lexing.pos_lnum
      | None -> ()
  in
  List.iter
    (fun (qname, line, body) ->
      let enclosing = last_seg qname in
      (* anonymous [let _ = ...] at the structure level *)
      (if enclosing = "_" then
         match monitored_ty ~current body.exp_type 0 with
         | Some name -> emit ~enclosing ~kind:"unused-let" ~name ~line
         | None -> ());
      iter_exprs
        (fun e ->
          match e.exp_desc with
          | Texp_apply
              ({ exp_desc = Texp_ident (p, _, _); _ }, [ (_, Some a) ])
            when is_ignore (Flow_graph.path_segs p) -> (
            match monitored_ty ~current a.exp_type 0 with
            | Some name ->
              emit ~enclosing ~kind:"ignore" ~name ~line:(line_of_expr a)
            | None -> ())
          | Texp_let (_, vbs, _) -> List.iter (check_vb ~enclosing) vbs
          | Texp_match (scrut, cases, _) -> (
            match monitored_ty ~current scrut.exp_type 0 with
            | Some name ->
              List.iter
                (fun c ->
                  if wildcard_case c then
                    emit ~enclosing ~kind:"wildcard" ~name
                      ~line:(line_of_pat c.c_lhs))
                cases
            | None -> ())
          | Texp_sequence (a, _) -> (
            match monitored_ty ~current a.exp_type 0 with
            | Some name ->
              emit ~enclosing ~kind:"discard" ~name ~line:(line_of_expr a)
            | None -> ())
          | _ -> ())
        body)
    (Flow_graph.top_bindings entry);
  !findings

(* ------------------------------------------------------------------ *)
(* Secret-flow reporting pass                                         *)

let secret_flow pass (entry : Typed_load.entry) =
  let findings = ref [] in
  List.iter
    (fun (qname, _, body) ->
      run_binding pass ~rel:entry.rel ~qname ~summary:None
        ~emit:(Some (fun f -> findings := f :: !findings))
        body)
    (Flow_graph.top_bindings entry);
  !findings

(* ------------------------------------------------------------------ *)
(* Dead exports                                                       *)

(* The roots whose cmts count as callers of a lib/ export.  test/ is
   not one: a value only the tests reach is dead, a test oracle, or a
   hook waived by name. *)
let caller_roots = [ "lib"; "bin"; "bench"; "perfbench"; "examples" ]

let under_caller_root rel =
  List.exists
    (fun root ->
      let r = root ^ "/" in
      String.length rel > String.length r
      && String.sub rel 0 (String.length r) = r)
    caller_roots

(* A module path as plain dotted segments, local aliases expanded.
   dune's "Lib__Mod" splits into "Lib"; "Mod", and its alias module
   "Lib__" leaves an empty segment that is dropped. *)
let rec module_segs aliases = function
  | Path.Pident id -> (
    match Hashtbl.find_opt aliases (Ident.unique_name id) with
    | Some segs -> segs
    | None ->
      List.filter (( <> ) "")
        (String.split_on_char '.'
           (Typed_load.normalize_modname (Ident.name id))))
  | Path.Pdot (p, s) -> module_segs aliases p @ [ s ]
  | Path.Papply (p, _) | Path.Pextra_ty (p, _) -> module_segs aliases p

(* The file's own structure-level values, nested modules included:
   Ident.unique_name -> qualified name.  A bare identifier outside this
   table is a local variable, not a reference to an export. *)
let own_values (entry : Typed_load.entry) =
  let tbl = Hashtbl.create 64 in
  let add prefix id =
    Hashtbl.replace tbl (Ident.unique_name id) (prefix ^ "." ^ Ident.name id)
  in
  let rec items prefix (str : structure) =
    List.iter
      (fun (it : structure_item) ->
        match it.str_desc with
        | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match vb.vb_pat.pat_desc with
              | Tpat_var (id, _) | Tpat_alias (_, id, _) -> add prefix id
              | _ -> ())
            vbs
        | Tstr_primitive vd -> add prefix vd.val_id
        | Tstr_module { mb_name = { txt = Some m; _ }; mb_expr; _ } ->
          module_expr (prefix ^ "." ^ m) mb_expr
        | _ -> ())
      str.str_items
  and module_expr prefix me =
    match me.mod_desc with
    | Tmod_structure str -> items prefix str
    | Tmod_constraint (me, _, _, _) -> module_expr prefix me
    | _ -> ()
  in
  items entry.modname entry.structure;
  tbl

(* The value paths one file references, and the module paths it uses
   whole (include, functor argument, packing), as dotted strings.  An
   alias binding ([module T = Sc_pairing.Tate]) and an [open] name a
   module without using all of it. *)
let references (entry : Typed_load.entry) =
  let own = own_values entry in
  let aliases = Hashtbl.create 8 in
  let values = ref [] and modules = ref [] in
  let rec alias_target (me : module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _) -> Some p
    | Tmod_constraint (me, _, _, _) -> alias_target me
    | _ -> None
  in
  let alias id me =
    match (id, alias_target me) with
    | Some id, Some p ->
      Hashtbl.replace aliases (Ident.unique_name id) (module_segs aliases p);
      true
    | _ -> false
  in
  let modname p = String.concat "." (module_segs aliases p) in
  let default = Tast_iterator.default_iterator in
  let it =
    {
      default with
      expr =
        (fun it e ->
          match e.exp_desc with
          | Texp_ident (Path.Pident id, _, _) -> (
            match Hashtbl.find_opt own (Ident.unique_name id) with
            | Some q -> values := q :: !values
            | None -> ())
          | Texp_ident (Path.Pdot (p, v), _, _) ->
            values := (modname p ^ "." ^ v) :: !values
          | Texp_letmodule (id, _, _, me, body) when alias id me ->
            it.expr it body
          | _ -> default.expr it e);
      structure_item =
        (fun it si ->
          match si.str_desc with
          | Tstr_module mb when alias mb.mb_id mb.mb_expr -> ()
          | _ -> default.structure_item it si);
      open_declaration =
        (fun it od ->
          match od.open_expr.mod_desc with
          | Tmod_ident _ -> ()
          | _ -> default.open_declaration it od);
      module_expr =
        (fun it me ->
          (match me.mod_desc with
          | Tmod_ident (p, _) -> modules := modname p :: !modules
          | _ -> ());
          default.module_expr it me);
    }
  in
  it.structure it entry.structure;
  (!values, !modules)

(* Every [val] of an interface, nested signatures included, as
   (path inside the module, line). *)
let exported_values (intf : Typed_load.intf) =
  let rec sig_items prefix items =
    List.concat_map
      (fun (it : signature_item) ->
        match it.sig_desc with
        | Tsig_value vd ->
          [ (prefix ^ vd.val_name.txt, vd.val_loc.Location.loc_start.Lexing.pos_lnum) ]
        | Tsig_module { md_name = { txt = Some m; _ }; md_type; _ } -> (
          match md_type.mty_desc with
          | Tmty_signature sg -> sig_items (prefix ^ m ^ ".") sg.sig_items
          | _ -> [])
        | _ -> [])
      items
  in
  sig_items "" intf.signature.sig_items

let dead_exports (intfs : Typed_load.intf list) ~(callers : Typed_load.entry list) =
  let lib_intfs = List.filter (fun (i : Typed_load.intf) -> in_lib i.irel) intfs in
  (* qualified export -> (owning module, used inside it, used outside) *)
  let uses = Hashtbl.create 512 in
  List.iter
    (fun (i : Typed_load.intf) ->
      List.iter
        (fun (path, _) ->
          Hashtbl.replace uses (i.imodname ^ "." ^ path) (i.imodname, ref false, ref false))
        (exported_values i))
    lib_intfs;
  let mark ~current q =
    match Hashtbl.find_opt uses q with
    | Some (owner, inside, outside) ->
      if owner = current then inside := true else outside := true
    | None -> ()
  in
  List.iter
    (fun (e : Typed_load.entry) ->
      if under_caller_root e.rel then begin
        let values, modules = references e in
        let current = e.modname in
        List.iter
          (fun v ->
            mark ~current v;
            mark ~current (current ^ "." ^ v))
          values;
        List.iter
          (fun m ->
            List.iter
              (fun m ->
                let pfx = m ^ "." in
                let n = String.length pfx in
                Hashtbl.iter
                  (fun q _ ->
                    if String.length q > n && String.sub q 0 n = pfx then
                      mark ~current q)
                  uses)
              [ m; current ^ "." ^ m ])
          modules
      end)
    callers;
  List.concat_map
    (fun (i : Typed_load.intf) ->
      List.filter_map
        (fun (path, line) ->
          let _, inside, outside = Hashtbl.find uses (i.imodname ^ "." ^ path) in
          if !outside then None
          else
            Some
              (finding ~rule:"dead-export" ~file:i.irel ~line ~key:path
                 (if !inside then
                    Printf.sprintf
                      "%s is exported but only %s itself uses it; drop it \
                       from the interface"
                      path i.imodname
                  else
                    Printf.sprintf
                      "%s is exported but nothing outside %s and test/ \
                       references it (callers: %s); delete it, move it to \
                       test/reference.ml, or waive it as a test hook"
                      path i.imodname (String.concat " " caller_roots))))
        (exported_values i))
    lib_intfs

(* ------------------------------------------------------------------ *)
(* Entry points                                                       *)

let prepare graph ~waivers =
  let pass =
    { graph; waivers; summaries = Hashtbl.create 256; nondet = Hashtbl.create 64 }
  in
  compute_summaries pass;
  compute_nondet pass;
  pass

let lint pass (entry : Typed_load.entry) =
  let fs =
    secret_flow pass entry @ domain_capture pass entry
    @ discarded_error pass entry
    @
    if in_lib entry.rel then
      direct_determinism entry @ transitive_determinism pass entry
    else []
  in
  List.sort_uniq Finding.compare fs
