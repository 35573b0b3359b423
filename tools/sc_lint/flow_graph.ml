(* The cross-module view the typed rules share: every toplevel (and
   module-nested) binding of every loaded file, addressable by the
   dotted names that resolved [Path.t]s produce, plus a repo-wide
   mutability classification of declared types.

   Name resolution has to cope with the three forms a resolved path
   takes in a cmt: fully qualified ("Sc_ibc.Setup.identity_key"),
   alias-shortened from inside the owning library ("Drbg.t",
   "Setup.sio"), and bare in the defining file itself ("t", "sio").
   [resolve_written] tries exact, then current-module-qualified, then
   a unique ".suffix" match (preferring candidates from the same
   library when ambiguous). *)

type fn = {
  qname : string; (* "Sc_hash.Drbg.generate" *)
  name : string; (* last segment *)
  rel : string;
  line : int;
  body : Typedtree.expression;
}

type t = {
  by_qname : (string, fn) Hashtbl.t;
  fns : fn list; (* sorted by qname *)
  by_rel : (string, fn list) Hashtbl.t;
  idents : (string, (string, string) Hashtbl.t) Hashtbl.t;
      (* rel -> Ident.unique_name -> qname: cmt ident stamps are only
         unique within one compilation, so Pident lookup is per-file *)
  mutable_types : (string, unit) Hashtbl.t; (* fixpointed decl qnames *)
}

(* ------------------------------------------------------------------ *)
(* Paths                                                              *)

let rec raw_segs = function
  | Path.Pident id -> [ Ident.name id ]
  | Path.Pdot (p, s) -> raw_segs p @ [ s ]
  | Path.Papply (p, _) -> raw_segs p
  | Path.Pextra_ty (p, _) -> raw_segs p

(* dune mangles compilation units as Lib__Mod; split those back so
   every segment is a plain name. *)
let path_segs p =
  List.concat_map
    (fun s -> String.split_on_char '.' (Typed_load.normalize_modname s))
    (raw_segs p)

let path_name p = String.concat "." (path_segs p)

let last1 segs = match List.rev segs with s :: _ -> Some s | [] -> None

let last2 segs =
  match List.rev segs with b :: a :: _ -> Some (a ^ "." ^ b) | _ -> None

let first_seg s =
  match String.index_opt s '.' with
  | Some i -> String.sub s 0 i
  | None -> s

let ends_with ~suffix s =
  let ls = String.length s and lx = String.length suffix in
  ls >= lx && String.sub s (ls - lx) lx = suffix

(* ------------------------------------------------------------------ *)
(* Structure walk: bindings and type declarations with dotted prefixes *)

let walk_structure (entry : Typed_load.entry)
    ~(value : string -> Ident.t option -> int -> Typedtree.expression -> unit)
    ~(typ : string -> Typedtree.type_declaration -> unit) =
  let rec str_items prefix items =
    List.iter
      (fun (it : Typedtree.structure_item) ->
        match it.str_desc with
        | Tstr_value (_, vbs) ->
          List.iter
            (fun (vb : Typedtree.value_binding) ->
              let line = vb.vb_loc.Location.loc_start.Lexing.pos_lnum in
              match vb.vb_pat.pat_desc with
              | Tpat_var (id, _) | Tpat_alias (_, id, _) ->
                value (prefix ^ "." ^ Ident.name id) (Some id) line vb.vb_expr
              | _ -> value (prefix ^ "._") None line vb.vb_expr)
            vbs
        | Tstr_type (_, decls) -> List.iter (typ prefix) decls
        | Tstr_module mb -> module_binding prefix mb
        | Tstr_recmodule mbs -> List.iter (module_binding prefix) mbs
        | _ -> ())
      items
  and module_binding prefix (mb : Typedtree.module_binding) =
    match mb.mb_name.txt with
    | None -> ()
    | Some name -> module_expr (prefix ^ "." ^ name) mb.mb_expr
  and module_expr prefix (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_structure str -> str_items prefix str.str_items
    | Tmod_constraint (me, _, _, _) -> module_expr prefix me
    | _ -> ()
  in
  str_items entry.modname entry.structure.str_items

let top_bindings entry =
  let acc = ref [] in
  walk_structure entry
    ~value:(fun qname _ line body -> acc := (qname, line, body) :: !acc)
    ~typ:(fun _ _ -> ());
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Mutability of types                                                *)

let sync_exempt segs =
  match last2 segs with
  | Some ("Atomic.t" | "Mutex.t" | "Condition.t") -> true
  (* Write-once value types whose representation happens to contain
     arrays: Nat limbs and Montgomery-domain elements/contexts are
     never mutated after construction (the in-place limb writes all
     target freshly allocated scratch before the value escapes), and
     the pairing precomp tables (comb/Miller entries) are built once
     and then only read — all are deliberately shared across domains.
     Without this the mutability fixpoint would mark every
     key/point/commitment/params type racy. *)
  | Some
      ( "Nat.t" | "Curve.precomp" | "Miller.precomp" | "Montgomery.ctx"
      | "Montgomery.mont" ) ->
    true
  | _ -> List.mem "Semaphore" segs

let builtin_mutable segs =
  match last1 segs with
  | Some ("ref" | "array" | "bytes") -> true
  | _ -> (
    match last2 segs with
    | Some ("Hashtbl.t" | "Buffer.t" | "Queue.t" | "Stack.t") -> true
    | _ -> false)

(* containers with an immutable spine: shared mutation is still
   possible through the elements, so recurse into the arguments *)
let immutable_container segs =
  match last1 segs with
  | Some ("list" | "option") -> true
  | _ -> (
    match last2 segs with
    | Some ("Seq.t" | "Lazy.t" | "Either.t" | "Result.t") -> true
    | _ -> last1 segs = Some "result")

type decl = {
  dq : string; (* qualified name, "Sc_hash.Drbg.t" *)
  dmod : string; (* declaring module, for resolving short field types *)
  direct : bool; (* has a mutable record field (incl. inline records) *)
  fields : Types.type_expr list; (* contained types, for the fixpoint *)
}

let decl_of prefix (td : Typedtree.type_declaration) =
  let fields = ref [] in
  let direct = ref false in
  let add_ct (ct : Typedtree.core_type) = fields := ct.ctyp_type :: !fields in
  let labels lds =
    List.iter
      (fun (ld : Typedtree.label_declaration) ->
        if ld.ld_mutable = Asttypes.Mutable then direct := true;
        add_ct ld.ld_type)
      lds
  in
  (match td.typ_kind with
  | Ttype_record lds -> labels lds
  | Ttype_variant cds ->
    List.iter
      (fun (cd : Typedtree.constructor_declaration) ->
        match cd.cd_args with
        | Cstr_tuple cts -> List.iter add_ct cts
        | Cstr_record lds -> labels lds)
      cds
  | Ttype_abstract | Ttype_open -> ());
  Option.iter add_ct td.typ_manifest;
  {
    dq = prefix ^ "." ^ td.typ_name.txt;
    dmod = prefix;
    direct = !direct;
    fields = !fields;
  }

(* Resolve a written dotted name against a key set: exact, then
   current-module-qualified, then unique ".written" suffix (same
   library preferred on ties). *)
let resolve_written ~mem ~keys ~current written =
  if mem written then Some written
  else
    let qualified = current ^ "." ^ written in
    if mem qualified then Some qualified
    else
      let suffix = "." ^ written in
      match List.filter (ends_with ~suffix) keys with
      | [ k ] -> Some k
      | [] -> None
      | cands -> (
        let lib = first_seg current in
        match List.filter (fun k -> first_seg k = lib) cands with
        | [ k ] -> Some k
        | _ -> None)

(* Is this type mutable?  Returns the offending head name.  [lookup]
   resolves a written constructor name to a known-mutable declaration
   (or None).  Depth-bounded: nested containers beyond that are not
   how shard state is expressed. *)
let rec type_mutable_reason ~lookup ty depth : string option =
  if depth > 6 then None
  else
    match Types.get_desc ty with
    | Tconstr (p, args, _) ->
      let segs = path_segs p in
      let name = String.concat "." segs in
      if sync_exempt segs then None
      else if builtin_mutable segs then Some name
      else if lookup name then Some name
      else if immutable_container segs then
        List.find_map
          (fun a -> type_mutable_reason ~lookup a (depth + 1))
          args
      else None
    | Ttuple comps ->
      List.find_map (fun c -> type_mutable_reason ~lookup c (depth + 1)) comps
    | Tpoly (ty, _) -> type_mutable_reason ~lookup ty (depth + 1)
    | _ -> None

let build_mutable_set decls =
  let set = Hashtbl.create 32 in
  let lookup current name =
    let keys = Hashtbl.fold (fun k () acc -> k :: acc) set [] in
    resolve_written ~mem:(Hashtbl.mem set) ~keys ~current name <> None
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun d ->
        if not (Hashtbl.mem set d.dq) then
          let mutable_now =
            d.direct
            || List.exists
                 (fun ty ->
                   type_mutable_reason ~lookup:(lookup d.dmod) ty 0 <> None)
                 d.fields
          in
          if mutable_now then begin
            Hashtbl.replace set d.dq ();
            changed := true
          end)
      decls
  done;
  set

(* ------------------------------------------------------------------ *)
(* Build                                                              *)

let build (entries : Typed_load.entry list) : t =
  let by_qname = Hashtbl.create 256 in
  let by_rel = Hashtbl.create 64 in
  let idents = Hashtbl.create 64 in
  let decls = ref [] in
  let fns = ref [] in
  List.iter
    (fun (entry : Typed_load.entry) ->
      let itbl = Hashtbl.create 32 in
      Hashtbl.replace idents entry.rel itbl;
      walk_structure entry
        ~value:(fun qname id line body ->
          match id with
          | None -> ()
          | Some id ->
            let name =
              match String.rindex_opt qname '.' with
              | Some i -> String.sub qname (i + 1) (String.length qname - i - 1)
              | None -> qname
            in
            let fn = { qname; name; rel = entry.rel; line; body } in
            if not (Hashtbl.mem by_qname qname) then begin
              Hashtbl.replace by_qname qname fn;
              fns := fn :: !fns
            end;
            Hashtbl.replace itbl (Ident.unique_name id) qname;
            Hashtbl.replace by_rel entry.rel
              (fn :: Option.value ~default:[] (Hashtbl.find_opt by_rel entry.rel)))
        ~typ:(fun prefix td ->
          (* telemetry's counters/gauges are mutable by design and
             guarded by the registry mutex (DESIGN §4f); treating them
             as racy capture material would waiver every counter *)
          if first_seg prefix <> "Sc_telemetry" then
            decls := decl_of prefix td :: !decls))
    entries;
  let fns = List.sort (fun a b -> String.compare a.qname b.qname) !fns in
  Hashtbl.iter
    (fun rel l -> Hashtbl.replace by_rel rel (List.rev l))
    (Hashtbl.copy by_rel);
  { by_qname; fns; by_rel; idents; mutable_types = build_mutable_set !decls }

let functions t = t.fns

let fns_in_file t ~rel =
  Option.value ~default:[] (Hashtbl.find_opt t.by_rel rel)

let fn_qnames t = List.map (fun f -> f.qname) t.fns

let resolve_name t ~current written =
  match
    resolve_written
      ~mem:(Hashtbl.mem t.by_qname)
      ~keys:(fn_qnames t) ~current written
  with
  | Some q -> Hashtbl.find_opt t.by_qname q
  | None -> None

let resolve_path t ~rel ~current (p : Path.t) =
  match p with
  | Path.Pident id -> (
    match Hashtbl.find_opt t.idents rel with
    | None -> None
    | Some itbl -> (
      match Hashtbl.find_opt itbl (Ident.unique_name id) with
      | Some q -> Hashtbl.find_opt t.by_qname q
      | None -> None))
  | _ -> resolve_name t ~current (path_name p)

let mutable_type_reason t ~current ty =
  let keys = Hashtbl.fold (fun k () acc -> k :: acc) t.mutable_types [] in
  let lookup name =
    resolve_written ~mem:(Hashtbl.mem t.mutable_types) ~keys ~current name
    <> None
  in
  type_mutable_reason ~lookup ty 0
