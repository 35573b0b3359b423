(* Loading Typedtrees for the typed pass.

   dune leaves one .cmt per compiled module under the build directory
   ([lib/<d>/.<lib>.objs/byte/<lib>__<Mod>.cmt] for libraries,
   [.../ .<exe>.eobjs/byte/dune__exe__<Mod>.cmt] for executables — the
   latter only after [dune build @check]).  We scan for them, keep the
   [Implementation] ones whose [cmt_sourcefile] is a file we were asked
   to lint, and normalise the module name ("Sc_hash__Drbg" ->
   "Sc_hash.Drbg", "Dune__exe__Foo" -> "Foo") so the flow graph can
   speak in the dotted names that appear in resolved [Path.t]s.

   [typecheck] runs the compiler front end in-process against the
   repo's own .cmi directories; the fixture tests use it so each typed
   rule can be exercised on small positive/negative programs without
   a dune round trip. *)

type entry = {
  rel : string; (* root-relative source path, e.g. "lib/hash/drbg.ml" *)
  modname : string; (* normalised dotted module name, e.g. "Sc_hash.Drbg" *)
  structure : Typedtree.structure;
}

type intf = {
  irel : string; (* "lib/hash/drbg.mli" *)
  imodname : string;
  signature : Typedtree.signature;
}

(* "Sc_hash__Drbg" -> "Sc_hash.Drbg"; dune's separator is a literal
   double underscore, which cannot appear in a single OCaml module
   name dune generates. *)
let normalize_modname m =
  let m =
    let pfx = "Dune__exe__" in
    if
      String.length m > String.length pfx
      && String.sub m 0 (String.length pfx) = pfx
    then String.sub m (String.length pfx) (String.length m - String.length pfx)
    else m
  in
  let buf = Buffer.create (String.length m) in
  let n = String.length m in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && m.[!i] = '_' && m.[!i + 1] = '_' then begin
      Buffer.add_char buf '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char buf m.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let rec walk_cmts dir acc =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
    Array.sort String.compare entries;
    Array.fold_left
      (fun acc name ->
        let path = Filename.concat dir name in
        if Sys.is_directory path then walk_cmts path acc
        else if
          Filename.check_suffix name ".cmt" || Filename.check_suffix name ".cmti"
        then path :: acc
        else acc)
      acc entries

(* .cmt files carry implementations, .cmti files interfaces; both are
   keyed by their [cmt_sourcefile]. *)
let scan ~build_dir ~rels =
  let wanted = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace wanted r ()) rels;
  let seen = Hashtbl.create 64 in
  let entries, intfs =
    List.fold_left
      (fun ((es, is) as acc) path ->
        match Cmt_format.read_cmt path with
        | exception _ -> acc
        | cmt -> (
          match cmt.Cmt_format.cmt_sourcefile with
          | Some src when Hashtbl.mem wanted src && not (Hashtbl.mem seen src)
            -> (
            let modname = normalize_modname cmt.cmt_modname in
            match cmt.cmt_annots with
            | Cmt_format.Implementation structure ->
              Hashtbl.replace seen src ();
              ({ rel = src; modname; structure } :: es, is)
            | Cmt_format.Interface signature ->
              Hashtbl.replace seen src ();
              (es, { irel = src; imodname = modname; signature } :: is)
            | _ -> acc)
          | _ -> acc))
      ([], [])
      (walk_cmts build_dir [])
  in
  ( List.sort (fun a b -> String.compare a.rel b.rel) entries,
    List.sort (fun a b -> String.compare a.irel b.irel) intfs )

(* ------------------------------------------------------------------ *)
(* In-process typechecking for fixture tests                          *)

let front_end ~include_dirs ~modname ~rel content type_it =
  Clflags.include_dirs := include_dirs;
  (* fixtures deliberately contain unused/partial code; silence every
     warning so only type errors surface *)
  ignore (Warnings.parse_options false "-a");
  Compmisc.init_path ();
  Env.set_unit_name modname;
  let env = Compmisc.initial_env () in
  let lexbuf = Lexing.from_string content in
  Location.init lexbuf rel;
  match type_it env lexbuf with
  | r -> Ok r
  | exception exn -> (
    match Location.error_of_exn exn with
    | Some (`Ok report) ->
      let buf = Buffer.create 256 in
      let fmt = Format.formatter_of_buffer buf in
      Location.print_report fmt report;
      Format.pp_print_flush fmt ();
      Error (Buffer.contents buf)
    | _ -> Error (Printexc.to_string exn))

let typecheck ~include_dirs ~modname ~rel content =
  front_end ~include_dirs ~modname ~rel content (fun env lexbuf ->
      let structure, _, _, _, _ =
        Typemod.type_structure env (Parse.implementation lexbuf)
      in
      { rel; modname; structure })

let typecheck_intf ~include_dirs ~modname ~rel content =
  front_end ~include_dirs ~modname ~rel content (fun env lexbuf ->
      let signature = Typemod.transl_signature env (Parse.interface lexbuf) in
      { irel = rel; imodname = modname; signature })
