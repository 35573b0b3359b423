(* File discovery, the informational no-mli rule, and the lint gate.
   Every rule runs on the Typedtree ([Typed_rules]); [gate] is the one
   entry point the CLI and the self-lint test share, so the two cannot
   drift apart. *)

type source = {
  rel : string; (* root-relative, '/'-separated *)
  has_mli : bool;
}

let in_lib rel = String.starts_with ~prefix:"lib/" rel

let no_mli (src : source) =
  if in_lib src.rel && not src.has_mli then
    [
      {
        Finding.rule = "no-mli";
        file = src.rel;
        line = 1;
        severity = Finding.Info;
        key = src.rel;
        msg =
          "library module has no .mli; its public surface is implicit \
           (informational)";
      };
    ]
  else []

(* Every source must have a cmt: a file the rules cannot see is an
   error.  A file that does not parse has none either. *)
let no_cmt ~build_dir rel =
  {
    Finding.rule = "no-cmt";
    file = rel;
    line = 1;
    severity = Finding.Error;
    key = rel;
    msg =
      Printf.sprintf
        "no .cmt for this file under %s, so the lint rules cannot run on \
         it; build the cmts first (dune build @check)"
        build_dir;
  }

(* The pass reads three kinds of cmt: the linted sources', the
   .cmti of each linted lib/ interface, and those of the callers
   dead-export counts.  Any of them missing is a no-cmt error, so an
   unbuilt caller cannot make an export look dead or alive. *)
let lint_all ~build_dir ~waivers ~callers srcs =
  let rels = List.map (fun (s : source) -> s.rel) srcs in
  let intf_rels =
    List.filter_map
      (fun (s : source) ->
        if in_lib s.rel && s.has_mli then Some (s.rel ^ "i") else None)
      srcs
  in
  let caller_rels = List.filter (fun r -> not (List.mem r rels)) callers in
  let entries, intfs =
    Typed_load.scan ~build_dir ~rels:(rels @ intf_rels @ caller_rels)
  in
  let linted =
    List.filter (fun (e : Typed_load.entry) -> List.mem e.rel rels) entries
  in
  let pass = Typed_rules.prepare (Flow_graph.build linted) ~waivers in
  let found =
    List.map (fun (e : Typed_load.entry) -> e.rel) entries
    @ List.map (fun (i : Typed_load.intf) -> i.irel) intfs
  in
  let missing =
    List.filter_map
      (fun rel -> if List.mem rel found then None else Some (no_cmt ~build_dir rel))
      (rels @ intf_rels @ caller_rels)
  in
  List.sort_uniq Finding.compare
    (List.concat_map no_mli srcs
    @ List.concat_map (Typed_rules.lint pass) linted
    @ Typed_rules.dead_exports intfs ~callers:entries
    @ missing)

(* ------------------------------------------------------------------ *)
(* Filesystem walk                                                    *)

let is_ml name =
  Filename.check_suffix name ".ml" && not (Filename.check_suffix name ".pp.ml")

let rec walk dir =
  match Sys.readdir dir with
  | entries ->
    Array.sort String.compare entries;
    Array.fold_left
      (fun acc name ->
        let path = Filename.concat dir name in
        if Sys.is_directory path then
          if name = "_build" || name.[0] = '.' then acc else acc @ walk path
        else if is_ml name then acc @ [ path ]
        else acc)
      [] entries
  | exception Sys_error _ -> []

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let collect_files ~root dirs : source list =
  List.concat_map
    (fun dir ->
      let abs = Filename.concat root dir in
      if not (Sys.file_exists abs) then []
      else
        List.map
          (fun path ->
            (* root-relative with '/' separators for stable waiver keys;
               "./lib/..." and "lib/..." must compare equal no matter
               what cwd/--root spelling the caller used *)
            let rel =
              let r = Filename.concat root "" in
              let n = String.length r in
              let rel =
                if String.length path > n && String.sub path 0 n = r then
                  String.sub path n (String.length path - n)
                else path
              in
              let rec strip rel =
                if String.length rel > 2 && String.sub rel 0 2 = "./" then
                  strip (String.sub rel 2 (String.length rel - 2))
                else rel
              in
              strip rel
            in
            { rel; has_mli = Sys.file_exists (path ^ "i") })
          (walk abs))
    dirs

(* ------------------------------------------------------------------ *)
(* The gate                                                           *)

type report = {
  sources : int;
  typed : int;
  findings : Finding.t list;
  unwaived : Finding.t list;
  waived : Finding.t list;
  stale : Waiver.t list;
}

(* dune's cmts live under <root>/_build/default; inside _build (where
   the self-lint test runs) they sit next to the sources. *)
let build_dir_of root =
  let dir = Filename.concat root "_build/default" in
  if Sys.file_exists dir && Sys.is_directory dir then dir else root

(* A module that a dune rule writes (lib/bignum's kernels) exists only
   under the build dir; it is linted from its cmt like the sources
   beside it.  Inside _build the walk of [root] already finds it. *)
let generated ~root dirs =
  let build_dir = build_dir_of root in
  if build_dir = root then []
  else
    List.filter
      (fun (s : source) -> not (Sys.file_exists (Filename.concat root s.rel)))
      (collect_files ~root:build_dir dirs)

let gate ~root ~waivers dirs =
  let baseline =
    match waivers with
    | None -> Ok []
    | Some path -> (
      match read_file path with
      | exception Sys_error msg -> Error msg
      | content ->
        Result.map_error (fun msg -> path ^ ": " ^ msg) (Waiver.parse content))
  in
  Result.map
    (fun ws ->
      let srcs = collect_files ~root dirs @ generated ~root dirs in
      let callers =
        List.map
          (fun (s : source) -> s.rel)
          (collect_files ~root Typed_rules.caller_roots)
      in
      let findings =
        lint_all ~build_dir:(build_dir_of root) ~waivers:ws ~callers srcs
      in
      let unwaived, waived, stale = Waiver.apply ws findings in
      let untyped =
        List.length
          (List.filter (fun (f : Finding.t) -> f.rule = "no-cmt") findings)
      in
      {
        sources = List.length srcs;
        typed = List.length srcs - untyped;
        findings;
        unwaived;
        waived;
        stale;
      })
    baseline
