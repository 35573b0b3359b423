(* CLI: sc_lint [--root DIR] [--waivers FILE] [--stale-waivers]
                [--no-waivers] [--json] [DIR ...]

   Lints every .ml under the given directories (default: lib bin test,
   relative to --root), applies the waiver baseline, and prints the
   remaining findings as "file:line rule severity message".  The rules
   read the cmts under <root>/_build/default (or <root> itself when it
   is a build tree); a file without one is a no-cmt error, so build
   with `dune build @check` first.

   --json emits every finding (waived ones flagged) as a JSON array on
   stdout — stable order, schema in DESIGN.md §4g — with the usual
   summary on stderr.

   Exit status: 0 clean, 1 unwaived error findings (or, with
   --stale-waivers, stale baseline entries), 2 usage / waiver-file
   errors. *)

open Sc_lint_core

let usage () =
  prerr_endline
    "usage: sc_lint [--root DIR] [--waivers FILE] [--stale-waivers] \
     [--no-waivers] [--json] [DIR ...]";
  exit 2

let () =
  let root = ref "." in
  let waivers_file = ref None in
  let use_waivers = ref true in
  let check_stale = ref false in
  let json = ref false in
  let dirs = ref [] in
  let rec parse = function
    | [] -> ()
    | "--root" :: v :: rest ->
      root := v;
      parse rest
    | "--waivers" :: v :: rest ->
      waivers_file := Some v;
      parse rest
    | "--stale-waivers" :: rest ->
      check_stale := true;
      parse rest
    | "--no-waivers" :: rest ->
      use_waivers := false;
      parse rest
    | "--json" :: rest ->
      json := true;
      parse rest
    | ("--help" | "-h") :: _ -> usage ()
    | d :: rest when String.length d > 0 && d.[0] <> '-' ->
      dirs := d :: !dirs;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let dirs =
    match List.rev !dirs with [] -> [ "lib"; "bin"; "test" ] | ds -> ds
  in
  let waiver_path =
    match !waivers_file with
    | Some p -> p
    | None -> Filename.concat !root "lint/waivers.sexp"
  in
  let r =
    match
      Engine.gate ~root:!root
        ~waivers:(if !use_waivers then Some waiver_path else None)
        dirs
    with
    | Ok r -> r
    | Error msg ->
      Printf.eprintf "sc_lint: %s\n" msg;
      exit 2
  in
  if !json then begin
    (* [r.findings] is already sorted by Finding.compare (the stable
       order the schema documents); just tag each with its waiver
       status *)
    print_string "[";
    List.iteri
      (fun i f ->
        if i > 0 then print_string ",";
        print_string "\n  ";
        print_string (Finding.to_json ~waived:(List.mem f r.waived) f))
      r.findings;
    if r.findings <> [] then print_string "\n";
    print_endline "]"
  end
  else List.iter (fun f -> print_endline (Finding.to_string f)) r.unwaived;
  if !check_stale then
    List.iter
      (fun w ->
        Printf.eprintf "%s: stale waiver %s\n" waiver_path (Waiver.to_string w))
      r.stale;
  let errors =
    List.filter (fun f -> f.Finding.severity = Finding.Error) r.unwaived
  in
  Printf.eprintf
    "sc_lint: %d file(s), %d with cmt, %d finding(s): %d error(s) unwaived, \
     %d waived, %d informational%s\n"
    r.sources r.typed (List.length r.findings) (List.length errors)
    (List.length r.waived)
    (List.length
       (List.filter (fun f -> f.Finding.severity = Finding.Info) r.unwaived))
    (if !check_stale then
       Printf.sprintf ", %d stale waiver(s)" (List.length r.stale)
     else "");
  if errors <> [] || (!check_stale && r.stale <> []) then exit 1
