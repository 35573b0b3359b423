type t = { file : string; index : int; data : string }

(* Canonical length-prefixed encoding: the old "block|%s|%d|%s" format
   was forgeable under delimiter injection (file "f|1" at index 2 and
   file "f" at index 1 with a "2|"-prefixed payload serialize to the
   same message, cross-binding one signature to the other triple). *)
let signing_message b =
  Sc_hash.Encode.canonical
    [ "block"; b.file; string_of_int b.index; b.data ]

let encode_ints ints = String.concat "," (List.map string_of_int ints)

let decode_ints s =
  if String.length s = 0 then Some []
  else begin
    let parts = String.split_on_char ',' s in
    let rec convert acc = function
      | [] -> Some (List.rev acc)
      | part :: rest ->
        (match int_of_string_opt part with
        | Some v -> convert (v :: acc) rest
        | None -> None)
    in
    convert [] parts
  end
