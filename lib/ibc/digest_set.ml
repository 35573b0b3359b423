let capacity = 256

type key = string
type t = (key, unit) Hashtbl.t

let key s = Sc_hash.Sha256.digest s
let create () : t = Hashtbl.create 16
let size = Hashtbl.length
let mem = Hashtbl.mem

let add t key =
  if not (Hashtbl.mem t key) then begin
    if Hashtbl.length t >= capacity then Hashtbl.reset t;
    Hashtbl.replace t key ()
  end

let remove = Hashtbl.remove
