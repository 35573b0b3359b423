type func =
  | Sum
  | Average
  | Max
  | Min
  | Count
  | Dot of int list
  | Polynomial of int list
  | Compose of func * func list

type request = { func : func; position : int }
type service = request list

let rec apply f xs =
  match f with
  | Sum -> List.fold_left ( + ) 0 xs
  | Average ->
    (match xs with [] -> 0 | _ -> List.fold_left ( + ) 0 xs / List.length xs)
  | Max -> (match xs with [] -> 0 | x :: rest -> List.fold_left max x rest)
  | Min -> (match xs with [] -> 0 | x :: rest -> List.fold_left min x rest)
  | Count -> List.length xs
  | Dot weights ->
    let rec dot acc ws vs =
      match ws, vs with
      | [], _ | _, [] -> acc
      | w :: ws, v :: vs -> dot (acc + (w * v)) ws vs
    in
    dot 0 weights xs
  | Polynomial coeffs ->
    let x = List.fold_left ( + ) 0 xs in
    List.fold_right (fun c acc -> (acc * x) + c) coeffs 0
  | Compose (outer, inners) -> apply outer (List.map (fun g -> apply g xs) inners)

let eval f (b : Sc_storage.Block.t) =
  Option.map (apply f) (Sc_storage.Block.decode_ints b.Sc_storage.Block.data)

let random_func ~drbg =
  match Sc_hash.Drbg.uniform_int drbg 7 with
  | 0 -> Sum
  | 1 -> Average
  | 2 -> Max
  | 3 -> Min
  | 4 -> Count
  | 5 ->
    Dot (List.init (1 + Sc_hash.Drbg.uniform_int drbg 4) (fun _ ->
             1 + Sc_hash.Drbg.uniform_int drbg 9))
  | _ ->
    Polynomial (List.init (1 + Sc_hash.Drbg.uniform_int drbg 3) (fun _ ->
                    Sc_hash.Drbg.uniform_int drbg 16))

let random_service ~drbg ~n_positions ~n_tasks =
  List.init n_tasks (fun _ ->
      { func = random_func ~drbg; position = Sc_hash.Drbg.uniform_int drbg n_positions })
