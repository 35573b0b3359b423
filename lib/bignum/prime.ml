(* Sieve of Eratosthenes: all scratch state is local to the call, so
   the only thing that escapes to the toplevel is the frozen array. *)
let sieve limit =
  let composite = Array.make (limit + 1) false in
  let primes = ref [] in
  for i = 2 to limit do
    if not composite.(i) then begin
      primes := i :: !primes;
      let j = ref (i * i) in
      while !j <= limit do
        composite.(!j) <- true;
        j := !j + i
      done
    end
  done;
  Array.of_list (List.rev !primes)

let small_primes = sieve 10_000

let divisible_by_small_prime n =
  let top = Array.length small_primes - 1 in
  let rec go i =
    if i > top then false
    else begin
      let p = small_primes.(i) in
      if Nat.rem_int n p = 0 then not (Nat.equal n (Nat.of_int p)) else go (i + 1)
    end
  in
  go 0

(* One Miller-Rabin round for witness [a]: n - 1 = d * 2^s with d odd.
   a^d and its squarings stay in the Montgomery domain (n is odd
   here); [minus_one] is the domain image of n - 1. *)
let mr_round mont minus_one d s a =
  let module M = Montgomery in
  let rec squares x i = M.equal x minus_one || (i < s - 1 && squares (M.sqr mont x) (i + 1)) in
  let x = M.pow_mont mont (M.to_mont mont a) d in
  M.equal x (M.one mont) || squares x 0

let is_probably_prime ?(rounds = 32) ~bytes_source n =
  if Nat.compare n Nat.two < 0 then false
  else if Nat.equal n Nat.two then true
  else if Nat.is_even n then false
  else if divisible_by_small_prime n then false
  else if Nat.compare n (Nat.of_int 10_000 |> Nat.sqr) < 0 then
    (* Below 10^8 trial division by the sieve is a complete test. *)
    true
  else begin
    let mont = Montgomery.create n in
    let n_minus_1 = Nat.sub n Nat.one in
    let minus_one = Montgomery.to_mont mont n_minus_1 in
    let rec split d s = if Nat.is_even d then split (Nat.shift_right d 1) (s + 1) else d, s in
    let d, s = split n_minus_1 0 in
    let n_minus_3 = Nat.sub n (Nat.of_int 3) in
    let rec rounds_left k =
      if k = 0 then true
      else begin
        let a = Nat.add Nat.two (Nat.random_below ~bytes_source n_minus_3) in
        if mr_round mont minus_one d s a then rounds_left (k - 1) else false
      end
    in
    rounds_left rounds
  end

let random_prime ~bytes_source ~bits =
  if bits < 2 then invalid_arg "Prime.random_prime: bits < 2";
  let top_bit = Nat.shift_left Nat.one (bits - 1) in
  let rec draw () =
    let r = Nat.random ~bytes_source ~bits:(bits - 1) in
    let candidate =
      let c = Nat.add top_bit r in
      if Nat.is_even c then Nat.add c Nat.one else c
    in
    if Nat.bit_length candidate = bits && is_probably_prime ~bytes_source candidate
    then candidate
    else draw ()
  in
  draw ()
