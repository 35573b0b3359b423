open Sc_bignum

type public = { n : Nat.t; e : Nat.t }
type secret = { pub : public; d : Nat.t }

let e_default = Nat.of_int 65537

let generate ~bytes_source ~bits =
  if bits < 16 then invalid_arg "Rsa.generate: modulus too small";
  let half = bits / 2 in
  let rec keygen () =
    let p = Prime.random_prime ~bytes_source ~bits:half in
    let q = Prime.random_prime ~bytes_source ~bits:(bits - half) in
    if Nat.equal p q then keygen ()
    else begin
      let n = Nat.mul p q in
      let phi = Nat.mul (Nat.sub p Nat.one) (Nat.sub q Nat.one) in
      match Nat.inv_mod e_default phi with
      | exception Not_found -> keygen ()
      | d -> { pub = { n; e = e_default }; d }
    end
  in
  keygen ()

let fdh pub msg =
  let nbytes = ((Nat.bit_length pub.n + 7) / 8) + 8 in
  let buf = Buffer.create nbytes in
  let block = ref 0 in
  while Buffer.length buf < nbytes do
    Buffer.add_string buf
      (Sc_hash.Sha256.digest_concat [ "rsa-fdh:"; string_of_int !block; ":"; msg ]);
    incr block
  done;
  Nat.rem (Nat.of_bytes_be (Buffer.sub buf 0 nbytes)) pub.n

(* n = p·q is odd, so exponentiation runs in the Montgomery domain. *)
let raw_sign sk m = Montgomery.pow (Montgomery.create sk.pub.n) m sk.d
let raw_verify pub s = Montgomery.pow (Montgomery.create pub.n) s pub.e
let sign sk msg = raw_sign sk (fdh sk.pub msg)
let verify pub msg s = Nat.equal (raw_verify pub s) (fdh pub msg)
