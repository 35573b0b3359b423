open Sc_bignum

let known_primes =
  [ "2"; "3"; "5"; "7"; "65537"; "1000000007"; "32416190071";
    (* 2^127 - 1, a Mersenne prime *)
    "170141183460469231731687303715884105727" ]

let known_composites =
  [ "1"; "4"; "100"; "65536"; "1000000008";
    (* Carmichael numbers defeat Fermat but not Miller-Rabin *)
    "561"; "41041"; "825265";
    (* 2^128 + 1 is composite *)
    "340282366920938463463374607431768211457" ]

let unit_tests =
  let open Util in
  let bs = Util.fresh_bs "prime-tests" in
  [
    case "small_primes sieve sanity" (fun () ->
        check Alcotest.int "first prime" 2 Prime.small_primes.(0);
        check Alcotest.int "second prime" 3 Prime.small_primes.(1);
        check Alcotest.int "count below 10000" 1229
          (Array.length Prime.small_primes);
        check Alcotest.int "last prime below 10000" 9973
          Prime.small_primes.(Array.length Prime.small_primes - 1));
    case "known primes accepted" (fun () ->
        List.iter
          (fun p ->
            check Alcotest.bool p true
              (Prime.is_probably_prime ~bytes_source:bs (Util.nat_of_decimal p)))
          known_primes);
    case "known composites rejected" (fun () ->
        List.iter
          (fun c ->
            check Alcotest.bool c false
              (Prime.is_probably_prime ~bytes_source:bs (Util.nat_of_decimal c)))
          known_composites);
    case "zero and one are not prime" (fun () ->
        check Alcotest.bool "0" false
          (Prime.is_probably_prime ~bytes_source:bs Nat.zero);
        check Alcotest.bool "1" false
          (Prime.is_probably_prime ~bytes_source:bs Nat.one));
    case "next_prime" (fun () ->
        let np n = Nat.to_int_exn (Prime.next_prime ~bytes_source:bs (Nat.of_int n)) in
        check Alcotest.int "next from 0" 2 (np 0);
        check Alcotest.int "next from 8" 11 (np 8);
        check Alcotest.int "next from 7919" 7919 (np 7919);
        check Alcotest.int "next from 7920" 7927 (np 7920));
    case "random_prime has requested size and is odd" (fun () ->
        List.iter
          (fun bits ->
            let p = Prime.random_prime ~bytes_source:bs ~bits in
            check Alcotest.int "bits" bits (Nat.bit_length p);
            check Alcotest.bool "odd" false (Nat.is_even p))
          [ 16; 64; 128; 256 ]);
    slow_case "random 512-bit prime" (fun () ->
        let p = Prime.random_prime ~bytes_source:bs ~bits:512 in
        check Alcotest.int "bits" 512 (Nat.bit_length p);
        (* Verify with an independent witness set. *)
        check Alcotest.bool "still prime" true
          (Prime.is_probably_prime ~bytes_source:(Util.fresh_bs "recheck") p));
    case "product of two primes rejected" (fun () ->
        let p = Prime.random_prime ~bytes_source:bs ~bits:64 in
        let q = Prime.random_prime ~bytes_source:bs ~bits:64 in
        check Alcotest.bool "pq composite" false
          (Prime.is_probably_prime ~bytes_source:bs (Nat.mul p q)));
  ]

let suite = unit_tests
