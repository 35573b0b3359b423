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
        (* Below 10^8 the test is trial division by the sieve's primes,
           so it must pick out exactly the 1229 primes below 10_000. *)
        let primes =
          List.filter
            (fun n -> Prime.is_probably_prime ~bytes_source:bs (Nat.of_int n))
            (List.init 10_000 Fun.id)
        in
        check Alcotest.int "count below 10000" 1229 (List.length primes);
        check (Alcotest.list Alcotest.int) "first primes" [ 2; 3; 5; 7 ]
          (List.filteri (fun i _ -> i < 4) primes);
        check Alcotest.int "last prime below 10000" 9973
          (List.nth primes (List.length primes - 1)));
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
