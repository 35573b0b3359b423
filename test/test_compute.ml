open Sc_compute
module Block = Sc_storage.Block
module Server = Sc_storage.Server
module Merkle = Sc_merkle.Dynamic_tree

let system = Lazy.force Util.shared_system
let pub = Seccloud.System.public system
let cs_key = Seccloud.System.cs_key system "cs-1"
let alice = Seccloud.System.register_user system "alice"
let bs = Util.fresh_bs "compute-tests"

let payloads = List.init 20 (fun i -> Block.encode_ints [ i; 2 * i; 3 * i ])

let make_server () =
  let server = Server.create Server.Honest ~drbg:(Sc_hash.Drbg.create ~seed:"x") in
  Server.store server
    (Sc_storage.Signer.sign_file pub alice ~bytes_source:bs ~bases:(Sc_storage.Signer.bases pub alice ~cs_id:"cs-1" ~da_id:"da") ~file:"data" payloads);
  server

(* [f] over a block whose payload holds [xs]. *)
let apply f xs =
  Option.get
    (Task.eval f { Block.file = "f"; index = 0; data = Block.encode_ints xs })

let sum_service n = List.init n (fun i -> { Task.func = Task.Sum; position = i })

let task_tests =
  let open Util in
  [
    case "function semantics" (fun () ->
        let xs = [ 3; 1; 4; 1; 5 ] in
        check Alcotest.int "sum" 14 (apply Task.Sum xs);
        check Alcotest.int "average" 2 (apply Task.Average xs);
        check Alcotest.int "max" 5 (apply Task.Max xs);
        check Alcotest.int "min" 1 (apply Task.Min xs);
        check Alcotest.int "count" 5 (apply Task.Count xs);
        check Alcotest.int "dot[1;2;3]" (3 + 2 + 12)
          (apply (Task.Dot [ 1; 2; 3 ]) xs);
        (* p(x) = 1 + 2x + x² at x = 14 *)
        check Alcotest.int "poly" (1 + 28 + 196)
          (apply (Task.Polynomial [ 1; 2; 1 ]) xs));
    case "empty payload semantics" (fun () ->
        List.iter
          (fun f -> check Alcotest.int "empty" 0 (apply f []))
          [ Task.Sum; Task.Average; Task.Max; Task.Min; Task.Count ]);
    case "compose applies outer to inner results" (fun () ->
        let f = Task.Compose (Task.Max, [ Task.Sum; Task.Min; Task.Count ]) in
        check Alcotest.int "max(sum,min,count)" 14 (apply f [ 3; 1; 4; 1; 5 ]));
    case "eval decodes block payloads" (fun () ->
        let b = { Block.file = "f"; index = 0; data = Block.encode_ints [ 10; 20 ] } in
        check Alcotest.(option int) "sum" (Some 30) (Task.eval Task.Sum b);
        let bad = { Block.file = "f"; index = 0; data = "not-numbers" } in
        check Alcotest.(option int) "bad" None (Task.eval Task.Sum bad));
    case "random_service respects bounds" (fun () ->
        let drbg = Sc_hash.Drbg.create ~seed:"svc" in
        let svc = Task.random_service ~drbg ~n_positions:7 ~n_tasks:40 in
        check Alcotest.int "count" 40 (List.length svc);
        List.iter
          (fun r ->
            if r.Task.position < 0 || r.Task.position >= 7
            then Alcotest.fail "position out of range")
          svc);
  ]

let executor_tests =
  let open Util in
  [
    case "honest execution computes correct results" (fun () ->
        let server = make_server () in
        let drbg = Sc_hash.Drbg.create ~seed:"exec" in
        let exec =
          Executor.run pub ~cs_key ~server ~behaviour:Executor.Honest ~drbg
            ~owner:"alice" ~file:"data" (sum_service 20)
        in
        Array.iteri
          (fun i y -> check Alcotest.int (Printf.sprintf "sum@%d" i) (6 * i) y)
          (Executor.results exec));
    case "empty service rejected" (fun () ->
        let server = make_server () in
        let drbg = Sc_hash.Drbg.create ~seed:"exec" in
        Alcotest.check_raises "empty" (Invalid_argument "Executor.run: empty service")
          (fun () ->
            ignore
              (Executor.run pub ~cs_key ~server ~behaviour:Executor.Honest ~drbg
                 ~owner:"alice" ~file:"data" [])));
    case "commitment root is signed by the server" (fun () ->
        let server = make_server () in
        let drbg = Sc_hash.Drbg.create ~seed:"exec" in
        let exec =
          Executor.run pub ~cs_key ~server ~behaviour:Executor.Honest ~drbg
            ~owner:"alice" ~file:"data" (sum_service 8)
        in
        check Alcotest.bool "root sig" true
          (Sc_ibc.Ibs.verify pub ~signer:"cs-1"
             ~msg:("root:" ^ Executor.root exec)
             (Executor.root_signature exec)));
    case "responses carry verifying Merkle paths" (fun () ->
        let server = make_server () in
        let drbg = Sc_hash.Drbg.create ~seed:"exec" in
        let exec =
          Executor.run pub ~cs_key ~server ~behaviour:Executor.Honest ~drbg
            ~owner:"alice" ~file:"data" (sum_service 12)
        in
        for i = 0 to 11 do
          let r = Executor.respond exec i in
          let leaf =
            Executor.leaf_payload ~result:r.Executor.result
              ~position:r.Executor.request.Task.position
          in
          check Alcotest.bool "path ok" true
            (Merkle.verify ~root:(Executor.root exec)
               ~leaf_hash:(Merkle.leaf_hash leaf) r.Executor.proof);
          check Alcotest.(pair int int) "claims slot i of 12" (i, 12)
            (r.Executor.proof.Merkle.index, r.Executor.proof.Merkle.total)
        done);
    case "respond out of bounds raises" (fun () ->
        let server = make_server () in
        let drbg = Sc_hash.Drbg.create ~seed:"exec" in
        let exec =
          Executor.run pub ~cs_key ~server ~behaviour:Executor.Honest ~drbg
            ~owner:"alice" ~file:"data" (sum_service 4)
        in
        Alcotest.check_raises "oob"
          (Invalid_argument "Executor.respond: index out of bounds") (fun () ->
            ignore (Executor.respond exec 4)));
    case "guessing executor produces wrong results" (fun () ->
        let server = make_server () in
        let drbg = Sc_hash.Drbg.create ~seed:"cheat" in
        let exec =
          Executor.run pub ~cs_key ~server
            ~behaviour:(Executor.Guess_fraction (1.0, 7))
            ~drbg ~owner:"alice" ~file:"data" (sum_service 20)
        in
        let wrong = ref 0 in
        Array.iteri
          (fun i y -> if y <> 6 * i then incr wrong)
          (Executor.results exec);
        check Alcotest.bool "mostly wrong" true (!wrong > 10));
    case "skip executor returns constants" (fun () ->
        let server = make_server () in
        let drbg = Sc_hash.Drbg.create ~seed:"cheat" in
        let exec =
          Executor.run pub ~cs_key ~server ~behaviour:(Executor.Skip_fraction 1.0)
            ~drbg ~owner:"alice" ~file:"data" (sum_service 20)
        in
        Array.iter (fun y -> check Alcotest.int "zero" 0 y) (Executor.results exec));
    case "commit-garbage executor: answers right, tree wrong" (fun () ->
        let server = make_server () in
        let drbg = Sc_hash.Drbg.create ~seed:"cheat" in
        let exec =
          Executor.run pub ~cs_key ~server
            ~behaviour:(Executor.Commit_garbage_fraction 1.0) ~drbg
            ~owner:"alice" ~file:"data" (sum_service 10)
        in
        (* Answers are correct... *)
        Array.iteri
          (fun i y -> check Alcotest.int "honest answer" (6 * i) y)
          (Executor.results exec);
        (* ...but no Merkle path matches them. *)
        let r = Executor.respond exec 0 in
        let leaf =
          Executor.leaf_payload ~result:r.Executor.result
            ~position:r.Executor.request.Task.position
        in
        check Alcotest.bool "root mismatch" false
          (Merkle.verify ~root:(Executor.root exec)
             ~leaf_hash:(Merkle.leaf_hash leaf) r.Executor.proof));
  ]

let suite = task_tests @ executor_tests
