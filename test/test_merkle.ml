module T = Sc_merkle.Dynamic_tree

let verify_payload t payload proof =
  T.verify ~root:(T.root t) ~leaf_hash:(T.leaf_hash payload) proof

let unit_tests =
  let open Util in
  [
    case "build rejects empty" (fun () ->
        Alcotest.check_raises "empty"
          (Invalid_argument "Dynamic_tree: empty leaf list") (fun () ->
            ignore (T.build [])));
    case "single leaf: root = leaf hash" (fun () ->
        let t = T.build [ "only" ] in
        check Alcotest.string "root" (T.leaf_hash "only") (T.root t);
        check Alcotest.int "size" 1 (List.length (T.leaf_hashes t));
        let p = T.proof t 0 in
        check Alcotest.int "no siblings" 0 (List.length p.T.path);
        check Alcotest.bool "proof verifies" true (verify_payload t "only" p));
    case "deterministic roots" (fun () ->
        let leaves = List.init 9 (Printf.sprintf "leaf-%d") in
        check Alcotest.bool "same" true
          (String.equal (T.root (T.build leaves)) (T.root (T.build leaves))));
    case "order sensitivity" (fun () ->
        let a = T.build [ "x"; "y" ] and b = T.build [ "y"; "x" ] in
        check Alcotest.bool "different" false (String.equal (T.root a) (T.root b)));
    case "leaf/node domain separation" (fun () ->
        (* A two-leaf tree's root must differ from the leaf hash of the
           concatenation (no second-preimage shortcut). *)
        let t = T.build [ "ab"; "cd" ] in
        check Alcotest.bool "distinct" false
          (String.equal (T.root t) (T.leaf_hash "abcd")));
    case "proofs verify at every size and index" (fun () ->
        List.iter
          (fun n ->
            let payloads = List.init n (Printf.sprintf "p%d-%d" n) in
            let t = T.build payloads in
            List.iteri
              (fun i payload ->
                if not (verify_payload t payload (T.proof t i)) then
                  Alcotest.failf "size %d index %d" n i)
              payloads)
          [ 1; 2; 3; 4; 5; 7; 8; 9; 15; 16; 17; 33; 64; 100 ]);
    case "proof for wrong payload fails" (fun () ->
        let t = T.build [ "a"; "b"; "c"; "d"; "e" ] in
        check Alcotest.bool "wrong payload" false
          (verify_payload t "x" (T.proof t 2)));
    case "proof against wrong root fails" (fun () ->
        let t = T.build [ "a"; "b"; "c"; "d" ] in
        let other = T.build [ "a"; "b"; "c"; "x" ] in
        check Alcotest.bool "wrong root" false
          (T.verify ~root:(T.root other) ~leaf_hash:(T.leaf_hash "a")
             (T.proof t 0)));
    case "tampered sibling in path fails" (fun () ->
        let t = T.build [ "a"; "b"; "c"; "d" ] in
        let proof = T.proof t 1 in
        let tampered =
          {
            proof with
            T.path =
              (match proof.T.path with
              | h :: rest -> T.leaf_hash (h ^ "!") :: rest
              | [] -> []);
          }
        in
        check Alcotest.bool "tampered" false (verify_payload t "b" tampered));
    case "hash count must equal the geometry depth" (fun () ->
        let t = T.build [ "a"; "b"; "c"; "d"; "e" ] in
        let p = T.proof t 1 in
        let leaf_hash = T.leaf_hash "b" in
        check Alcotest.bool "extra hash" false
          (verify_payload t "b" { p with T.path = p.T.path @ [ leaf_hash ] });
        check Alcotest.bool "missing hash" false
          (verify_payload t "b" { p with T.path = List.tl p.T.path });
        List.iter
          (fun (index, total) ->
            check Alcotest.(option string) "claim out of range" None
              (T.root_of_proof ~leaf_hash { p with T.index; total }))
          [ 0, 0; 5, 5; -1, 5; 7, 5 ]);
    case "proof out of bounds raises" (fun () ->
        let t = T.build [ "a"; "b" ] in
        Alcotest.check_raises "oob"
          (Invalid_argument "Dynamic_tree.proof: out of bounds") (fun () ->
            ignore (T.proof t 2)));
    case "modify changes root and proofs" (fun () ->
        let t = T.build [ "a"; "b"; "c"; "d"; "e" ] in
        let t' = T.modify t 3 (T.leaf_hash "D") in
        check Alcotest.bool "root changed" false (String.equal (T.root t) (T.root t'));
        check Alcotest.bool "new proof ok" true (verify_payload t' "D" (T.proof t' 3));
        check Alcotest.bool "old payload fails" false
          (verify_payload t' "d" (T.proof t' 3));
        (* untouched leaves still verify *)
        check Alcotest.bool "other leaf ok" true
          (verify_payload t' "a" (T.proof t' 0)));
  ]

let property_tests =
  let open Util in
  let gen_leaves =
    QCheck2.Gen.(list_size (int_range 1 80) (string_size ~gen:printable (int_range 0 20)))
  in
  [
    qcheck ~count:60 "all proofs verify on random trees" gen_leaves (fun leaves ->
        let t = T.build leaves in
        List.for_all
          (fun i -> verify_payload t (List.nth leaves i) (T.proof t i))
          (List.init (List.length leaves) Fun.id));
    qcheck ~count:60 "any single-leaf tamper is detected"
      QCheck2.Gen.(pair gen_leaves small_nat)
      (fun (leaves, idx) ->
        let n = List.length leaves in
        let i = idx mod n in
        let t = T.build leaves in
        let tampered = List.mapi (fun j l -> if j = i then l ^ "~" else l) leaves in
        let t' = T.build tampered in
        not (String.equal (T.root t) (T.root t')));
    qcheck ~count:60 "of_leaf_hashes agrees with build" gen_leaves (fun leaves ->
        String.equal
          (T.root (T.build leaves))
          (T.root (T.of_leaf_hashes (List.map T.leaf_hash leaves))));
  ]

(* --- mutations, rank geometry and the frontier ---------------------- *)

let dyn_sizes = [ 1; 2; 3; 5; 7; 8; 9; 15; 16; 17; 31; 32; 33 ]

let payloads tag n = List.init n (Printf.sprintf "%s-%d-%d" tag n)

let same_root payloads dt = String.equal (Reference.merkle_root payloads) (T.root dt)

let with_domains n f =
  let saved = Sc_parallel.domain_count () in
  Sc_parallel.set_domain_count n;
  Fun.protect ~finally:(fun () -> Sc_parallel.set_domain_count saved) f

let dynamic_unit_tests =
  let open Util in
  [
    case "dynamic: roots equal the naive reference at every size" (fun () ->
        List.iter
          (fun n ->
            let ps = payloads "eq" n in
            if not (same_root ps (T.build ps)) then
              Alcotest.failf "size %d root mismatch" n)
          dyn_sizes);
    case "dynamic: rank proofs verify at every size and index" (fun () ->
        List.iter
          (fun n ->
            let ps = payloads "pf" n in
            let t = T.build ps in
            List.iteri
              (fun i p ->
                let proof = T.proof t i in
                if not (verify_payload t p proof) then
                  Alcotest.failf "size %d index %d" n i;
                if proof.T.total <> n || proof.T.index <> i then
                  Alcotest.failf "size %d index %d: bad annotations" n i)
              ps)
          dyn_sizes);
    case "dynamic: proof geometry matches expected_geometry" (fun () ->
        List.iter
          (fun n ->
            let t = T.build (payloads "geo" n) in
            for i = 0 to n - 1 do
              let geom = T.expected_geometry ~total:n ~index:i in
              if geom <> Reference.merkle_sides ~total:n ~index:i then
                Alcotest.failf "size %d index %d sides" n i;
              if List.length (T.proof t i).T.path <> List.length geom then
                Alcotest.failf "size %d index %d depth" n i
            done)
          dyn_sizes);
    case "dynamic: relocated proof fails (position binding)" (fun () ->
        (* A server cannot serve leaf j's data under index i: the claim
           (index, total) fixes the path geometry arithmetically. *)
        let n = 11 in
        let ps = payloads "rel" n in
        let t = T.build ps in
        let p3 = T.proof t 3 in
        let relabelled = { p3 with T.index = 5 } in
        check Alcotest.bool "relabelled index" false
          (verify_payload t (List.nth ps 3) relabelled);
        (* A total only changes the fold where it changes this index's
           geometry (3 of 5 has three siblings, 3 of 11 four); callers
           bind [total] to a signed count. *)
        let shrunk = { p3 with T.total = 5 } in
        check Alcotest.bool "shrunk total" false
          (verify_payload t (List.nth ps 3) shrunk);
        let swapped =
          { (T.proof t 6) with T.index = 3 }
        in
        check Alcotest.bool "leaf 6 as leaf 3" false
          (verify_payload t (List.nth ps 6) swapped));
    case "dynamic: modify at every size and index equals rebuild" (fun () ->
        List.iter
          (fun n ->
            let ps = payloads "mod" n in
            let t = T.build ps in
            for i = 0 to n - 1 do
              let ps' = List.mapi (fun j p -> if j = i then "new!" else p) ps in
              let t' = T.modify t i (T.leaf_hash "new!") in
              if not (same_root ps' t') then Alcotest.failf "size %d idx %d" n i;
              (* persistence: the original version is untouched *)
              if not (same_root ps t) then Alcotest.failf "size %d mutated" n
            done)
          [ 1; 2; 3; 5; 7; 9; 16; 17; 33 ]);
    case "dynamic: append chain equals rebuild at every length" (fun () ->
        let rec go t ps n =
          if n <= 40 then begin
            let p = Printf.sprintf "app-%d" n in
            let ps = ps @ [ p ] in
            let t = T.append t (T.leaf_hash p) in
            if not (same_root ps t) then Alcotest.failf "length %d" n;
            go t ps (n + 1)
          end
        in
        go (T.build [ "app-0" ]) [ "app-0" ] 1);
    case "dynamic: frontier tracks every root" (fun () ->
        List.iter
          (fun n ->
            let t = T.build (payloads "fr" n) in
            let f = T.Frontier.of_tree t in
            check Alcotest.int "total" n (T.Frontier.total f);
            check Alcotest.string "root" (T.root t) (T.Frontier.root f))
          dyn_sizes);
    case "dynamic: frontier append and modify match the tree" (fun () ->
        let t0 = T.build (payloads "fam" 5) in
        let f0 = T.Frontier.of_tree t0 in
        (* appends *)
        let t1 = T.append t0 (T.leaf_hash "x5") in
        let f1 = T.Frontier.append f0 (T.leaf_hash "x5") in
        check Alcotest.string "append root" (T.root t1) (T.Frontier.root f1);
        (* modify via a proof from the appended tree *)
        let p = T.proof t1 2 in
        let t2 = T.modify t1 2 (T.leaf_hash "y2") in
        let f2 = T.Frontier.modify f1 p ~leaf_hash:(T.leaf_hash "y2") in
        check Alcotest.string "modify root" (T.root t2) (T.Frontier.root f2));
  ]

let dynamic_property_tests =
  let open Util in
  let gen_leaves =
    QCheck2.Gen.(
      list_size (int_range 1 48) (string_size ~gen:printable (int_range 0 16)))
  in
  (* A random mutation script over a model list: every reachable root
     must equal the naive reference root of the model. *)
  let gen_script =
    QCheck2.Gen.(
      pair gen_leaves (list_size (int_range 1 24) (pair bool nat)))
  in
  let run_script (leaves, script) =
    let step (model, t) (modify, r) =
      let n = List.length model in
      if modify then
        let i = r mod n in
        let p = Printf.sprintf "m%d" r in
        ( List.mapi (fun j x -> if j = i then p else x) model,
          T.modify t i (T.leaf_hash p) )
      else
        let p = Printf.sprintf "a%d" r in
        (model @ [ p ], T.append t (T.leaf_hash p))
    in
    let check_state (model, t) =
      same_root model t && List.length (T.leaf_hashes t) = List.length model
    in
    let final =
      List.fold_left
        (fun state op ->
          let state = step state op in
          if not (check_state state) then raise Exit;
          state)
        (leaves, T.build leaves) script
    in
    check_state final
  in
  [
    qcheck ~count:40 "dynamic: every reachable root equals the naive reference"
      gen_script (fun input ->
        try run_script input with Exit -> false);
    qcheck ~count:20 "dynamic: root equivalence holds at 1 and 4 domains"
      gen_script (fun input ->
        let at n = with_domains n (fun () -> try run_script input with Exit -> false) in
        at 1 && at 4);
    qcheck ~count:60 "dynamic: rank proofs verify on random trees" gen_leaves
      (fun leaves ->
        (* Grown by appends rather than built in one go. *)
        let t =
          List.fold_left
            (fun t l -> T.append t (T.leaf_hash l))
            (T.build [ List.hd leaves ])
            (List.tl leaves)
        in
        List.for_all
          (fun i -> verify_payload t (List.nth leaves i) (T.proof t i))
          (List.init (List.length leaves) Fun.id));
    qcheck ~count:60 "dynamic: of_leaf_hashes agrees with the naive reference"
      gen_leaves (fun leaves ->
        let hs = List.map T.leaf_hash leaves in
        String.equal (Reference.merkle_root_of_hashes hs) (T.root (T.of_leaf_hashes hs)));
  ]

let suite =
  unit_tests @ property_tests @ dynamic_unit_tests @ dynamic_property_tests
