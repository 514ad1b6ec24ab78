(* Unit tests for the growable int vector (lib/core/ivec.ml), the backing
   store of the engine's per-node fault sets. *)
open Engine

let check = Alcotest.check
let int_t = Alcotest.int

let test_basics () =
  let v = Ivec.create () in
  check Alcotest.bool "fresh is empty" true (Ivec.is_empty v);
  check int_t "fresh length" 0 (Ivec.length v);
  Ivec.push v 7;
  Ivec.push v 11;
  check Alcotest.bool "non-empty" false (Ivec.is_empty v);
  check int_t "length" 2 (Ivec.length v);
  check int_t "get 0" 7 (Ivec.get v 0);
  check int_t "get 1" 11 (Ivec.get v 1);
  Ivec.clear v;
  check Alcotest.bool "cleared" true (Ivec.is_empty v)

let test_growth () =
  (* start below the default capacity and push far past it *)
  let v = Ivec.create ~capacity:1 () in
  for i = 0 to 9999 do
    Ivec.push v (i * 3)
  done;
  check int_t "length after growth" 10000 (Ivec.length v);
  for i = 0 to 9999 do
    if Ivec.get v i <> i * 3 then
      Alcotest.failf "element %d corrupted by growth" i
  done

let test_iter_order () =
  let v = Ivec.create ~capacity:2 () in
  List.iter (Ivec.push v) [ 5; 1; 4; 1; 3 ];
  let seen = ref [] in
  Ivec.iter (fun x -> seen := x :: !seen) v;
  check (Alcotest.list int_t) "iter in insertion order" [ 5; 1; 4; 1; 3 ]
    (List.rev !seen);
  check (Alcotest.array int_t) "to_array" [| 5; 1; 4; 1; 3 |] (Ivec.to_array v)

let test_clear_reuse () =
  let v = Ivec.create ~capacity:2 () in
  List.iter (Ivec.push v) [ 1; 2; 3 ];
  Ivec.clear v;
  List.iter (Ivec.push v) [ 9; 8 ];
  check (Alcotest.array int_t) "reused after clear" [| 9; 8 |] (Ivec.to_array v)

let test_errors () =
  let v = Ivec.create () in
  (match Ivec.get v 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "get of empty accepted");
  Ivec.push v 1;
  (match Ivec.get v 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-bounds get accepted");
  match Ivec.get v (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative get accepted"

let suite =
  [
    Alcotest.test_case "push/get/clear" `Quick test_basics;
    Alcotest.test_case "growth keeps contents" `Quick test_growth;
    Alcotest.test_case "iteration order" `Quick test_iter_order;
    Alcotest.test_case "clear then reuse" `Quick test_clear_reuse;
    Alcotest.test_case "bounds errors" `Quick test_errors;
  ]
