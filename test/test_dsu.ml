open Netgraph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Nodes that are their own representative: one per component. *)
let count_roots d n =
  let c = ref 0 in
  for i = 0 to n - 1 do
    if Dsu.find d i = i then incr c
  done;
  !c

let test_initial () =
  let d = Dsu.create 5 in
  check_int "components" 5 (Dsu.components d);
  for i = 0 to 4 do
    check_int (Printf.sprintf "find %d" i) i (Dsu.find d i);
    check_int (Printf.sprintf "size %d" i) 1 (Dsu.size d i)
  done;
  check_int "roots" 5 (count_roots d 5)

let test_union () =
  let d = Dsu.create 6 in
  check_bool "fresh union" true (Dsu.union d 0 1);
  check_bool "already joined" false (Dsu.union d 1 0);
  check_bool "chain" true (Dsu.union d 1 2);
  check_int "component size" 3 (Dsu.size d 0);
  check_int "components" 4 (Dsu.components d);
  check_int "same root" (Dsu.find d 0) (Dsu.find d 2)

let test_union_all () =
  let d = Dsu.create 100 in
  for i = 1 to 99 do
    ignore (Dsu.union d 0 i)
  done;
  check_int "one component" 1 (Dsu.components d);
  check_int "full size" 100 (Dsu.size d 57);
  check_int "single root" 1 (count_roots d 100)

let test_roots_are_representatives () =
  let d = Dsu.create 8 in
  ignore (Dsu.union d 0 1);
  ignore (Dsu.union d 2 3);
  ignore (Dsu.union d 0 3);
  check_int "5 components" 5 (count_roots d 8);
  check_int "one root per component" (Dsu.components d) (count_roots d 8)

let suite =
  [
    Alcotest.test_case "initial state" `Quick test_initial;
    Alcotest.test_case "union/find" `Quick test_union;
    Alcotest.test_case "union everything" `Quick test_union_all;
    Alcotest.test_case "roots are representatives" `Quick test_roots_are_representatives;
  ]
