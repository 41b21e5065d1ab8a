open Netgraph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let assert_tree name g t =
  match Spanning.check g t with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: bad tree: %s" name msg

let sample_graphs =
  [
    ("path", Gen.path 10);
    ("cycle", Gen.cycle 9);
    ("complete", Gen.complete 8);
    ("grid", Gen.grid ~rows:4 ~cols:5);
    ("hypercube", Gen.hypercube ~dim:4);
    ("lollipop", Gen.lollipop ~clique:5 ~tail:5);
    ("random", Gen.random_connected ~n:25 ~p:0.2 (Random.State.make [| 5 |]));
  ]

let test_bfs_trees () =
  List.iter (fun (name, g) -> assert_tree name g (Spanning.bfs g ~root:0)) sample_graphs

let test_dfs_trees () =
  List.iter (fun (name, g) -> assert_tree name g (Spanning.dfs g ~root:0)) sample_graphs

let test_random_trees () =
  let st = Random.State.make [| 9 |] in
  List.iter (fun (name, g) -> assert_tree name g (Spanning.random g ~root:0 st)) sample_graphs

let test_light_trees () =
  List.iter (fun (name, g) -> assert_tree name g (Spanning.light g ~root:0)) sample_graphs

let test_edges_count () =
  List.iter
    (fun (name, g) ->
      let t = Spanning.bfs g ~root:0 in
      check_int (name ^ " edge count") (Graph.n g - 1) (List.length (Spanning.edges t)))
    sample_graphs

let test_nontrivial_root () =
  let g = Gen.grid ~rows:3 ~cols:3 in
  let t = Spanning.light g ~root:4 in
  assert_tree "root 4" g t;
  check_int "root" 4 t.Spanning.root;
  Alcotest.(check bool) "root has no parent" true (t.Spanning.parent.(4) = None)

let test_depth () =
  let g = Gen.path 5 in
  let t = Spanning.bfs g ~root:0 in
  Alcotest.(check (array int)) "depths" [| 0; 1; 2; 3; 4 |] (Spanning.depth t)

let test_children_ports_sorted () =
  let g = Gen.complete 6 in
  let t = Spanning.bfs g ~root:0 in
  let ports = Spanning.children_ports t 0 in
  check_bool "sorted" true (List.sort compare ports = ports);
  check_int "root has all children" 5 (List.length ports)

let test_of_parents_rejects_cycle () =
  let g = Gen.cycle 4 in
  (* 0→1→2→3→0 is a cycle, not a tree. *)
  let parents = [| Some 3; Some 0; Some 1; Some 2 |] in
  (match Spanning.of_parents g ~root:0 parents with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection");
  (* root can't have a parent *)
  match Spanning.of_parents g ~root:1 [| None; Some 0; Some 1; Some 2 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection: non-rooted"

let test_of_parents_rejects_non_edge () =
  let g = Gen.path 4 in
  (* 0-2 is not an edge of the path. *)
  match Spanning.of_parents g ~root:0 [| None; Some 0; Some 0; Some 2 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection"

let test_contribution_small () =
  (* Path ports: interior nodes have ports 0 (to the left) and 1 (to the
     right); each edge has weight min = 0 except none... check directly. *)
  let g = Gen.path 4 in
  let t = Spanning.bfs g ~root:0 in
  let contribution = Spanning.contribution g (Spanning.edges t) in
  (* Every edge weight is 0 (each edge is port 0 at its right endpoint or
     left endpoint): #2(0) = 1 per edge. *)
  check_int "three edges, weight-0" 3 contribution

let test_light_contribution_bound () =
  (* Claim 3.1: the light tree's contribution is at most 4n, on every
     family. *)
  List.iter
    (fun (name, g) ->
      let t = Spanning.light g ~root:0 in
      let c = Spanning.contribution g (Spanning.edges t) in
      check_bool
        (Printf.sprintf "%s: %d <= 4*%d" name c (Graph.n g))
        true
        (c <= 4 * Graph.n g))
    sample_graphs

let test_light_beats_naive_on_complete () =
  (* On K*_n a BFS tree's contribution grows like n log n while the light
     tree stays linear; at n = 64 the gap must already be visible. *)
  let g = Gen.complete 64 in
  let light = Spanning.contribution g (Spanning.edges (Spanning.light g ~root:0)) in
  let bfs = Spanning.contribution g (Spanning.edges (Spanning.bfs g ~root:0)) in
  check_bool "light within 4n" true (light <= 4 * 64);
  check_bool "light strictly better" true (light < bfs)

let qcheck_light_tree =
  QCheck.Test.make ~name:"light tree: valid and within 4n (random graphs)" ~count:50
    QCheck.(pair (int_range 2 50) (int_range 0 1000))
    (fun (n, seed) ->
      let st = Random.State.make [| n; seed |] in
      let g = Gen.random_connected ~n ~p:0.3 st in
      let t = Spanning.light g ~root:0 in
      Spanning.check g t = Ok ()
      && Spanning.contribution g (Spanning.edges t) <= 4 * n)

let qcheck_random_spanning =
  QCheck.Test.make ~name:"random spanning tree is valid" ~count:50
    QCheck.(pair (int_range 2 40) (int_range 0 1000))
    (fun (n, seed) ->
      let st = Random.State.make [| n; seed |] in
      let g = Gen.random_connected ~n ~p:0.25 st in
      Spanning.check g (Spanning.random g ~root:(n / 2) st) = Ok ())

(* The Hashtbl-phase Claim 3.1 construction that [Spanning.light]
   replaced, kept as the reference its output must equal: it fixes the
   tie-break (first minimum in (node, port) order, merges in ascending
   root order) that the advice bytes depend on. *)
module Reference = struct
  let fail fmt = Printf.ksprintf invalid_arg fmt

  let roots dsu n =
    let acc = ref [] in
    for i = n - 1 downto 0 do
      if Dsu.find dsu i = i then acc := i :: !acc
    done;
    !acc

  let of_parents g ~root parents =
    let n = Graph.n g in
    if Array.length parents <> n then fail "Spanning.of_parents: wrong array size";
    if parents.(root) <> None then fail "Spanning.of_parents: root has a parent";
    let parent = Array.make n None in
    let children = Array.make n [] in
    Array.iteri
      (fun v p ->
        match p with
        | None -> if v <> root then fail "Spanning.of_parents: node %d has no parent" v
        | Some u ->
          (match Graph.port_to g v u with
          | None -> fail "Spanning.of_parents: edge %d-%d not in graph" v u
          | Some pv ->
            parent.(v) <- Some (u, pv);
            let pu =
              match Graph.port_to g u v with
              | Some p -> p
              | None -> assert false
            in
            children.(u) <- (v, pu) :: children.(u)))
      parents;
    let state = Array.make n 0 in
    state.(root) <- 2;
    for v = 0 to n - 1 do
      if state.(v) = 0 then begin
        let u = ref v in
        while state.(!u) = 0 do
          state.(!u) <- 1;
          match parent.(!u) with
          | Some (w, _) -> u := w
          | None -> fail "Spanning.of_parents: node %d not rooted" v
        done;
        if state.(!u) = 1 then fail "Spanning.of_parents: cycle through node %d" v;
        let u = ref v in
        while state.(!u) = 1 do
          state.(!u) <- 2;
          match parent.(!u) with Some (w, _) -> u := w | None -> ()
        done
      end
    done;
    let children = Array.map (fun l -> List.sort (fun (_, a) (_, b) -> compare a b) l) children in
    { Spanning.root; parent; children }

  let parents_from_edges g ~root pairs =
    let n = Graph.n g in
    let adj = Array.make n [] in
    List.iter
      (fun (u, v) ->
        adj.(u) <- v :: adj.(u);
        adj.(v) <- u :: adj.(v))
      pairs;
    let parents = Array.make n None in
    let seen = Array.make n false in
    let q = Queue.create () in
    seen.(root) <- true;
    Queue.add root q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun v ->
          if not seen.(v) then begin
            seen.(v) <- true;
            parents.(v) <- Some u;
            Queue.add v q
          end)
        adj.(u)
    done;
    if not (Array.for_all (fun b -> b) seen) then fail "Spanning: edge set does not span";
    parents

  let light g ~root =
    let n = Graph.n g in
    let dsu = Dsu.create n in
    let pairs = ref [] in
    let k = ref 1 in
    while Dsu.components dsu > 1 do
      let threshold = 1 lsl !k in
      let small_roots = List.filter (fun r -> Dsu.size dsu r < threshold) (roots dsu n) in
      let best = Hashtbl.create 16 in
      Graph.fold_edges
        (fun e () ->
          let ru = Dsu.find dsu e.Graph.u and rv = Dsu.find dsu e.Graph.v in
          if ru <> rv then begin
            let w = Graph.edge_weight g e in
            let consider r =
              match Hashtbl.find_opt best r with
              | Some (w', _) when w' <= w -> ()
              | _ -> Hashtbl.replace best r (w, e)
            in
            consider ru;
            consider rv
          end)
        g ();
      let selected =
        List.filter_map
          (fun r ->
            match Hashtbl.find_opt best r with
            | Some (_, e) -> Some e
            | None -> None)
          small_roots
      in
      if small_roots <> [] && selected = [] then fail "Spanning.light: disconnected graph";
      List.iter
        (fun e ->
          if Dsu.union dsu e.Graph.u e.Graph.v then pairs := (e.Graph.u, e.Graph.v) :: !pairs)
        selected;
      incr k
    done;
    of_parents g ~root (parents_from_edges g ~root !pairs)
end

let same_tree name (a : Spanning.t) (b : Spanning.t) =
  check_int (name ^ ": root") a.Spanning.root b.Spanning.root;
  check_bool (name ^ ": parent") true (a.Spanning.parent = b.Spanning.parent);
  check_bool (name ^ ": children") true (a.Spanning.children = b.Spanning.children)

(* Every family × n × 5 seeds, rooted at node 0 for seed 0 and at a
   middle node otherwise.  The seed only matters to the random families,
   so the others run seeds 0 and 1.  Families whose edge count grows like
   n² stop at n = 1000 with one seed there: the reference's per-phase edge
   records take seconds per tree at that size. *)
let test_light_matches_reference () =
  let dense = Families.[ Complete; Dense_random; Lollipop; Complete_bipartite ] in
  let random = Families.[ Random_tree; Sparse_random; Dense_random; Random_regular ] in
  List.iter
    (fun fam ->
      List.iter
        (fun n ->
          let seeds =
            if List.mem fam dense && n >= 1000 then if n = 1000 then [ 1 ] else []
            else if List.mem fam random then [ 0; 1; 2; 3; 4 ]
            else [ 0; 1 ]
          in
          List.iter
            (fun seed ->
              let g = Families.build fam ~n ~seed in
              let name = Printf.sprintf "%s n=%d seed=%d" (Families.name fam) n seed in
              let root = if seed = 0 then 0 else Graph.n g / 2 in
              same_tree name (Reference.light g ~root) (Spanning.light g ~root))
            seeds)
        [ 4; 5; 16; 24; 64; 1000; 5000 ])
    Families.all

let test_of_parents_matches_reference () =
  List.iter
    (fun (name, g) ->
      let _, parents = Traverse.bfs g ~root:1 in
      same_tree name (Reference.of_parents g ~root:1 parents) (Spanning.of_parents g ~root:1 parents);
      let parents = Traverse.dfs_parents g ~root:0 in
      same_tree name (Reference.of_parents g ~root:0 parents) (Spanning.of_parents g ~root:0 parents))
    sample_graphs

let suite =
  [
    Alcotest.test_case "bfs trees valid" `Quick test_bfs_trees;
    Alcotest.test_case "dfs trees valid" `Quick test_dfs_trees;
    Alcotest.test_case "random trees valid" `Quick test_random_trees;
    Alcotest.test_case "light trees valid" `Quick test_light_trees;
    Alcotest.test_case "n-1 edges" `Quick test_edges_count;
    Alcotest.test_case "non-zero root" `Quick test_nontrivial_root;
    Alcotest.test_case "depth" `Quick test_depth;
    Alcotest.test_case "children ports sorted" `Quick test_children_ports_sorted;
    Alcotest.test_case "of_parents rejects cycles" `Quick test_of_parents_rejects_cycle;
    Alcotest.test_case "of_parents rejects non-edges" `Quick test_of_parents_rejects_non_edge;
    Alcotest.test_case "contribution on a path" `Quick test_contribution_small;
    Alcotest.test_case "Claim 3.1: light tree within 4n" `Quick test_light_contribution_bound;
    Alcotest.test_case "light beats BFS on K*_n" `Quick test_light_beats_naive_on_complete;
    Alcotest.test_case "light equals the reference construction" `Quick test_light_matches_reference;
    Alcotest.test_case "of_parents equals the reference" `Quick test_of_parents_matches_reference;
    QCheck_alcotest.to_alcotest qcheck_light_tree;
    QCheck_alcotest.to_alcotest qcheck_random_spanning;
  ]
