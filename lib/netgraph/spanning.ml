type t = {
  root : int;
  parent : (int * int) option array;
  children : (int * int) list array;
}

let fail fmt = Printf.ksprintf invalid_arg fmt

let of_parents g ~root parents =
  let n = Graph.n g in
  if Array.length parents <> n then fail "Spanning.of_parents: wrong array size";
  if parents.(root) <> None then fail "Spanning.of_parents: root has a parent";
  let pnode = Array.make n (-1) in
  let parent = Array.make n None in
  Array.iteri
    (fun v p ->
      match p with
      | None -> if v <> root then fail "Spanning.of_parents: node %d has no parent" v
      | Some u -> (
        match Graph.port_to g v u with
        | None -> fail "Spanning.of_parents: edge %d-%d not in graph" v u
        | Some pv ->
          pnode.(v) <- u;
          parent.(v) <- Some (u, pv)))
    parents;
  (* Acyclicity + reachability in O(n) total: walk up from each node,
     stopping at the first node already certified as rooted; nodes on the
     current chain are marked in-progress, so meeting one again is a
     cycle.  Each node is walked over at most twice across all starts
     (once in-progress, once certifying), so a million-node path costs a
     linear pass. *)
  let state = Array.make n 0 in
  (* 0 = unknown, 1 = on the current chain, 2 = certified rooted. *)
  state.(root) <- 2;
  for v = 0 to n - 1 do
    if state.(v) = 0 then begin
      let u = ref v in
      while state.(!u) = 0 do
        state.(!u) <- 1;
        if pnode.(!u) < 0 then fail "Spanning.of_parents: node %d not rooted" v;
        u := pnode.(!u)
      done;
      if state.(!u) = 1 then fail "Spanning.of_parents: cycle through node %d" v;
      let u = ref v in
      while state.(!u) = 1 do
        state.(!u) <- 2;
        u := pnode.(!u)
      done
    end
  done;
  (* Children lists in one pass over the adjacency: scanning each row
     from its last port down and prepending yields every list in
     increasing port order with no sort.  With no parallel edges, a
     neighbor [v] with [pnode.(v) = u] is reached from [u] on exactly
     one port. *)
  let off = Graph.csr_offsets g and nbr = Graph.csr_neighbors g in
  let children = Array.make n [] in
  for u = 0 to n - 1 do
    let base = off.(u) in
    for s = off.(u + 1) - 1 downto base do
      let v = nbr.(s) in
      if pnode.(v) = u then children.(u) <- (v, s - base) :: children.(u)
    done
  done;
  { root; parent; children }

let bfs g ~root =
  let _, parents = Traverse.bfs g ~root in
  of_parents g ~root parents

let dfs g ~root =
  let parents = Traverse.dfs_parents g ~root in
  of_parents g ~root parents

(* Orient a spanning edge set towards [root].  [tree] marks the chosen
   edges by CSR slot, both directions of each.  A BFS from [root] over
   the marked slots reads each parent port off the slot it arrived by and
   each child's port off the slot it left by, so no port lookup and no
   intermediate adjacency is needed; scanning rows from the last port
   down builds every child list in increasing port order.  A tree's
   orientation is unique, so the result does not depend on the order in
   which its edges were chosen. *)
let of_tree_slots g ~root tree =
  let n = Graph.n g in
  let off = Graph.csr_offsets g and nbr = Graph.csr_neighbors g and prt = Graph.csr_ports g in
  let parent = Array.make n None in
  let children = Array.make n [] in
  let seen = Bytes.make n '\000' in
  let queue = Array.make n root in
  Bytes.set seen root '\001';
  let tail = ref 1 in
  for head = 0 to n - 1 do
    if head >= !tail then fail "Spanning: edge set does not span";
    let u = queue.(head) in
    let base = off.(u) in
    for s = off.(u + 1) - 1 downto base do
      if Bytes.get tree s = '\001' then begin
        let v = nbr.(s) in
        if Bytes.get seen v = '\000' then begin
          Bytes.set seen v '\001';
          parent.(v) <- Some (u, prt.(s));
          children.(u) <- (v, s - base) :: children.(u);
          queue.(!tail) <- v;
          incr tail
        end
      end
    done
  done;
  { root; parent; children }

let random g ~root st =
  let edges = Array.of_list (Graph.edges g) in
  for i = Array.length edges - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = edges.(i) in
    edges.(i) <- edges.(j);
    edges.(j) <- tmp
  done;
  let dsu = Dsu.create (Graph.n g) in
  let off = Graph.csr_offsets g in
  let tree = Bytes.make (2 * Graph.m g) '\000' in
  Array.iter
    (fun e ->
      if Dsu.union dsu e.Graph.u e.Graph.v then begin
        Bytes.set tree (off.(e.Graph.u) + e.Graph.pu) '\001';
        Bytes.set tree (off.(e.Graph.v) + e.Graph.pv) '\001'
      end)
    edges;
  of_tree_slots g ~root tree

(* Claim 3.1.  Phases k = 1, 2, …: every component of size < 2^k selects a
   minimum-weight outgoing edge (w(e) = min of the two ports); selected
   edges are merged, a cycle-closing selection being skipped (the paper
   erases one edge per cycle, which is the same tree up to the arbitrary
   choice).

   The tie-break is part of the output contract (DESIGN.md §10.1): a
   component selects the first minimum-weight outgoing edge in (node,
   port) order, each edge taken at its smaller endpoint.  An edge's place
   in that order is its CSR slot at the smaller endpoint, so the
   selection is the least key [w · 2m + slot].  The keys are distinct,
   so a phase's selections close no cycle except when two components
   select the same edge, and merging them in ascending root order as
   they are read gives the tree any merge order would.  Scanning only the
   nodes of small components finds every candidate from its small side
   and skips the large components of late phases.  Which components are
   small, and their roots, are fixed at the start of the phase in
   [rootof]. *)
let light g ~root =
  let n = Graph.n g in
  let off = Graph.csr_offsets g and nbr = Graph.csr_neighbors g and prt = Graph.csr_ports g in
  let slots = Array.length nbr in
  let dsu = Dsu.create n in
  let rootof = Array.make n 0 in
  let best = Array.make n max_int in
  let tree = Bytes.make slots '\000' in
  let k = ref 1 in
  while Dsu.components dsu > 1 do
    let threshold = 1 lsl !k in
    (* [rootof.(u)] is [u]'s root when its component is small, and the
       root's complement (negative) otherwise. *)
    for u = 0 to n - 1 do
      let r = Dsu.find dsu u in
      rootof.(u) <- (if Dsu.size dsu r < threshold then r else lnot r)
    done;
    for u = 0 to n - 1 do
      let r = rootof.(u) in
      if r >= 0 then begin
        let base = off.(u) in
        for s = base to off.(u + 1) - 1 do
          let v = nbr.(s) in
          if rootof.(v) <> r then begin
            let slot = if u < v then s else off.(v) + prt.(s) in
            let p = s - base and q = prt.(s) in
            let key = ((if p < q then p else q) * slots) + slot in
            if key < best.(r) then best.(r) <- key
          end
        done
      end
    done;
    (* A small component with no outgoing edge means the graph is
       disconnected; a phase in which no component is small simply
       advances k. *)
    let small_roots = ref 0 and selected = ref 0 in
    for r = 0 to n - 1 do
      if rootof.(r) = r then begin
        incr small_roots;
        if best.(r) < max_int then begin
          incr selected;
          let s = best.(r) mod slots in
          best.(r) <- max_int;
          let v = nbr.(s) in
          let mirror = off.(v) + prt.(s) in
          if Dsu.union dsu nbr.(mirror) v then begin
            Bytes.set tree s '\001';
            Bytes.set tree mirror '\001'
          end
        end
      end
    done;
    if !small_roots > 0 && !selected = 0 then fail "Spanning.light: disconnected graph";
    incr k
  done;
  of_tree_slots g ~root tree

let size t = Array.length t.parent

(* [listed.(v)]: the port that [v]'s parent lists for it among its
   children (its first entry for [v]), or [min_int] when the parent does
   not list [v]. *)
let rec note_children t listed u = function
  | [] -> ()
  | (v, p) :: rest ->
    if v >= 0 && v < Array.length listed && listed.(v) = min_int then begin
      match t.parent.(v) with Some (w, _) when w = u -> listed.(v) <- p | _ -> ()
    end;
    note_children t listed u rest

let listed_ports t =
  let listed = Array.make (size t) min_int in
  Array.iteri (note_children t listed) t.children;
  listed

let edges t =
  let listed = listed_ports t in
  let acc = ref [] in
  for v = size t - 1 downto 0 do
    match t.parent.(v) with
    | None -> ()
    | Some (u, pv) ->
      let pu = if listed.(v) = min_int then -1 else listed.(v) in
      let e =
        if u < v then { Graph.u; pu; v; pv } else { Graph.u = v; pu = pv; v = u; pv = pu }
      in
      acc := e :: !acc
  done;
  !acc

let check g t =
  try
    let n = Graph.n g in
    if Array.length t.parent <> n then failwith "size mismatch";
    if t.parent.(t.root) <> None then failwith "root has a parent";
    let off = Graph.csr_offsets g and nbr = Graph.csr_neighbors g in
    (* Port [p] at [u] leads to [v]; with no parallel edges that port is
       [Graph.port_to g u v]. *)
    let is_port u p v = p >= 0 && p < off.(u + 1) - off.(u) && nbr.(off.(u) + p) = v in
    let listed = listed_ports t in
    let count = ref 0 in
    for v = 0 to n - 1 do
      match t.parent.(v) with
      | None -> if v <> t.root then failwith "non-root without parent"
      | Some (u, pv) ->
        incr count;
        if not (is_port v pv u) then failwith "parent port does not match graph";
        if listed.(v) = min_int then failwith "child missing from parent's list";
        if not (is_port u listed.(v) v) then failwith "child port does not match graph"
    done;
    if !count <> n - 1 then failwith "wrong edge count";
    let total = Array.fold_left (fun acc l -> acc + List.length l) 0 t.children in
    if total <> n - 1 then failwith "children lists inconsistent";
    (* Reachability from root via children links, on an array stack: each
       push marks a new node, so [n] slots suffice. *)
    let seen = Bytes.make n '\000' in
    let stack = Array.make n t.root in
    let top = ref 1 in
    let push (v, _) =
      if v < 0 || v >= n then failwith "child out of range";
      if Bytes.get seen v = '\001' then failwith "cycle";
      Bytes.set seen v '\001';
      stack.(!top) <- v;
      incr top
    in
    Bytes.set seen t.root '\001';
    while !top > 0 do
      decr top;
      List.iter push t.children.(stack.(!top))
    done;
    if Bytes.contains seen '\000' then failwith "not spanning";
    Ok ()
  with Failure msg -> Error msg

let depth t =
  let n = size t in
  let d = Array.make n (-1) in
  let stack = ref [ (t.root, 0) ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | (u, depth_u) :: rest ->
      stack := rest;
      d.(u) <- depth_u;
      List.iter (fun (v, _) -> stack := (v, depth_u + 1) :: !stack) t.children.(u)
  done;
  d

let contribution g es =
  List.fold_left (fun acc e -> acc + Bitstring.Binary.bits (Graph.edge_weight g e)) 0 es

let children_ports t u = List.map snd t.children.(u)
