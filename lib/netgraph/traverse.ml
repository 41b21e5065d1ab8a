(* All three walk the CSR arrays directly with an int-array queue or
   stack, allocating nothing per neighbor.  Slot order within a row is
   port order, so neighbors are explored in port order. *)

let bfs g ~root =
  let n = Graph.n g in
  let off = Graph.csr_offsets g and nbr = Graph.csr_neighbors g in
  let dist = Array.make n (-1) in
  let parent = Array.make n None in
  let queue = Array.make n root in
  let tail = ref 1 in
  dist.(root) <- 0;
  let head = ref 0 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for s = off.(u) to off.(u + 1) - 1 do
      let v = nbr.(s) in
      if dist.(v) < 0 then begin
        dist.(v) <- dist.(u) + 1;
        parent.(v) <- Some u;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  (dist, parent)

(* Iterative: [next.(u)] is the slot of the next port to try at [u], so a
   node is resumed exactly where the recursive walk would return to it,
   and a path-like graph cannot overflow the call stack. *)
let dfs_parents g ~root =
  let n = Graph.n g in
  let off = Graph.csr_offsets g and nbr = Graph.csr_neighbors g in
  let parent = Array.make n None in
  let seen = Bytes.make n '\000' in
  let next = Array.sub off 0 n in
  let stack = Array.make n root in
  let top = ref 1 in
  Bytes.set seen root '\001';
  while !top > 0 do
    let u = stack.(!top - 1) in
    let s = next.(u) in
    if s = off.(u + 1) then decr top
    else begin
      next.(u) <- s + 1;
      let v = nbr.(s) in
      if Bytes.get seen v = '\000' then begin
        Bytes.set seen v '\001';
        parent.(v) <- Some u;
        stack.(!top) <- v;
        incr top
      end
    end
  done;
  parent

let components g =
  let n = Graph.n g in
  let off = Graph.csr_offsets g and nbr = Graph.csr_neighbors g in
  let comp = Array.make n (-1) in
  let queue = Array.make n 0 in
  let k = ref 0 in
  for s = 0 to n - 1 do
    if comp.(s) < 0 then begin
      comp.(s) <- !k;
      queue.(0) <- s;
      let head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let u = queue.(!head) in
        incr head;
        for i = off.(u) to off.(u + 1) - 1 do
          let v = nbr.(i) in
          if comp.(v) < 0 then begin
            comp.(v) <- !k;
            queue.(!tail) <- v;
            incr tail
          end
        done
      done;
      incr k
    end
  done;
  (comp, !k)

let eccentricity g u =
  let dist, _ = bfs g ~root:u in
  Array.fold_left
    (fun acc d ->
      if d < 0 then invalid_arg "Traverse.eccentricity: disconnected graph" else max acc d)
    0 dist

let diameter g =
  let n = Graph.n g in
  let rec loop u acc = if u >= n then acc else loop (u + 1) (max acc (eccentricity g u)) in
  loop 0 0

let distance g u v =
  let dist, _ = bfs g ~root:u in
  if dist.(v) < 0 then None else Some dist.(v)
