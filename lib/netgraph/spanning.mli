(** Rooted spanning trees of port-labeled graphs.

    Both oracles in the paper are advice about a spanning tree: Theorem 2.1
    ships each node the ports towards its children, and Theorem 3.1 ships
    each tree edge's weight [w(e) = min port] to one endpoint.  The choice
    of tree drives the oracle size, which is why this module provides BFS,
    DFS and random trees alongside the Claim 3.1 construction whose total
    contribution [Σ #₂(w(e))] is at most [4n]. *)

type t = {
  root : int;
  parent : (int * int) option array;
      (** [parent.(v) = Some (u, p)]: [u] is [v]'s parent and [p] is the
          port {e at [v]} leading to [u]. *)
  children : (int * int) list array;
      (** [children.(u)]: list of [(child, port at u towards child)] in
          increasing port order. *)
}

val of_parents : Graph.t -> root:int -> int option array -> t
(** Build from a parent map (as produced by {!Traverse.bfs}).  Raises
    [Invalid_argument] if the map is not a spanning tree of the graph
    rooted at [root]. *)

val bfs : Graph.t -> root:int -> t
val dfs : Graph.t -> root:int -> t

val random : Graph.t -> root:int -> Random.State.t -> t
(** Spanning tree from a uniformly shuffled edge order (random Kruskal). *)

val light : Graph.t -> root:int -> t
(** The Claim 3.1 construction: Borůvka-style phases in which every
    component of size [< 2^k] selects its minimum-weight outgoing edge
    (weight = [min port]).  Ties go to the first such edge in (node,
    port) order at its smaller endpoint, and a phase merges its
    selections in ascending order of the components' roots, skipping
    any that would close a cycle (DESIGN.md §10.1).  Guarantees
    [contribution g (edges t) ≤ 4n].  Raises [Invalid_argument] on a
    disconnected graph. *)

val size : t -> int
(** Number of nodes. *)

val edges : t -> Graph.edge list
(** The [n-1] tree edges, with ports as in the underlying graph. *)

val check : Graph.t -> t -> (unit, string) result
(** Verify: spans all nodes, is acyclic, parent/children agree, every tree
    edge exists in the graph with those ports. *)

val depth : t -> int array
(** Hop distance from the root along tree edges. *)

val contribution : Graph.t -> Graph.edge list -> int
(** [Σ #₂(w(e))] over the given edges — the quantity Claim 3.1 bounds by
    [4n] for the {!light} tree. *)

val children_ports : t -> int -> int list
(** Ports at a node leading to its children (the Theorem 2.1 advice). *)
