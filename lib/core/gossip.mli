(** Gossip (all-to-all information exchange), the third communication task
    named in the paper's Section 1.2.

    Every node starts with a private rumor (its label); the task completes
    when every node knows every rumor.  With tree advice — each node gets
    the port to its parent and the ports to its children — gossip runs as
    convergecast followed by broadcast: leaves report up, the root learns
    everything, the full set flows back down.  Exactly [2(n-1)] messages,
    which is optimal up to a constant (gossip subsumes broadcast, so Ω(n)
    messages are necessary, and the oracle is Θ(n log n) bits like
    Theorem 2.1's).

    The advice-free baseline floods rumor sets and pays Θ(n·m) messages on
    dense graphs — experiment E12 quantifies the gap. *)

val oracle : ?tree:(Netgraph.Graph.t -> root:int -> Netgraph.Spanning.t) -> unit -> Oracles.Oracle.t
(** Parent/children port advice over a spanning tree (default BFS) rooted
    at the source. *)

val decode_advice : Bitstring.Bitbuf.t -> int option * int list
(** [(parent_port, children_ports)] — exposed for tests. *)

type outcome = {
  result : Sim.Runner.result;
  advice_bits : int;
  learned : int list array;  (** rumors each node ended up knowing, sorted *)
  complete : bool;  (** everyone learned all [n] rumors *)
}

val run :
  ?tree:(Netgraph.Graph.t -> root:int -> Netgraph.Spanning.t) ->
  ?scheduler:Sim.Scheduler.t ->
  ?sinks:Obs.Sink.t list ->
  ?registry:Obs.Registry.t ->
  Netgraph.Graph.t ->
  source:int ->
  outcome
(** Tree gossip: [2(n-1)] messages.  Telemetry events stream into [sinks]
    (see {!Sim.Runner.run}); one protocol record named ["gossip-tree"],
    with [completed] meaning rumor completeness, is noted into [registry]
    when one is given. *)

val run_flooding :
  ?scheduler:Sim.Scheduler.t ->
  ?sinks:Obs.Sink.t list ->
  ?registry:Obs.Registry.t ->
  Netgraph.Graph.t ->
  source:int ->
  outcome
(** The advice-free baseline: every node floods its growing rumor set.
    [advice_bits = 0]; message complexity up to Θ(n·m).  Telemetry as in
    {!run}, with the protocol record named ["gossip-flooding"]. *)
