(** Theorem 3.1: broadcast with fewer than [3n] messages from an oracle of
    size at most [8n].

    The oracle builds the Claim 3.1 spanning tree [T₀], whose total
    contribution [Σ_{e∈T₀} #₂(w(e))] is at most [4n] for the weight
    [w(e) = min(port_u(e), port_v(e))].  For every tree edge it hands the
    binary representation of [w(e)] to the endpoint at which the edge uses
    port number [w(e)]; a node's advice is the marked-bit encoding of all
    its assigned weights — at most [2·4n = 8n] bits in total.

    Scheme B (Figure 1): every node interprets its advice as a set of
    known incident ports.  Non-source nodes immediately send "hello" on
    all known ports (the spontaneous transmissions that wakeup forbids);
    each hello teaches the opposite endpoint one more incident tree edge.
    The source message [M] is flushed on every known-but-unserved port
    whenever the node is informed and learns a new port.  [M] crosses each
    tree edge at most once per direction and hellos cross each tree edge
    at most once: fewer than [3n] messages. *)

type tree_builder = Netgraph.Graph.t -> root:int -> Netgraph.Spanning.t

type encoding =
  | Marked  (** the paper's 2-bits-per-payload-bit code; [≤ 8n] total *)
  | Gamma  (** Elias-gamma weights (E7 ablation) *)

val encoding_name : encoding -> string

val oracle : ?tree:tree_builder -> ?encoding:encoding -> unit -> Oracles.Oracle.t
(** Default tree: {!Netgraph.Spanning.light} (the Claim 3.1 construction —
    the [≤ 8n] bound only holds for it); default encoding [Marked]. *)

val scheme : ?encoding:encoding -> unit -> Sim.Scheme.factory
(** Scheme B.  Does not consult node labels; works under full
    asynchrony. *)

type outcome = {
  result : Sim.Runner.result;
  advice_bits : int;
  tree_contribution : int;  (** [Σ #₂(w(e))] over the advised tree *)
}

val run :
  ?tree:tree_builder ->
  ?encoding:encoding ->
  ?scheduler:Sim.Scheduler.t ->
  ?sinks:Obs.Sink.t list ->
  ?registry:Obs.Registry.t ->
  Netgraph.Graph.t ->
  source:int ->
  outcome
(** Build the oracle, run Scheme B, return the result together with the
    oracle size.  Telemetry events stream into [sinks] (see
    {!Sim.Runner.run}); one protocol record named ["broadcast"] is noted
    into [registry] when one is given.  The run goes through
    {!Sim.Shard.run}, which takes the sharded kernel for a synchronous run
    without sinks — output is bit-identical either way. *)

val decode_known_ports : encoding -> Bitstring.Bitbuf.t -> int list
(** The advice decoder (exposed for tests): the ports Scheme B starts out
    knowing. *)

(** {1 Hardened variant} *)

val decode_known_ports_result : encoding -> Bitstring.Bitbuf.t -> (int list, string) result
(** Non-raising advice decoder (the {!Bitstring.Codes} [_result]
    family). *)

val hardened_scheme :
  ?encoding:encoding ->
  ?protect:Bitstring.Ecc.level ->
  ?on_fallback:(int -> string -> unit) ->
  ?on_corrected:(int -> int -> unit) ->
  unit ->
  Sim.Scheme.factory
(** Scheme B with advice validation: the advice is first decoded through
    the [protect] ECC level (default [Raw]: pass-through), then a node
    whose advice does not decode to distinct, in-range ports degrades to
    advice-free flooding — the source message goes out on every port
    (except the arrival port) on first informing, which is correct on any
    connected graph at Θ(m) cost.  With a correcting level, a
    corrupted-but-correctable codeword is repaired locally instead (the
    advice must have been written by {!Oracles.Protect.oracle} at the
    same level).  A degraded non-source node also sends its "hello" on
    {e every} port at start, so an advised neighbour whose (legitimately
    empty) advice omits the shared edge still learns it, exactly as
    Scheme B's hellos on known ports teach; without this, a node that
    knows none of its tree edges could never serve the subtree behind a
    degraded neighbour.  [on_fallback] is called once per degraded node
    with its label and the ECC/decode/validation error; [on_corrected]
    once per node whose advice was repaired and accepted, with its label
    and the corrected-error count.  On untampered advice this is
    message-for-message Scheme B. *)

val weight_assignment : Netgraph.Graph.t -> Netgraph.Spanning.t -> int list array
(** The per-node lists of assigned weights, before encoding (exposed for
    tests: each tree edge must appear at exactly one endpoint, at which it
    has the smaller port number). *)
