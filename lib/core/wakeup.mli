(** Theorem 2.1: wakeup with [n-1] messages from an oracle of size
    [n log n + o(n log n)].

    The oracle fixes a spanning tree [T] of the network rooted at the
    source and gives every internal node the port numbers leading to its
    children, encoded self-delimitingly (leaves receive the empty string).
    The wakeup scheme is: upon being woken (or at start, for the source),
    send the source message on every advised port.  Exactly one message
    crosses each tree edge, hence exactly [n-1] messages.

    The scheme never consults node labels and never sends anything before
    being woken: the upper bound holds for anonymous networks, under full
    asynchrony, with 1-bit messages — as claimed in Section 1.3. *)

type encoding =
  | Paper  (** doubled-bit width header, ports in fixed width [⌈log n⌉] *)
  | Paper_minimal
      (** same code, but the width is the smallest fitting this node's own
          ports — strictly smaller advice, same decoder *)
  | Gamma  (** each port Elias-gamma coded (E7 ablation) *)

val encoding_name : encoding -> string

type tree_builder = Netgraph.Graph.t -> root:int -> Netgraph.Spanning.t

val oracle : ?tree:tree_builder -> ?encoding:encoding -> unit -> Oracles.Oracle.t
(** Default tree: BFS from the source (any spanning tree realises the
    bound); default encoding: [Paper]. *)

val scheme : ?encoding:encoding -> unit -> Sim.Scheme.factory
(** The wakeup scheme matching {!oracle}'s advice format.  The encodings
    must agree. *)

type outcome = {
  result : Sim.Runner.result;
  advice_bits : int;
  tree_ok : bool;  (** the advised tree passed {!Netgraph.Spanning.check} *)
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
(** Build the oracle, run the scheme, return the result together with the
    oracle size.  Telemetry events stream into [sinks] (see
    {!Sim.Runner.run}); one protocol record named ["wakeup"] is noted into
    [registry] when one is given.  The run goes through {!Sim.Shard.run},
    which takes the sharded kernel for a synchronous run without sinks —
    output is bit-identical either way. *)

val decode_ports : encoding -> Bitstring.Bitbuf.t -> int list
(** The advice decoder (exposed for tests). *)

(** {1 Hardened variant}

    {!scheme} trusts its advice — the oracle wrote it, so it raises on
    malformed bits and the runner rejects out-of-range ports.  Under the
    fault-injection subsystem the advice may be adversarial, so the
    hardened variant validates before trusting. *)

val decode_ports_result : encoding -> Bitstring.Bitbuf.t -> (int list, string) result
(** Non-raising advice decoder (the {!Bitstring.Codes} [_result]
    family). *)

val hardened_scheme :
  ?encoding:encoding ->
  ?protect:Bitstring.Ecc.level ->
  ?on_fallback:(int -> string -> unit) ->
  ?on_corrected:(int -> int -> unit) ->
  unit ->
  Sim.Scheme.factory
(** Like {!scheme}, but each node validates its advice once at
    instantiation: the advice is first decoded through the [protect] ECC
    level (default [Raw]: pass-through), then it must decode
    ([decode_ports_result]) to distinct, in-range ports.  A node whose
    advice fails either stage falls back to the advice-free flooding
    behaviour of {!Sim.Scheme.flooding} — on first wake it sends the
    source message on every port except the arrival port — so the run
    stays correct on any connected graph at Θ(m) cost instead of the
    advised [n-1].  With a correcting level ([Hamming], odd
    [Repetition]), a corrupted-but-correctable codeword is repaired
    locally instead of falling back — the advice must of course have been
    written by the protected oracle ({!Oracles.Protect.oracle}).  The
    wakeup restriction (silence before being woken) is preserved in all
    modes.  [on_fallback] is called once per degraded node with its label
    and the ECC/decode/validation error; [on_corrected] once per node
    whose advice was repaired and accepted, with its label and the
    corrected-error count. *)
