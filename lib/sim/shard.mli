(** Domain-sharded execution of a single synchronous run, chosen by the
    engine.

    {!run} has exactly the contract of {!Runner.run}.  It executes the
    run with {!kernel} at [k = Domain.recommended_domain_count ()]
    shards when all of these hold, and otherwise calls {!Runner.run}
    unchanged:
    - the scheduler is {!Scheduler.Synchronous} (the asynchronous
      schedulers deliver one message at a time in a single global order,
      with no round boundary to cut);
    - there are no [sinks] and no fault plan — anything that observes or
      perturbs a global order;
    - the call runs on the main domain ([Domain.is_main_domain ()]), so a
      run inside a {!Pool} task never spawns domains of its own;
    - [k > 1].

    Either way the result is bit-identical; only the wall time changes.
    DESIGN.md §14 has the model and the determinism argument. *)

val run :
  ?scheduler:Scheduler.t ->
  ?max_messages:int ->
  ?sinks:Obs.Sink.t list ->
  ?faults:Fault_plan.t ->
  ?retry:int ->
  advice:(int -> Bitstring.Bitbuf.t) ->
  Netgraph.Graph.t ->
  source:int ->
  Scheme.factory ->
  Runner.result
(** {!Runner.run}, on {!kernel} when the selection rule above allows it.
    The kernel applies the same cap, [max_messages] defaulting to
    {!Runner.default_max_messages}. *)

val kernel :
  shards:int ->
  max_messages:int ->
  advice:(int -> Bitstring.Bitbuf.t) ->
  Netgraph.Graph.t ->
  source:int ->
  Scheme.factory ->
  Runner.result
(** [kernel ~shards ~max_messages ~advice g ~source factory] is
    [Runner.run ~scheduler:Synchronous ~max_messages ~advice g ~source
    factory] with the node array partitioned into [shards] contiguous
    blocks, one per domain, and each round run as two barrier-separated
    phases (deliver, then emit).  Phases
    with fewer than 256 slots run inline on the calling domain, so small
    runs never spawn domains; the [shards - 1] worker domains are spawned
    on the first larger phase and joined before [kernel] returns.
    {!run} picks the shard count; the argument exists so tests can pin
    it.  [invalid_arg] if [shards < 1] or [source] is out of range.

    [advice], [factory] and the scheme callbacks are called from several
    domains: each node's by its owner only, never two nodes of one owner
    concurrently.  The built-in schemes only share immutable advice, which
    is safe. *)
