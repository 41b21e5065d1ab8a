(** Fixed-size domain pool for deterministic fan-out.

    A pool owns [jobs - 1] worker domains (the submitting domain doubles
    as worker 0) and executes batches of indexed tasks over them.  The
    design premise — shared with {!Sweep} — is that parallelism must be
    invisible in the output: tasks are identified by their index, every
    task writes only its own pre-sized result slot, and nothing a task
    computes may depend on which worker ran it or in what order.  Under
    that discipline [map] at [jobs = 8] is bit-identical to [jobs = 1].

    Hand-rolled over [Domain] / [Mutex] / [Condition] from the stdlib; no
    external dependencies. *)

type t

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains that sleep until a
    batch is submitted.  [jobs] is clamped to at least 1; [jobs = 1]
    creates no domains and all maps run inline. *)

val jobs : t -> int
(** The worker count the pool was created with (after clamping). *)

val map : t -> (int -> 'a) -> int -> ('a, exn * Printexc.raw_backtrace) result array
(** [map pool f total] evaluates [f i] for every [i] in [0 .. total - 1]
    across the pool's workers and returns the results in index order.  A
    task that raises has its exception captured in its own slot together
    with the backtrace from the raise site (captured on the worker
    domain, so re-raising with [Printexc.raise_with_backtrace] on the
    submitting domain points at the task, not the join); the remaining
    tasks still run.  Tasks must not depend on execution order.  Raises
    [Invalid_argument] when called from inside a running task (nested
    batches would deadlock a fixed-size pool), or after {!shutdown}. *)

val map_local :
  t ->
  local:(unit -> 'w) ->
  ('w -> int -> 'a) ->
  int ->
  ('a, exn * Printexc.raw_backtrace) result array
(** [map_local pool ~local f total] is {!map} with per-worker mutable
    state: each worker slot lazily creates one ['w] value with [local ()]
    on its first task of this call and passes it to every later task it
    runs in the call.  The values live for this one call; to keep them
    across calls, make them once with {!locals} and use {!map_locals}.
    Determinism caveat: [f] must produce the same result whether or not
    the local state is warm (caches yes, accumulators no). *)

type 'w locals
(** One lazily-created ['w] per worker slot of one pool.  Slot [w] is
    only ever touched by the domain acting as worker [w], so the values
    need no locking. *)

val locals : t -> (unit -> 'w) -> 'w locals
(** [locals pool make] is an empty set of slots: worker [w] calls
    [make ()] on its first task under {!map_locals} and keeps the value
    for every later task and every later call, for the lifetime of the
    pool — the cache hook of a sweep that runs in many calls. *)

val map_locals :
  t -> 'w locals -> ('w -> int -> 'a) -> int -> ('a, exn * Printexc.raw_backtrace) result array
(** {!map_local} over slots made once with {!locals}, so [make] runs at
    most [jobs pool] times however many calls share the slots.  Raises
    [Invalid_argument] when the slots belong to a pool of another
    size. *)

val shutdown : t -> unit
(** Joins all worker domains.  Idempotent.  Subsequent maps raise. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and shuts it down
    afterwards, also on exception. *)

val default_jobs : unit -> int
(** The [ORACLE_SIZE_JOBS] environment variable (clamped to ≥ 1) when
    set and numeric; otherwise [Domain.recommended_domain_count ()]. *)
