(** Per-protocol counter registry.

    Each instrumented protocol run (wakeup, broadcast, election, gossip,
    …) deposits one {!record} here, so heterogeneous schemes report
    message class, bits on wire and advice-bit usage through one uniform
    shape.  There is no process-global registry: the protocol wrappers in
    [lib/core] note into the registry their caller passes, and into none
    otherwise.  A registry is not synchronised; share one between domains
    only behind a lock. *)

type record = {
  protocol : string;  (** e.g. ["wakeup"], ["broadcast"], ["gossip-tree"] *)
  scheduler : string;  (** {!Sim.Scheduler.name} of the discipline used *)
  n : int;  (** number of nodes in the network *)
  messages : int;  (** total messages sent *)
  source_msgs : int;  (** messages of class [Source] *)
  hello_msgs : int;  (** messages of class [Hello] *)
  control_msgs : int;  (** messages of class [Control] *)
  bits_on_wire : int;  (** total accounted message bits *)
  rounds : int;  (** rounds (synchronous) or steps (asynchronous) *)
  causal_depth : int;  (** longest causal delivery chain *)
  advice_bits : int;  (** oracle size used by the run *)
  completed : bool;
      (** the protocol's own success criterion: [all_informed] for
          wakeup/broadcast, rumor completeness for gossip, unique correct
          leader for election *)
}
(** One protocol run, summarised uniformly. *)

type t
(** A registry: an ordered log of {!record}s. *)

val create : unit -> t

val note : ?registry:t -> record -> unit
(** Append a record to [registry]; without one, do nothing. *)

val records : t -> record list
(** All records, oldest first. *)

val by_protocol : t -> string -> record list
(** The records whose [protocol] field matches, oldest first. *)

val length : t -> int

val clear : t -> unit

val pp_record : Format.formatter -> record -> unit
(** One-line rendering, suitable for logs. *)
