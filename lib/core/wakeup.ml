module Bitbuf = Bitstring.Bitbuf
module Binary = Bitstring.Binary
module Codes = Bitstring.Codes
module Graph = Netgraph.Graph
module Spanning = Netgraph.Spanning

type encoding = Paper | Paper_minimal | Gamma

let encoding_name = function
  | Paper -> "paper"
  | Paper_minimal -> "paper-minimal"
  | Gamma -> "gamma"

type tree_builder = Graph.t -> root:int -> Spanning.t

let encode_ports encoding ~n ports buf =
  match ports, encoding with
  | [], _ -> ()
  | _, Paper -> Codes.write_port_list buf ~width:(max 1 (Binary.ceil_log2 n)) ports
  | _, Paper_minimal ->
    let maxp = List.fold_left max 0 ports in
    Codes.write_port_list buf ~width:(Binary.bits maxp) ports
  | _, Gamma -> List.iter (Codes.write_gamma buf) ports

let decode_ports encoding buf =
  let r = Bitbuf.reader buf in
  match encoding with
  | Paper | Paper_minimal -> Codes.read_port_list r
  | Gamma ->
    let rec loop acc = if Bitbuf.at_end r then List.rev acc else loop (Codes.read_gamma r :: acc) in
    loop []

let decode_ports_result encoding buf =
  let r = Bitbuf.reader buf in
  match encoding with
  | Paper | Paper_minimal -> Codes.read_port_list_result r
  | Gamma -> Codes.read_gamma_list_result r

let oracle ?(tree = fun g ~root -> Spanning.bfs g ~root) ?(encoding = Paper) () =
  let name = Printf.sprintf "wakeup-thm2.1(%s)" (encoding_name encoding) in
  Oracles.Oracle.make ~name (fun g ~source ->
      let t = tree g ~root:source in
      let n = Graph.n g in
      Oracles.Advice.make
        (Array.init n (fun v ->
             let buf = Bitbuf.create () in
             encode_ports encoding ~n (Spanning.children_ports t v) buf;
             buf)))

(* [rev_map (fun p -> ...) ports] without the closure; advised order is
   not significant (the runner delivers each send independently), but we
   keep stream order anyway for trace stability. *)
let rec sends_of_ports = function
  | [] -> []
  | p :: rest -> (Sim.Message.Source, p) :: sends_of_ports rest

let nothing () = []

let scheme ?(encoding = Paper) () static =
  (* Capture the one field the node needs, not the whole [History]
     record: a million instantiations otherwise keep a million histories
     live for the length of the run, and the minor GC promotes them all.
     Same spirit for the closures themselves — the wake logic is inlined
     into [on_receive] rather than shared via a [wake] closure, and the
     non-source [on_start] is one closure for the whole run, so a
     non-source node's live footprint is one record, one closure and one
     ref.  Only the source (there is one) pays for an on-start
     closure. *)
  let advice = static.Sim.History.advice in
  let woken = ref false in
  let on_receive msg ~port:_ =
    match msg with
    | Sim.Message.Source when not !woken ->
      woken := true;
      sends_of_ports (decode_ports encoding advice)
    | Sim.Message.Source | Sim.Message.Hello | Sim.Message.Control _ -> []
  in
  let on_start =
    if static.Sim.History.is_source then (fun () ->
      woken := true;
      sends_of_ports (decode_ports encoding advice))
    else nothing
  in
  { Sim.Scheme.on_start; on_receive }

(* A decoded port list is only usable if the scheme could actually have
   been advised it: every port in range, none repeated.  Tampered advice
   that still parses but fails this check must also select the fallback,
   or the runner aborts on an out-of-range send. *)
let usable_ports ~degree ports =
  let seen = Array.make (max 1 degree) false in
  List.for_all
    (fun p ->
      p >= 0 && p < degree && not seen.(p)
      &&
      (seen.(p) <- true;
       true))
    ports

let hardened_scheme ?(encoding = Paper) ?(protect = Bitstring.Ecc.Raw) ?on_fallback ?on_corrected
    () static =
  let degree = static.Sim.History.degree in
  let fallback reason =
    (match on_fallback with Some f -> f static.Sim.History.id reason | None -> ());
    None
  in
  (* Detect-and-correct first: only when the ECC layer itself gives up,
     or the corrected payload still fails validation, pay for flooding. *)
  let advised =
    match Bitstring.Ecc.unprotect protect static.Sim.History.advice with
    | Error msg -> fallback ("ecc: " ^ msg)
    | Ok (payload, corrected) -> (
      match decode_ports_result encoding payload with
      | Ok ports when usable_ports ~degree ports ->
        if corrected > 0 then (
          match on_corrected with
          | Some f -> f static.Sim.History.id corrected
          | None -> ());
        Some ports
      | Ok _ -> fallback "unusable ports"
      | Error msg -> fallback msg)
  in
  let woken = ref false in
  let wake arrival =
    woken := true;
    match advised with
    | Some ports -> List.map (fun p -> (Sim.Message.Source, p)) ports
    | None ->
      (* Degraded mode: behave as one node of [Sim.Scheme.flooding] —
         correct on any connected graph, at the advice-free Θ(m) cost. *)
      List.filter_map
        (fun p -> if arrival = Some p then None else Some (Sim.Message.Source, p))
        (List.init degree (fun p -> p))
  in
  (* Recovery overlay: a link timeout means the neighbour crash-stopped,
     stranding whatever subtree the advised tree routed through it.  The
     detecting node re-disseminates the source message by flooding the
     [reflood] marker, which every hardened node forwards exactly once —
     ≤ 2m messages to re-cover the entire surviving component. *)
  let reflooded = ref false in
  let reflood_from arrival =
    if !reflooded then []
    else begin
      reflooded := true;
      List.filter_map
        (fun p -> if arrival = Some p then None else Some (Sim.Message.reflood, p))
        (List.init degree (fun p -> p))
    end
  in
  let on_start () = if static.Sim.History.is_source then wake None else [] in
  let on_receive msg ~port =
    match msg with
    | Sim.Message.Source when not !woken -> wake (Some port)
    | Sim.Message.Control _ when Sim.Message.is_timeout msg ->
      (* Only a woken node can have sent the message that timed out, so
         the wakeup restriction is preserved. *)
      if !woken then reflood_from (Some port) else []
    | Sim.Message.Control _ when Sim.Message.is_reflood msg ->
      let wake_sends = if !woken then [] else wake (Some port) in
      wake_sends @ reflood_from (Some port)
    | Sim.Message.Source | Sim.Message.Hello | Sim.Message.Control _ -> []
  in
  { Sim.Scheme.on_start; on_receive }

type outcome = { result : Sim.Runner.result; advice_bits : int; tree_ok : bool }

let run ?(tree = fun g ~root -> Spanning.bfs g ~root) ?(encoding = Paper)
    ?(scheduler = Sim.Scheduler.Async_fifo) ?(sinks = []) ?registry g ~source =
  let t = tree g ~root:source in
  let tree_ok = Spanning.check g t = Ok () in
  let o = oracle ~tree:(fun _ ~root:_ -> t) ~encoding () in
  let advice = o.Oracles.Oracle.advise g ~source in
  let advice_bits = Oracles.Advice.size_bits advice in
  let factory = Sim.Scheme.check_wakeup (scheme ~encoding ()) in
  let result =
    Sim.Shard.run ~scheduler ~sinks ~advice:(Oracles.Advice.get advice) g ~source factory
  in
  Obs.Registry.note ?registry
    (Sim.Runner.telemetry ~protocol:"wakeup" ~scheduler ~advice_bits result);
  { result; advice_bits; tree_ok }
