module Bitbuf = Bitstring.Bitbuf
module Codes = Bitstring.Codes
module Graph = Netgraph.Graph
module Spanning = Netgraph.Spanning

type tree_builder = Graph.t -> root:int -> Spanning.t

type encoding = Marked | Gamma

let encoding_name = function Marked -> "marked" | Gamma -> "gamma"

(* For every tree edge {u,v}, hand w(e) = min(pu, pv) to the endpoint whose
   port number equals w(e); a pu = pv tie goes to the smaller index. *)
let weight_assignment g tree =
  let out = Array.make (Graph.n g) [] in
  List.iter
    (fun e ->
      let w = Graph.edge_weight g e in
      let x = if e.Graph.pu = w then e.Graph.u else e.Graph.v in
      out.(x) <- w :: out.(x))
    (Spanning.edges tree);
  Array.map List.rev out

let encode_weights encoding ws buf =
  match encoding with
  | Marked -> Codes.write_marked_list buf ws
  | Gamma -> List.iter (Codes.write_gamma buf) ws

let decode_known_ports encoding buf =
  let r = Bitbuf.reader buf in
  match encoding with
  | Marked -> Codes.read_marked_list r
  | Gamma ->
    let rec loop acc = if Bitbuf.at_end r then List.rev acc else loop (Codes.read_gamma r :: acc) in
    loop []

let decode_known_ports_result encoding buf =
  let r = Bitbuf.reader buf in
  match encoding with
  | Marked -> Codes.read_marked_list_result r
  | Gamma -> Codes.read_gamma_list_result r

let oracle ?(tree = fun g ~root -> Spanning.light g ~root) ?(encoding = Marked) () =
  let name = Printf.sprintf "broadcast-thm3.1(%s)" (encoding_name encoding) in
  Oracles.Oracle.make ~name (fun g ~source ->
      let t = tree g ~root:source in
      let weights = weight_assignment g t in
      Oracles.Advice.make
        (Array.map
           (fun ws ->
             let buf = Bitbuf.create () in
             encode_weights encoding ws buf;
             buf)
           weights))

(* Scheme B.  kx = known incident ports; sx = ports through which M has
   transited (sent or received); informed = has M.

   The state lives as two small sorted port lists, not functional sets
   and not a per-port bitmap: [pending] holds kx \ sx in ascending port
   order (the order [Set.elements] used to give, so traces are
   unchanged), [retired] holds kx ∩ sx.  kx is tiny — the advised tree
   ports plus ports the message transited — so membership is an O(|kx|)
   scan.  The previous degree-sized membership bitmap allocated Θ(deg)
   bytes per node, which on a clique is Θ(n²) bytes across the run:
   measured ~190 minor words per message at n = 2000, all of it that
   bitmap.  A flush still hands off [pending] whole instead of paying a
   diff/union/elements round trip per delivery — the set churn, not the
   runner, dominated the broadcast profile at n = 10^5. *)
let rec sends_to msg = function
  | [] -> []
  | p :: rest -> (msg, p) :: sends_to msg rest

let rec insert_port p l =
  match l with
  | [] -> [ p ]
  | q :: rest -> if p < q then p :: l else if p = q then l else q :: insert_port p rest

let rec remove_port p = function
  | [] -> []
  | q :: rest -> if q = p then rest else q :: remove_port p rest

let rec mem_port p = function
  | [] -> false
  | q :: rest -> q = p || (q < p && mem_port p rest)

(* Merge two ascending lists (duplicates cannot arise: pending and
   retired are disjoint by construction). *)
let rec merge_ports a b =
  match a, b with
  | [], l | l, [] -> l
  | p :: ra, q :: _ when p < q -> p :: merge_ports ra b
  | _, q :: rb -> q :: merge_ports a rb

let scheme ?(encoding = Marked) () static =
  let advice = static.Sim.History.advice in
  let is_source = static.Sim.History.is_source in
  let pending = ref (List.sort_uniq compare (decode_known_ports encoding advice)) in
  (* Note an advised port beyond the degree stays in [pending]: sending
     on it aborts the run exactly as it did when kx was a set.  It can
     never collide with a queried port (arrival ports are < degree). *)
  let retired = ref [] in
  let informed = ref is_source in
  let is_known p = mem_port p !pending || mem_port p !retired in
  let flush () =
    if !informed then begin
      let fresh = !pending in
      pending := [];
      (* Flushed ports stay in kx (they are now also in sx). *)
      retired := merge_ports !retired fresh;
      sends_to Sim.Message.Source fresh
    end
    else []
  in
  let on_start () = if is_source then flush () else sends_to Sim.Message.Hello !pending in
  let on_receive msg ~port =
    match msg with
    | Sim.Message.Source ->
      (* The informer's port joins kx and sx at once: an advised port we
         have not yet used is retired unsent, a new port never becomes
         pending at all. *)
      if mem_port port !pending then begin
        pending := remove_port port !pending;
        retired := insert_port port !retired
      end
      else if not (mem_port port !retired) then retired := insert_port port !retired;
      informed := true;
      flush ()
    | Sim.Message.Hello ->
      if not (is_known port) then pending := insert_port port !pending;
      flush ()
    | Sim.Message.Control _ -> []
  in
  { Sim.Scheme.on_start; on_receive }

let usable_ports ~degree ports =
  let seen = Array.make (max 1 degree) false in
  List.for_all
    (fun p ->
      p >= 0 && p < degree && not seen.(p)
      &&
      (seen.(p) <- true;
       true))
    ports

let hardened_scheme ?(encoding = Marked) ?(protect = Bitstring.Ecc.Raw) ?on_fallback ?on_corrected
    () static =
  let module IS = Set.Make (Int) in
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
      match decode_known_ports_result encoding payload with
      | Ok ports when usable_ports ~degree ports ->
        if corrected > 0 then (
          match on_corrected with
          | Some f -> f static.Sim.History.id corrected
          | None -> ());
        Some ports
      | Ok _ -> fallback "unusable ports"
      | Error msg -> fallback msg)
  in
  (* Recovery overlay, shared by both modes: on a link timeout an
     informed node re-disseminates the source message by flooding the
     [reflood] marker; every hardened node forwards it exactly once
     (≤ 2m messages), which re-covers the surviving component whatever
     the failure stranded. *)
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
  match advised with
  | Some ports ->
    (* Scheme B as written, on validated advice. *)
    let kx = ref (IS.of_list ports) in
    let sx = ref IS.empty in
    let informed = ref static.Sim.History.is_source in
    let flush () =
      if !informed then begin
        let fresh = IS.diff !kx !sx in
        sx := IS.union !sx fresh;
        List.map (fun p -> (Sim.Message.Source, p)) (IS.elements fresh)
      end
      else []
    in
    let on_start () =
      if static.Sim.History.is_source then flush ()
      else List.map (fun p -> (Sim.Message.Hello, p)) (IS.elements !kx)
    in
    let on_receive msg ~port =
      match msg with
      | Sim.Message.Source ->
        kx := IS.add port !kx;
        sx := IS.add port !sx;
        informed := true;
        flush ()
      | Sim.Message.Hello ->
        kx := IS.add port !kx;
        flush ()
      | Sim.Message.Control _ when Sim.Message.is_timeout msg ->
        if !informed then reflood_from (Some port) else []
      | Sim.Message.Control _ when Sim.Message.is_reflood msg ->
        let first = not !informed in
        informed := true;
        kx := IS.add port !kx;
        sx := IS.add port !sx;
        (if first then flush () else []) @ reflood_from (Some port)
      | Sim.Message.Control _ -> []
    in
    { Sim.Scheme.on_start; on_receive }
  | None ->
    (* Degraded mode.  Flooding when informed restores correctness at the
       advice-free Θ(m) cost; the Hello on {e every} port at start tells
       advised neighbours — whose legitimately-empty advice the adversary
       could not touch — how to reach us, exactly as Scheme B's Hellos on
       known ports do.  Without it an advised node whose tree edges are
       all known from the degraded side would never learn them. *)
    let all_ports = List.init degree (fun p -> p) in
    let informed = ref static.Sim.History.is_source in
    let flood arrival =
      List.filter_map
        (fun p -> if arrival = Some p then None else Some (Sim.Message.Source, p))
        all_ports
    in
    let on_start () =
      if static.Sim.History.is_source then flood None
      else List.map (fun p -> (Sim.Message.Hello, p)) all_ports
    in
    let on_receive msg ~port =
      match msg with
      | Sim.Message.Source when not !informed ->
        informed := true;
        flood (Some port)
      | Sim.Message.Control _ when Sim.Message.is_timeout msg ->
        if !informed then reflood_from (Some port) else []
      | Sim.Message.Control _ when Sim.Message.is_reflood msg ->
        let first = not !informed in
        informed := true;
        (if first then flood (Some port) else []) @ reflood_from (Some port)
      | Sim.Message.Source | Sim.Message.Hello | Sim.Message.Control _ -> []
    in
    { Sim.Scheme.on_start; on_receive }

type outcome = {
  result : Sim.Runner.result;
  advice_bits : int;
  tree_contribution : int;
}

let run ?(tree = fun g ~root -> Spanning.light g ~root) ?(encoding = Marked)
    ?(scheduler = Sim.Scheduler.Async_fifo) ?(sinks = []) ?registry g ~source =
  let t = tree g ~root:source in
  let tree_contribution = Spanning.contribution g (Spanning.edges t) in
  let o = oracle ~tree:(fun _ ~root:_ -> t) ~encoding () in
  let advice = o.Oracles.Oracle.advise g ~source in
  let advice_bits = Oracles.Advice.size_bits advice in
  let result =
    Sim.Shard.run ~scheduler ~sinks ~advice:(Oracles.Advice.get advice) g ~source
      (scheme ~encoding ())
  in
  Obs.Registry.note ?registry
    (Sim.Runner.telemetry ~protocol:"broadcast" ~scheduler ~advice_bits result);
  { result; advice_bits; tree_contribution }
