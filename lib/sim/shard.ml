(* The domain-sharded synchronous kernel and the rule that picks it.
   See shard.mli for the contract; the short version of the determinism
   argument (DESIGN.md §14 has the long one):

   - the node array is partitioned into [shards] contiguous blocks; a
     node's scheme state is only ever touched by its owner domain;
   - a synchronous round is two phases with a full barrier between them
     — deliver (each owner processes the batch slots addressed to its
     nodes, {e in batch order}) then emit (responses are placed into the
     next batch at offsets precomputed by an exclusive prefix sum over
     the per-slot response counts, which is exactly the order the
     sequential engine enqueues them in);
   - counters are per-domain {!Obs.Counting} instances merged with
     [absorb] (sums and maxima — order-insensitive).

   The result is bit-identical to {!Runner.run} at every shard count. *)

module Graph = Netgraph.Graph

let msg_class = function
  | Message.Source -> Obs.Event.Source
  | Message.Hello -> Obs.Event.Hello
  | Message.Control _ -> Obs.Event.Control

(* Phases (instantiation, start-up, and each round) with fewer slots than
   this run inline on the coordinator — same arithmetic, no barrier
   traffic — so small runs never pay for domains. *)
let parallel_threshold = 256

(* {1 The phase team}

   [shards - 1] spawned domains plus the coordinator (shard 0).  A phase
   is one closure executed once per shard; [phase] returns only after
   every shard has finished, and the mutex hand-off on both edges gives
   the happens-before that publishes all shared-array writes between
   phases.  Exceptions raised inside a phase are captured per shard and
   re-raised on the coordinator, lowest shard first. *)

type team = {
  t_shards : int;
  mutex : Mutex.t;
  work : Condition.t;
  finished : Condition.t;
  mutable gen : int;
  mutable job : (int -> unit) option;
  mutable remaining : int;
  mutable stop : bool;
  exns : exn option array;
  mutable domains : unit Domain.t array;
}

let rec team_worker t ~shard ~last_gen =
  Mutex.lock t.mutex;
  while (not t.stop) && t.gen = last_gen do
    Condition.wait t.work t.mutex
  done;
  if t.stop then Mutex.unlock t.mutex
  else begin
    let gen = t.gen in
    let job = t.job in
    Mutex.unlock t.mutex;
    (match job with
    | Some f -> ( try f shard with e -> t.exns.(shard) <- Some e)
    | None -> ());
    Mutex.lock t.mutex;
    t.remaining <- t.remaining - 1;
    if t.remaining = 0 then Condition.broadcast t.finished;
    Mutex.unlock t.mutex;
    team_worker t ~shard ~last_gen:gen
  end

let team_create ~shards =
  let t =
    {
      t_shards = shards;
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      gen = 0;
      job = None;
      remaining = 0;
      stop = false;
      exns = Array.make shards None;
      domains = [||];
    }
  in
  t.domains <-
    Array.init (shards - 1) (fun w ->
        Domain.spawn (fun () -> team_worker t ~shard:(w + 1) ~last_gen:0));
  t

let team_phase t f =
  Mutex.lock t.mutex;
  t.job <- Some f;
  t.gen <- t.gen + 1;
  t.remaining <- t.t_shards - 1;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  (try f 0 with e -> t.exns.(0) <- Some e);
  Mutex.lock t.mutex;
  while t.remaining > 0 do
    Condition.wait t.finished t.mutex
  done;
  t.job <- None;
  Mutex.unlock t.mutex;
  Array.iteri
    (fun s exn ->
      match exn with
      | Some e ->
        t.exns.(s) <- None;
        raise e
      | None -> ())
    t.exns

let team_shutdown t =
  Mutex.lock t.mutex;
  if t.stop then Mutex.unlock t.mutex
  else begin
    t.stop <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.domains
  end

(* {1 The kernel} *)

let kernel ~shards ~max_messages ~advice g ~source factory =
  if shards < 1 then invalid_arg "Shard.kernel: shards must be >= 1";
  let n = Graph.n g in
  if source < 0 || source >= n then invalid_arg "Shard.kernel: source out of range";
  let k = shards in
  (* Contiguous block partition: node [v] belongs to shard [v / q];
     phases below test ownership as a range check on [v]. *)
  let q = (n + k - 1) / k in
  let g_off = Graph.csr_offsets g in
  let g_nbr = Graph.csr_neighbors g in
  let g_prt = Graph.csr_ports g in
  let counts = Array.init k (fun _ -> Obs.Counting.create ()) in
  let total_sent () = Array.fold_left (fun acc c -> acc + Obs.Counting.sent c) 0 counts in
  let informed = Array.make n false in
  let per_node_sent = Array.make n 0 in
  (* Two batches, swapped every round: [cur] is being delivered, [nxt]
     receives the round's sends.  Without delays every message of round
     [r] was sent in round [r - 1], so a batch needs no depth column
     (depth = round) and no ring: it is exactly one round's sends.
     Sequence numbers and sources are not kept either — nothing in a
     result without a trace reads them; the slot order alone carries the
     sequential engine's send order. *)
  let cur_dst = ref [||] and cur_port = ref [||] and cur_msg = ref [||] in
  let cur_inf = ref Bytes.empty in
  let nxt_dst = ref [||] and nxt_port = ref [||] and nxt_msg = ref [||] in
  let nxt_inf = ref Bytes.empty in
  let reserve_nxt len =
    if Array.length !nxt_dst < len then begin
      let c = max 256 (max len (2 * Array.length !nxt_dst)) in
      nxt_dst := Array.make c 0;
      nxt_port := Array.make c 0;
      nxt_msg := Array.make c Message.Hello;
      nxt_inf := Bytes.make c '\000'
    end
  in
  let swap () =
    let d = !cur_dst and p = !cur_port and m = !cur_msg and i = !cur_inf in
    cur_dst := !nxt_dst;
    cur_port := !nxt_port;
    cur_msg := !nxt_msg;
    cur_inf := !nxt_inf;
    nxt_dst := d;
    nxt_port := p;
    nxt_msg := m;
    nxt_inf := i
  in
  (* Per-slot responses of the batch being processed, with the
     exclusive prefix sum of their counts; reused across rounds. *)
  let resp = ref [||] and offs = ref [||] in
  let reserve_resp len =
    if Array.length !resp < len then begin
      let c = max 256 (max len (2 * Array.length !resp)) in
      resp := Array.make c [];
      offs := Array.make (c + 1) 0
    end
  in
  let team = ref None in
  let run_phase ~size f =
    if size >= parallel_threshold then begin
      let t =
        match !team with
        | Some t -> t
        | None ->
          let t = team_create ~shards:k in
          team := Some t;
          t
      in
      team_phase t f
    end
    else
      for s = 0 to k - 1 do
        f s
      done
  in
  (* Emit: slot [o] of a batch of [len] holds the sends [!resp.(o)] of
     node [node o], and [!offs.(o + 1)] their count.  The prefix sum turns
     the counts into offsets; each owner then writes its slots' sends into
     [nxt] from offset [!offs.(o)] on, in send order. *)
  let emit ~round ~len ~node =
    let rs = !resp and os = !offs in
    os.(0) <- 0;
    for o = 0 to len - 1 do
      os.(o + 1) <- os.(o) + os.(o + 1)
    done;
    let total = os.(len) in
    reserve_nxt total;
    let ndst = !nxt_dst and nport = !nxt_port and nmsg = !nxt_msg and ninf = !nxt_inf in
    run_phase ~size:len (fun s ->
        let lo = s * q and hi = min n ((s * q) + q) in
        let c = counts.(s) in
        let rec place v inf slot = function
          | [] -> ()
          | (msg, port) :: rest ->
            let base = g_off.(v) in
            if port < 0 || port >= g_off.(v + 1) - base then
              invalid_arg
                (Printf.sprintf "Runner: node %d (degree %d) sends on port %d" v
                   (g_off.(v + 1) - base) port);
            per_node_sent.(v) <- per_node_sent.(v) + 1;
            Obs.Counting.note_send c ~round ~cls:(msg_class msg) ~bits:(Message.size_bits msg);
            Array.unsafe_set ndst slot g_nbr.(base + port);
            Array.unsafe_set nport slot g_prt.(base + port);
            Array.unsafe_set nmsg slot msg;
            Bytes.unsafe_set ninf slot (if inf then '\001' else '\000');
            place v inf (slot + 1) rest
        in
        for o = 0 to len - 1 do
          let v = node o in
          if v >= lo && v < hi then begin
            place v informed.(v) os.(o) rs.(o);
            rs.(o) <- []
          end
        done);
    total
  in
  Fun.protect
    ~finally:(fun () -> Option.iter team_shutdown !team)
    (fun () ->
      let silent = { Scheme.on_start = (fun () -> []); on_receive = (fun _ ~port:_ -> []) } in
      let nodes = Array.make n silent in
      (* Instantiation and start-up: [advice], [factory] and [on_start]
         run on the owners (advice-read accounting is a per-shard sum). *)
      reserve_resp n;
      run_phase ~size:n (fun s ->
          let lo = s * q and hi = min n ((s * q) + q) in
          let c = counts.(s) in
          for v = lo to hi - 1 do
            let a = advice v in
            Obs.Counting.note_advice c ~round:0 ~bits:(Bitstring.Bitbuf.length a);
            nodes.(v) <-
              factory
                {
                  History.advice = a;
                  is_source = v = source;
                  id = Graph.label g v;
                  degree = Graph.degree g v;
                }
          done);
      informed.(source) <- true;
      Obs.Counting.note_wake counts.(0) ~round:0;
      run_phase ~size:n (fun s ->
          let lo = s * q and hi = min n ((s * q) + q) in
          for v = lo to hi - 1 do
            let sends = nodes.(v).Scheme.on_start () in
            !resp.(v) <- sends;
            !offs.(v + 1) <- List.length sends
          done);
      let len = ref (emit ~round:0 ~len:n ~node:Fun.id) in
      swap ();
      let round = ref 0 in
      let cutoff = ref false in
      while !len > 0 && not !cutoff do
        incr round;
        let round = !round and len0 = !len in
        reserve_resp len0;
        let dst = !cur_dst and port = !cur_port and msg = !cur_msg and inf = !cur_inf in
        let rs = !resp and os = !offs in
        (* Deliver: owners scan the whole batch in slot order and take the
           slots addressed to their nodes; a node receiving twice in one
           round is handled by one owner in slot order, so wake decisions
           match the sequential engine's. *)
        run_phase ~size:len0 (fun s ->
            let lo = s * q and hi = min n ((s * q) + q) in
            let c = counts.(s) in
            for o = 0 to len0 - 1 do
              let v = Array.unsafe_get dst o in
              if v >= lo && v < hi then begin
                Obs.Counting.note_deliver c ~round ~depth:round;
                if Bytes.unsafe_get inf o <> '\000' && not informed.(v) then begin
                  informed.(v) <- true;
                  Obs.Counting.note_wake c ~round
                end;
                let sends =
                  nodes.(v).Scheme.on_receive (Array.unsafe_get msg o)
                    ~port:(Array.unsafe_get port o)
                in
                rs.(o) <- sends;
                os.(o + 1) <- List.length sends
              end
            done);
        len := emit ~round ~len:len0 ~node:(fun o -> Array.unsafe_get dst o);
        swap ();
        if total_sent () > max_messages then cutoff := true
      done;
      let merged = Obs.Counting.create () in
      Array.iter (Obs.Counting.absorb merged) counts;
      let c = Obs.Counting.summary merged in
      {
        Runner.stats =
          {
            Runner.sent = c.Obs.Counting.sent;
            source_sent = c.Obs.Counting.source_sent;
            hello_sent = c.Obs.Counting.hello_sent;
            control_sent = c.Obs.Counting.control_sent;
            bits_on_wire = c.Obs.Counting.bits_on_wire;
            rounds = c.Obs.Counting.rounds;
            causal_depth = c.Obs.Counting.causal_depth;
            faults = c.Obs.Counting.faults;
          };
        informed;
        all_informed = Array.for_all Fun.id informed;
        quiescent = not !cutoff;
        per_node_sent;
      })

(* {1 The selection rule} *)

let run ?(scheduler = Scheduler.Async_fifo) ?max_messages ?(sinks = []) ?(faults = Fault_plan.none)
    ?(retry = 0) ~advice g ~source factory =
  let k = Domain.recommended_domain_count () in
  (* A negative [retry] is left to [Runner.run] to reject. *)
  if
    scheduler = Scheduler.Synchronous
    && sinks = [] && Fault_plan.is_none faults && retry >= 0 && Domain.is_main_domain () && k > 1
  then
    let max_messages =
      Option.value max_messages ~default:(Runner.default_max_messages ~retry g)
    in
    kernel ~shards:k ~max_messages ~advice g ~source factory
  else
    Runner.run ~scheduler ?max_messages ~sinks ~faults ~retry ~advice g ~source factory
