(* Tracer for the benchmark in perfbench/run.py.

   It repeats what one [oraclesize] command does, calling each layer's
   public function in the CLI's order, and records one span per call:
   name, start, end, parent, domain, minor and major words allocated,
   and the counts measured at that boundary.  Spans stay in memory and
   are written out once, at exit, so the recording cost is one clock
   read and one [Gc.counters] call at each end of a span.

     trace.exe run PROTOCOL FAMILY N SCHED SEED SPANS
       one wakeup/broadcast instance, printing the CLI's summary lines
       and exiting 1 when not every node was reached, as the CLI does;
     trace.exe sweep GRID WORKERS RETRY JOURNAL OUT SPANS
       the journaled sweep of [oraclesize sweep --workers WORKERS]:
       chunks of [Sim.Sweep.default_chunk] points over a [Sim.Pool] of
       WORKERS domains, each keeping its graph and advice caches for
       the whole sweep as a subprocess worker does; every point's
       heartbeat and result, and every chunk's task batch, round-trip
       through the worker wire codec ([Sim.Worker.encode],
       [Bitstring.Frame.decode], [Sim.Worker.parse]); appends in
       canonical order; rows written to OUT byte-for-byte as the CLI
       writes them.  Each fault-free point also runs the bare engine on
       the same graph and advice, tagged [ref=1], as the base of the
       harness-over-runner ratio.

   With SPANS given as [-] no span is recorded: the same calls run
   untraced, as the base of the tracing overhead.  SPANS lines are
   tab-separated:
     name id parent domain t0 t1 minor_words major_words attrs
   where attrs is a comma-separated list of key=value counts. *)

module Graph = Netgraph.Graph
module Families = Netgraph.Families
module Spanning = Netgraph.Spanning
module Advice = Oracles.Advice

(* {1 Spans} *)

type span = {
  name : string;
  id : int;
  parent : int;
  dom : int;
  t0 : float;
  t1 : float;
  minor : float;
  major : float;
  attrs : string;
}

let next_id = Atomic.make 1

(* Parent of a span opened on a domain whose own stack is empty: pool
   tasks hang under the pass that submitted them. *)
let root = Atomic.make 0
let buffers_lock = Mutex.create ()
let buffers : span list ref list ref = ref []

let buffer =
  Domain.DLS.new_key (fun () ->
      let b = ref [] in
      Mutex.protect buffers_lock (fun () -> buffers := b :: !buffers);
      b)

let stack = Domain.DLS.new_key (fun () -> ref [])

(* Off for the pass without spans that the tracing overhead is measured
   against. *)
let enabled = ref true

let record attrs name f =
  let st = Domain.DLS.get stack in
  let parent = match !st with p :: _ -> p | [] -> Atomic.get root in
  let id = Atomic.fetch_and_add next_id 1 in
  st := id :: !st;
  let minor0, _, major0 = Gc.counters () in
  let t0 = Unix.gettimeofday () in
  let r =
    match f () with
    | r -> r
    | exception e ->
      st := List.tl !st;
      raise e
  in
  let t1 = Unix.gettimeofday () in
  let minor1, _, major1 = Gc.counters () in
  st := List.tl !st;
  let b = Domain.DLS.get buffer in
  b :=
    {
      name;
      id;
      parent;
      dom = (Domain.self () :> int);
      t0;
      t1;
      minor = minor1 -. minor0;
      major = major1 -. major0;
      attrs = attrs r;
    }
    :: !b;
  r

let span ?(attrs = fun _ -> "") name f = if !enabled then record attrs name f else f ()

let write_spans path =
  if !enabled then begin
    let oc = open_out path in
    List.iter
      (fun b ->
        List.iter
          (fun s ->
            Printf.fprintf oc "%s\t%d\t%d\t%d\t%.9f\t%.9f\t%.0f\t%.0f\t%s\n" s.name s.id
              s.parent s.dom s.t0 s.t1 s.minor s.major s.attrs)
          (List.rev !b))
      !buffers;
    close_out oc
  end

(* {1 One instance, as [oraclesize wakeup|broadcast]} *)

let scheduler_of_name = function
  | "sync" -> Sim.Scheduler.Synchronous
  | "fifo" -> Sim.Scheduler.Async_fifo
  | s -> failwith (Printf.sprintf "unknown scheduler %S (sync|fifo)" s)

let family_of_name s =
  match Families.of_name s with Some f -> f | None -> failwith ("unknown family " ^ s)

let bits_attr a = Printf.sprintf "bits=%d" (Advice.size_bits a)

let run_attr (r : Sim.Runner.result) =
  Printf.sprintf "msgs=%d" r.Sim.Runner.stats.Sim.Runner.sent

let run_instance protocol family n scheduler seed =
  span "op" (fun () ->
      let g = span "families.build" (fun () -> Families.build family ~n ~seed) in
      let n = Graph.n g in
      Printf.printf "network:      %s, %d nodes, %d edges\n" (Families.name family) n (Graph.m g);
      let advise oracle =
        span ~attrs:bits_attr "oracle.advise" (fun () -> oracle.Oracles.Oracle.advise g ~source:0)
      in
      let run advice scheme =
        span ~attrs:run_attr "runner.run" (fun () ->
            Sim.Runner.run ~scheduler ~advice:(Advice.get advice) g ~source:0 scheme)
      in
      match protocol with
      | "wakeup" ->
        let t = span "spanning.bfs" (fun () -> Spanning.bfs g ~root:0) in
        ignore (span "spanning.check" (fun () -> Spanning.check g t));
        let advice = advise (Oracle_core.Wakeup.oracle ~tree:(fun _ ~root:_ -> t) ()) in
        let r = run advice (Sim.Scheme.check_wakeup (Oracle_core.Wakeup.scheme ())) in
        Printf.printf "oracle bits:  %d\n" (Advice.size_bits advice);
        Printf.printf "messages:     %d  (optimal: %d)\n" r.Sim.Runner.stats.Sim.Runner.sent
          (n - 1);
        Printf.printf "all awake:    %b\n" r.Sim.Runner.all_informed;
        r.Sim.Runner.all_informed
      | "broadcast" ->
        let t = span "spanning.light" (fun () -> Spanning.light g ~root:0) in
        ignore
          (span "spanning.contribution" (fun () -> Spanning.contribution g (Spanning.edges t)));
        let advice = advise (Oracle_core.Broadcast.oracle ~tree:(fun _ ~root:_ -> t) ()) in
        let r = run advice (Oracle_core.Broadcast.scheme ()) in
        let s = r.Sim.Runner.stats in
        Printf.printf "oracle bits:  %d  (Theorem 3.1 budget %d)\n" (Advice.size_bits advice)
          (8 * n);
        Printf.printf "messages:     %d = %d source + %d hello  (budget < %d)\n" s.Sim.Runner.sent
          s.Sim.Runner.source_sent s.Sim.Runner.hello_sent (3 * n);
        Printf.printf "all informed: %b\n" r.Sim.Runner.all_informed;
        r.Sim.Runner.all_informed
      | p -> failwith ("unknown protocol " ^ p))

(* {1 The journaled sweep, as [oraclesize sweep --journal]} *)

(* [json_escape] and [row] repeat the CLI's row encoder: the benchmark
   checks that these rows equal the CLI's byte for byte, which pins the
   tracer to the CLI's call sequence. *)
let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let row p (e : Sim.Journal.entry) =
  Printf.sprintf
    {|{"protocol":"%s","family":"%s","n":%d,"m":%d,"scheduler":"%s","plan":"%s","rep":%d,"seed":%d,"sent":%d,"rounds":%d,"advice_bits":%d,"raw_bits":%d,"faults":%d,"fallbacks":%d,"tampered":%d,"retransmits":%d,"corrected_bits":%d,"informed":%d,"class":"%s","verdict":"%s"}|}
    (json_escape p.Sim.Sweep.protocol)
    (json_escape (Families.name p.Sim.Sweep.family))
    e.Sim.Journal.n e.Sim.Journal.m
    (json_escape (Sim.Scheduler.name p.Sim.Sweep.scheduler))
    (json_escape (Fault.Plan.to_string p.Sim.Sweep.plan))
    p.Sim.Sweep.rep p.Sim.Sweep.seed e.Sim.Journal.messages e.Sim.Journal.rounds
    e.Sim.Journal.advice_bits e.Sim.Journal.raw_advice_bits e.Sim.Journal.faults
    e.Sim.Journal.fallbacks e.Sim.Journal.tampered e.Sim.Journal.retransmits
    e.Sim.Journal.corrected_bits e.Sim.Journal.informed
    (Sim.Journal.class_name e.Sim.Journal.verdict_class)
    (json_escape e.Sim.Journal.verdict)

let protocol_of_name = function
  | "wakeup" -> Fault.Harness.Wakeup
  | "broadcast" -> Fault.Harness.Broadcast
  | p -> failwith ("unknown protocol " ^ p)

(* The CLI's [execute_point], with the tree split out of
   [Fault.Harness.advise] so the spanning and oracle layers are timed
   apart; the advice bytes are the same. *)
let execute_point grid ~retry (graphs, advice_cache) p =
  let proto = protocol_of_name p.Sim.Sweep.protocol in
  let gseed = Sim.Sweep.graph_seed grid p in
  let gkey = (Families.name p.Sim.Sweep.family, p.Sim.Sweep.n, gseed) in
  let g =
    Sim.Sweep.Cache.find graphs gkey (fun () ->
        span "families.build" (fun () ->
            Families.build p.Sim.Sweep.family ~n:p.Sim.Sweep.n ~seed:gseed))
  in
  let raw_advice =
    Sim.Sweep.Cache.find advice_cache (p.Sim.Sweep.protocol, gkey) (fun () ->
        let oracle =
          match proto with
          | Fault.Harness.Wakeup ->
            let t = span "spanning.bfs" (fun () -> Spanning.bfs g ~root:0) in
            Oracle_core.Wakeup.oracle ~tree:(fun _ ~root:_ -> t) ()
          | Fault.Harness.Broadcast ->
            let t = span "spanning.light" (fun () -> Spanning.light g ~root:0) in
            Oracle_core.Broadcast.oracle ~tree:(fun _ ~root:_ -> t) ()
        in
        (* Which worker misses the cache depends on timing; the key lets
           the exact advice size be counted once per advice. *)
        let attrs a =
          Printf.sprintf "%s,key=%s/%s/%d/%d" (bits_attr a) p.Sim.Sweep.protocol
            (Families.name p.Sim.Sweep.family) p.Sim.Sweep.n gseed
        in
        span ~attrs "oracle.advise" (fun () -> oracle.Oracles.Oracle.advise g ~source:0))
  in
  let scheduler = p.Sim.Sweep.scheduler in
  let o =
    span
      ~attrs:(fun (o : Fault.Harness.outcome) ->
        Printf.sprintf "msgs=%d,events=%d,none=%d"
          o.Fault.Harness.result.Sim.Runner.stats.Sim.Runner.sent
          (List.length o.Fault.Harness.events)
          (if p.Sim.Sweep.plan = Fault.Plan.none then 1 else 0))
      "harness.run"
      (fun () ->
        Fault.Harness.run ~scheduler ~plan:p.Sim.Sweep.plan ~protect:Bitstring.Ecc.Raw ~retry
          ~raw_advice proto g ~source:0)
  in
  if p.Sim.Sweep.plan = Fault.Plan.none then begin
    let scheme =
      match proto with
      | Fault.Harness.Wakeup -> Sim.Scheme.check_wakeup (Oracle_core.Wakeup.scheme ())
      | Fault.Harness.Broadcast -> Oracle_core.Broadcast.scheme ()
    in
    ignore
      (span
         ~attrs:(fun r -> run_attr r ^ ",ref=1")
         "runner.run"
         (fun () -> Sim.Runner.run ~scheduler ~advice:(Advice.get raw_advice) g ~source:0 scheme))
  end;
  span "journal.entry" (fun () -> Fault.Harness.journal_entry g o)

(* One wire round trip: encode, then decode and parse on the far side. *)
let round_trip msg =
  let s = Sim.Worker.encode msg in
  match Bitstring.Frame.decode s ~pos:0 with
  | Error e -> failwith (Bitstring.Frame.error_to_string e)
  | Ok (f, _) -> (
    match Sim.Worker.parse f with Ok m -> (m, String.length s) | Error e -> failwith e)

let codec_attr (_, bytes) = Printf.sprintf "bytes=%d" bytes

(* Per domain, not per [Sim.Pool.map_local] call: that makes its local
   values afresh on every call, that is for every chunk. *)
let worker_caches =
  Domain.DLS.new_key (fun () -> (Sim.Sweep.Cache.create (), Sim.Sweep.Cache.create ()))

let run_sweep grid ~workers ~retry ~journal ~out =
  let pts = Sim.Sweep.points grid in
  let total = Array.length pts in
  let ctx =
    {
      Sim.Journal.spec = Sim.Sweep.to_string grid;
      extra = Printf.sprintf "protect=%s;retry=%d" (Bitstring.Ecc.name Bitstring.Ecc.Raw) retry;
    }
  in
  let entries = Array.make total None in
  span "sweep.pass" (fun () ->
      (match !(Domain.DLS.get stack) with p :: _ -> Atomic.set root p | [] -> ());
      let j =
        span "journal.open" (fun () ->
            match Sim.Journal.open_ ~expect:ctx ~path:journal () with
            | Ok (j, _) -> j
            | Error e -> failwith e)
      in
      Sim.Pool.with_pool ~jobs:workers (fun pool ->
          let chunk = Sim.Sweep.default_chunk in
          let start = ref 0 in
          while !start < total do
            let idx = Array.init (min chunk (total - !start)) (fun k -> !start + k) in
            ignore
              (span ~attrs:codec_attr "worker.codec" (fun () ->
                   round_trip (Sim.Worker.Task_batch { seq = !start / chunk; indices = idx })));
            let results =
              Sim.Pool.map_local pool
                ~local:(fun () -> Domain.DLS.get worker_caches)
                (fun caches k ->
                  let i = idx.(k) in
                  span "sweep.point" (fun () ->
                      let e = execute_point grid ~retry caches pts.(i) in
                      span ~attrs:codec_attr "worker.codec" (fun () ->
                          let _, hb =
                            round_trip (Sim.Worker.Heartbeat { worker = 0; count = i })
                          in
                          let m, rb = round_trip (Sim.Worker.Result { index = i; result = Ok e }) in
                          match m with
                          | Sim.Worker.Result { result = Ok e; _ } -> (e, hb + rb)
                          | _ -> failwith "result frame did not round-trip")
                      |> fst))
                (Array.length idx)
            in
            Array.iteri
              (fun k r ->
                let i = idx.(k) in
                match r with
                | Error (e, _) -> raise e
                | Ok e ->
                  span "journal.append" (fun () ->
                      Sim.Journal.append j ~key:pts.(i).Sim.Sweep.seed e);
                  entries.(i) <- Some e)
              results;
            start := !start + chunk
          done);
      Sim.Journal.close j;
      span "sweep.emit" (fun () ->
          let buf = Buffer.create 4096 in
          Array.iteri
            (fun i e ->
              match e with
              | Some e ->
                Buffer.add_string buf (row pts.(i) e);
                Buffer.add_char buf '\n'
              | None -> ())
            entries;
          let oc = open_out out in
          Buffer.output_buffer oc buf;
          close_out oc))

let () =
  enabled := Sys.argv.(Array.length Sys.argv - 1) <> "-";
  match Array.to_list Sys.argv with
  | [ _; "run"; protocol; family; n; sched; seed; spans ] ->
    let ok =
      run_instance protocol (family_of_name family) (int_of_string n) (scheduler_of_name sched)
        (int_of_string seed)
    in
    write_spans spans;
    if not ok then exit 1
  | [ _; "sweep"; grid; workers; retry; journal; out; spans ] ->
    let grid = match Sim.Sweep.of_string grid with Ok g -> g | Error e -> failwith e in
    run_sweep grid ~workers:(int_of_string workers) ~retry:(int_of_string retry) ~journal ~out;
    write_spans spans
  | _ ->
    prerr_endline
      "usage: trace.exe run PROTOCOL FAMILY N SCHED SEED SPANS\n\
      \       trace.exe sweep GRID WORKERS RETRY JOURNAL OUT SPANS";
    exit 2
