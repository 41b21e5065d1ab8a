(* The sharded kernel's contract is equality with the sequential runner:
   at any shard count, one synchronous run produces the stats, per-node
   load, informed set and quiescence of [Runner.run].  The instances
   below have rounds wider than the kernel's 256-slot inline threshold,
   so the parallel phases really run.  The selection rule is checked
   too: anything the kernel does not take (sinks, a trace, faults) must
   come out of [Shard.run] exactly as out of [Runner.run]. *)

open Oracle_core
module Families = Netgraph.Families

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let jsonl events = String.concat "\n" (List.map Obs.Jsonl.encode events)

let families =
  [
    ("sparse-random", fun () -> Families.build Families.Sparse_random ~n:4096 ~seed:7);
    ("hypercube", fun () -> Families.build Families.Hypercube ~n:2048 ~seed:7);
    ("complete", fun () -> Families.build Families.Complete ~n:2048 ~seed:7);
  ]

let shard_counts = [ 1; 2; 7 ]

let sync = Sim.Scheduler.Synchronous

let cap g = Sim.Runner.default_max_messages ~retry:0 g

let same name (expected : Sim.Runner.result) (r : Sim.Runner.result) =
  check_bool (name ^ ": stats") true (expected.Sim.Runner.stats = r.Sim.Runner.stats);
  check_bool (name ^ ": per-node load") true
    (expected.Sim.Runner.per_node_sent = r.Sim.Runner.per_node_sent);
  check_bool (name ^ ": informed") true (expected.Sim.Runner.informed = r.Sim.Runner.informed);
  check_bool (name ^ ": quiescent") true (expected.Sim.Runner.quiescent = r.Sim.Runner.quiescent)

(* The paper's two schemes, with their own oracles' advice. *)
let protocols =
  [
    ( "wakeup",
      fun g ->
        ( Oracles.Advice.get ((Wakeup.oracle ()).Oracles.Oracle.advise g ~source:0),
          Sim.Scheme.check_wakeup (Wakeup.scheme ()) ) );
    ( "broadcast",
      fun g ->
        ( Oracles.Advice.get ((Broadcast.oracle ()).Oracles.Oracle.advise g ~source:0),
          Broadcast.scheme () ) );
  ]

let test_protocol_grid () =
  List.iter
    (fun (fam, build) ->
      let g = build () in
      List.iter
        (fun (proto, setup) ->
          let advice, factory = setup g in
          let reference = Sim.Runner.run ~scheduler:sync ~advice g ~source:0 factory in
          check_bool (proto ^ "/" ^ fam ^ ": completes") true reference.Sim.Runner.all_informed;
          List.iter
            (fun shards ->
              let r = Sim.Shard.kernel ~shards ~max_messages:(cap g) ~advice g ~source:0 factory in
              same (Printf.sprintf "%s/%s/shards=%d" proto fam shards) reference r)
            shard_counts)
        protocols)
    families

(* Flooding whose load depends on delivery order: a node whose first
   [Source] arrives on an odd port also sends one [Hello] back, so any
   change to the order of deliveries within a round, or to the order the
   emit phase lays responses out in, moves the per-node load. *)
let order_probe static =
  let seen = ref false in
  let flood p =
    List.filter_map
      (fun q -> if q = p then None else Some (Sim.Message.Source, q))
      (List.init static.Sim.History.degree Fun.id)
  in
  let on_start () = if static.Sim.History.is_source then flood (-1) else [] in
  let on_receive msg ~port =
    match msg with
    | Sim.Message.Source when not !seen ->
      seen := true;
      if port land 1 = 1 then (Sim.Message.Hello, port) :: flood port else flood port
    | Sim.Message.Source | Sim.Message.Hello | Sim.Message.Control _ -> []
  in
  { Sim.Scheme.on_start; on_receive }

(* Advice-free flooding sends on every edge, so its rounds are the widest
   the kernel sees (a smaller clique keeps its n² messages cheap);
   [Shard.run] with no shard count uses this machine's domain count. *)
let test_forced_parallel_phases () =
  List.iter
    (fun (fam, build) ->
      let g = build () in
      let advice _ = Bitstring.Bitbuf.create () in
      List.iter
        (fun (scheme, factory) ->
          let reference = Sim.Runner.run ~scheduler:sync ~advice g ~source:0 factory in
          List.iter
            (fun shards ->
              let r = Sim.Shard.kernel ~shards ~max_messages:(cap g) ~advice g ~source:0 factory in
              same (Printf.sprintf "%s/%s/shards=%d" scheme fam shards) reference r)
            shard_counts;
          same
            (Printf.sprintf "%s/%s/auto" scheme fam)
            reference
            (Sim.Shard.run ~scheduler:sync ~advice g ~source:0 factory))
        [ ("flooding", Sim.Scheme.flooding); ("order-probe", order_probe) ])
    (List.filter (fun (fam, _) -> fam <> "complete") families
    @ [ ("complete", fun () -> Families.build Families.Complete ~n:400 ~seed:7) ])

(* What the kernel does not take goes to [Runner.run] unchanged: the
   event stream, the in-memory trace and the fault accounting are the
   sequential engine's, byte for byte. *)
let test_observed_runs_take_runner () =
  let g = Families.build Families.Sparse_random ~n:2048 ~seed:11 in
  let advice _ = Bitstring.Bitbuf.create () in
  let run_both name ?record_trace ?faults ?retry () =
    let c1, got1 = Obs.Sink.collect () and c2, got2 = Obs.Sink.collect () in
    let a =
      Sim.Runner.run ~scheduler:sync ?record_trace ~sinks:[ c1 ] ?faults ?retry ~advice g ~source:0
        Sim.Scheme.flooding
    in
    let b =
      Sim.Shard.run ~scheduler:sync ?record_trace ~sinks:[ c2 ] ?faults ?retry ~advice g ~source:0
        Sim.Scheme.flooding
    in
    same name a b;
    check_string (name ^ ": event bytes") (jsonl (got1 ())) (jsonl (got2 ()));
    check_bool (name ^ ": deliveries") true (a.Sim.Runner.deliveries = b.Sim.Runner.deliveries)
  in
  run_both "sinks" ();
  run_both "sinks+trace" ~record_trace:true ();
  run_both "drop+crash, retry 2" ~faults:(Sim.Fault_plan.of_string_exn "drop=0.1,crash=3@5,seed=7")
    ~retry:2 ();
  (* A trace without sinks, and a plan without sinks, take Runner too. *)
  let traced =
    Sim.Shard.run ~scheduler:sync ~record_trace:true ~advice g ~source:0 Sim.Scheme.flooding
  in
  check_int "trace recorded" traced.Sim.Runner.stats.Sim.Runner.sent
    (List.length traced.Sim.Runner.deliveries);
  let faults = Sim.Fault_plan.of_string_exn "dup=0.05,reorder=3,seed=11" in
  same "faults, no sinks"
    (Sim.Runner.run ~scheduler:sync ~faults ~advice g ~source:0 Sim.Scheme.flooding)
    (Sim.Shard.run ~scheduler:sync ~faults ~advice g ~source:0 Sim.Scheme.flooding)

(* The cap is checked after each round in both engines, so a small
   explicit cap stops them at the same count — also a cap that equals the
   count at a round boundary, which a run may reach but not exceed. *)
let test_small_cap () =
  let g = Families.build Families.Sparse_random ~n:4096 ~seed:7 in
  let advice _ = Bitstring.Bitbuf.create () in
  let capped max_messages =
    Sim.Runner.run ~scheduler:sync ~max_messages ~advice g ~source:0 Sim.Scheme.flooding
  in
  let boundary = (capped 1000).Sim.Runner.stats.Sim.Runner.sent in
  List.iter
    (fun max_messages ->
      let reference = capped max_messages in
      check_bool "cut off" false reference.Sim.Runner.quiescent;
      List.iter
        (fun shards ->
          same
            (Printf.sprintf "cap %d/shards=%d" max_messages shards)
            reference
            (Sim.Shard.kernel ~shards ~max_messages ~advice g ~source:0 Sim.Scheme.flooding))
        shard_counts)
    [ 1000; boundary ]

(* The default cap never fires before the verdict would: it is at least
   the degraded budget plus the recovery budget, for every family. *)
let test_default_cap_covers_budgets () =
  List.iter
    (fun fam ->
      List.iter
        (fun n ->
          let g = Families.build fam ~n ~seed:3 in
          List.iter
            (fun retry ->
              List.iter
                (fun protocol ->
                  let b = Fault.Harness.budgets ~retry protocol g in
                  check_bool
                    (Printf.sprintf "%s n=%d retry=%d %s" (Families.name fam) n retry
                       (Fault.Harness.protocol_name protocol))
                    true
                    (Sim.Runner.default_max_messages ~retry g
                    >= b.Fault.Verdict.degraded + b.Fault.Verdict.recovery))
                [ Fault.Harness.Wakeup; Fault.Harness.Broadcast ])
            [ 0; 2 ])
        [ 16; 1000 ])
    Families.all

let test_validation () =
  let g = Netgraph.Gen.path 8 in
  let advice _ = Bitstring.Bitbuf.create () in
  Alcotest.check_raises "shards=0 rejected" (Invalid_argument "Shard.kernel: shards must be >= 1")
    (fun () ->
      ignore (Sim.Shard.kernel ~shards:0 ~max_messages:100 ~advice g ~source:0 Sim.Scheme.flooding))

let suite =
  [
    Alcotest.test_case "protocol grid: shards 1/2/7 byte-identical" `Slow test_protocol_grid;
    Alcotest.test_case "forced parallel phases bit-identical" `Slow test_forced_parallel_phases;
    Alcotest.test_case "sinks, trace and faults take Runner" `Slow test_observed_runs_take_runner;
    Alcotest.test_case "small cap cuts kernel and Runner alike" `Quick test_small_cap;
    Alcotest.test_case "default cap covers the verdict budgets" `Quick
      test_default_cap_covers_budgets;
    Alcotest.test_case "shard count validation" `Quick test_validation;
  ]
