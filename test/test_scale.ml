(* Larger-scale runs: the same theorem claims at n in the thousands, to
   catch anything that only breaks past toy sizes (overflow, quadratic
   blowups, stack depth). *)

open Oracle_core
module Graph = Netgraph.Graph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let big_sparse n = Netgraph.Gen.random_connected ~n ~p:(4.0 /. float_of_int n) (Random.State.make [| n |])

let test_wakeup_4096 () =
  let n = 4096 in
  let g = big_sparse n in
  let o = Wakeup.run g ~source:0 in
  check_bool "informed" true o.Wakeup.result.Sim.Runner.all_informed;
  check_int "n-1 messages" (n - 1) o.Wakeup.result.Sim.Runner.stats.Sim.Runner.sent;
  check_bool "advice within budget" true (o.Wakeup.advice_bits <= Bounds.wakeup_advice_upper ~n)

let test_broadcast_4096 () =
  let n = 4096 in
  let g = big_sparse n in
  let o = Broadcast.run g ~source:0 in
  check_bool "informed" true o.Broadcast.result.Sim.Runner.all_informed;
  check_bool "< 3n messages" true (o.Broadcast.result.Sim.Runner.stats.Sim.Runner.sent < 3 * n);
  check_bool "<= 8n bits" true (o.Broadcast.advice_bits <= 8 * n);
  check_bool "contribution <= 4n" true (o.Broadcast.tree_contribution <= 4 * n)

let test_light_tree_deep_path () =
  (* A 20 000-node path: recursion depths and tree plumbing at scale. *)
  let n = 20_000 in
  let g = Netgraph.Gen.path n in
  let t = Netgraph.Spanning.light g ~root:0 in
  check_bool "valid" true (Netgraph.Spanning.check g t = Ok ());
  check_bool "within 4n" true
    (Netgraph.Spanning.contribution g (Netgraph.Spanning.edges t) <= 4 * n)

let test_gossip_2048 () =
  let n = 2048 in
  let g = big_sparse n in
  let o = Gossip.run g ~source:0 in
  check_bool "complete" true o.Gossip.complete;
  check_int "2(n-1)" (2 * (n - 1)) o.Gossip.result.Sim.Runner.stats.Sim.Runner.sent

let test_counting_pipeline_large () =
  (* The threshold keeps its shape out to n = 2^18 without numeric
     trouble. *)
  let q n = Lower_bound.min_advice_for_linear_wakeup ~n ~budget_factor:3.0 in
  let q17 = q 131072 and q18 = q 262144 in
  check_bool "superlinear at scale" true (q18 > 2 * q17)

let test_wakeup_100k () =
  (* Theorem 2.1's exact count at n = 10^5: the ring-buffer/timer-wheel
     hot path must land on exactly n-1 messages, everyone informed,
     queue drained. *)
  let n = 100_000 in
  let g = Netgraph.Gen.path n in
  let o = Wakeup.run g ~source:0 in
  let r = o.Wakeup.result in
  check_bool "informed" true r.Sim.Runner.all_informed;
  check_bool "quiescent" true r.Sim.Runner.quiescent;
  check_int "n-1 messages" (n - 1) r.Sim.Runner.stats.Sim.Runner.sent

let test_broadcast_100k () =
  let n = 100_000 in
  let g = Netgraph.Gen.path n in
  let o = Broadcast.run g ~source:0 in
  let r = o.Broadcast.result in
  check_bool "informed" true r.Sim.Runner.all_informed;
  check_bool "quiescent" true r.Sim.Runner.quiescent;
  check_int "n-1 source messages" (n - 1) r.Sim.Runner.stats.Sim.Runner.source_sent;
  check_bool "< 3n messages" true (r.Sim.Runner.stats.Sim.Runner.sent < 3 * n)

let test_broadcast_path_600k () =
  (* Just above the old fixed cap of 10^6 messages: Scheme B on a path
     sends about 2n, so a cap that did not scale with the instance cut
     this run off with most of the path uninformed. *)
  let n = 600_000 in
  let g = Netgraph.Gen.path n in
  let o = Broadcast.run g ~source:0 in
  let r = o.Broadcast.result in
  check_bool "quiescent" true r.Sim.Runner.quiescent;
  check_bool "informed" true r.Sim.Runner.all_informed;
  check_int "n-1 source messages" (n - 1) r.Sim.Runner.stats.Sim.Runner.source_sent;
  check_bool "past the old cap" true (r.Sim.Runner.stats.Sim.Runner.sent > 1_000_000);
  check_bool "< 3n messages" true (r.Sim.Runner.stats.Sim.Runner.sent < 3 * n)

let test_untraced_bit_identical () =
  (* The allocation-free path is an observer choice, not a semantics
     choice: with [record_trace:false] and no sinks the runner takes its
     no-allocation counting path, and every statistic must come out
     bit-identical to a fully traced run with a live counting sink —
     across fault plans (exercising the delay and retransmit timer
     wheels), schedulers and retry budgets. *)
  let g = big_sparse 512 in
  let no_advice _ = Bitstring.Bitbuf.create () in
  let configs =
    [
      ("none", 0);
      ("drop=0.1,seed=5", 3);
      ("delay=0.3:7,seed=9", 0);
      ("dup=0.05,reorder=3,seed=11", 0);
      ("drop=0.15,delay=0.2:5,crash=7@40,seed=13", 2);
    ]
  in
  List.iter
    (fun (spec, retry) ->
      let faults = Sim.Fault_plan.of_string_exn spec in
      List.iter
        (fun sched ->
          let name =
            Printf.sprintf "%s/%s/retry=%d" spec (Sim.Scheduler.name sched) retry
          in
          let collect, collected = Obs.Sink.collect () in
          let counts = Obs.Counting.create () in
          let traced =
            Sim.Runner.run ~scheduler:sched ~record_trace:true
              ~sinks:[ collect; Obs.Counting.sink counts ]
              ~faults ~retry ~advice:no_advice g ~source:0 Sim.Scheme.flooding
          in
          let bare =
            Sim.Runner.run ~scheduler:sched ~faults ~retry ~advice:no_advice g ~source:0
              Sim.Scheme.flooding
          in
          check_bool (name ^ ": stats identical") true
            (bare.Sim.Runner.stats = traced.Sim.Runner.stats);
          check_bool (name ^ ": informed identical") true
            (bare.Sim.Runner.informed = traced.Sim.Runner.informed);
          check_bool (name ^ ": quiescent identical") true
            (bare.Sim.Runner.quiescent = traced.Sim.Runner.quiescent);
          check_bool (name ^ ": load identical") true
            (bare.Sim.Runner.per_node_sent = traced.Sim.Runner.per_node_sent);
          check_bool (name ^ ": untraced run records no deliveries") true
            (bare.Sim.Runner.deliveries = []);
          check_int (name ^ ": trace length = deliveries")
            (List.length traced.Sim.Runner.deliveries)
            (Obs.Counting.summary counts).Obs.Counting.delivered;
          (* The replay audit closes the loop: the event stream alone
             reproduces the counters and balances the in-flight ledger. *)
          let r = Obs.Replay.replay ~n:(Graph.n g) (collected ()) in
          check_bool (name ^ ": replay counters") true
            (r.Obs.Replay.summary = Obs.Counting.summary counts);
          if traced.Sim.Runner.quiescent then
            check_int (name ^ ": replay in-flight balance") 0 r.Obs.Replay.in_flight)
        Sim.Scheduler.default_suite)
    configs

let test_separation_2048 () =
  let m = Separation.measure Netgraph.Families.Sparse_random ~n:2048 ~seed:227 in
  check_bool "wakeup ok" true m.Separation.wakeup_ok;
  check_bool "broadcast ok" true m.Separation.broadcast_ok;
  check_bool "ratio grown past 7" true (m.Separation.bits_ratio > 7.0)

let suite =
  [
    Alcotest.test_case "wakeup at n=4096" `Slow test_wakeup_4096;
    Alcotest.test_case "broadcast at n=4096" `Slow test_broadcast_4096;
    Alcotest.test_case "light tree on a 20k path" `Slow test_light_tree_deep_path;
    Alcotest.test_case "gossip at n=2048" `Slow test_gossip_2048;
    Alcotest.test_case "counting pipeline at n=2^18" `Slow test_counting_pipeline_large;
    Alcotest.test_case "separation at n=2048" `Slow test_separation_2048;
    Alcotest.test_case "wakeup at n=10^5" `Slow test_wakeup_100k;
    Alcotest.test_case "broadcast at n=10^5" `Slow test_broadcast_100k;
    Alcotest.test_case "path broadcast at n=6*10^5 under the default cap" `Slow
      test_broadcast_path_600k;
    Alcotest.test_case "untraced = traced, bit-identical" `Slow test_untraced_bit_identical;
  ]
