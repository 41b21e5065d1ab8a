(* The adaptive batch scheduler: EWMA throughput accounting driven by
   synthetic clocks, batch-size clamping, the pure backoff schedule,
   per-address accept rate limiting at a live listener, and the
   headline end-to-end guarantee — `--batch auto` produces bytes
   identical to fixed batching at every worker count under every chaos
   schedule, while a deterministic straggler (the sticky `slow` shim
   fault) triggers tail-end speculation.  The end-to-end tests drive
   the real oraclesize binary, so real subprocesses straggle and die. *)

module Journal = Sim.Journal
module Worker = Sim.Worker
module Transport = Sim.Transport
module Dispatch = Sim.Dispatch
module Chaos = Fault.Chaos

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let sample_entry =
  {
    Journal.n = 24;
    m = 31;
    messages = 120;
    rounds = 17;
    advice_bits = 96;
    raw_advice_bits = 48;
    faults = 2;
    fallbacks = 1;
    tampered = 0;
    retransmits = 3;
    corrected_bits = 0;
    informed = 24;
    verdict_class = Journal.Degraded;
    verdict = "degraded: advice-fallback(1)";
  }

let context = { Journal.spec = "ns=16"; extra = "protect=raw;retry=0" }

(* {1 EWMA accounting} *)

(* Steady arrivals at rate r converge to r: with equal steps dt the
   recursion gives rate_n = r·(1 − e^(−n·dt/τ)), so enough steps pin
   the estimate to the true rate within any tolerance. *)
let test_ewma_converges_to_steady_rate () =
  let e = Dispatch.Ewma.create ~tau:0.5 () in
  Dispatch.Ewma.observe e ~now:0. ~tasks:0;
  for i = 1 to 40 do
    Dispatch.Ewma.observe e ~now:(0.1 *. float_of_int i) ~tasks:1
  done;
  let r = Dispatch.Ewma.rate e in
  check_bool (Printf.sprintf "steady 10/s converges (got %.3f)" r) true (abs_float (r -. 10.) < 0.2);
  check_int "total counts every task" 40 (Dispatch.Ewma.total e);
  (* Silence decays the estimate exponentially: observing zero tasks
     over a long interval must pull the rate toward zero. *)
  Dispatch.Ewma.observe e ~now:7. ~tasks:0;
  let r' = Dispatch.Ewma.rate e in
  check_bool (Printf.sprintf "idle interval decays the rate (got %.3f)" r') true (r' < 0.1)

let test_ewma_slowdown_tracks_new_rate () =
  let e = Dispatch.Ewma.create ~tau:0.5 () in
  Dispatch.Ewma.observe e ~now:0. ~tasks:0;
  for i = 1 to 30 do
    Dispatch.Ewma.observe e ~now:(0.1 *. float_of_int i) ~tasks:1
  done;
  let fast = Dispatch.Ewma.rate e in
  (* The worker degrades to one task per second. *)
  for i = 1 to 10 do
    Dispatch.Ewma.observe e ~now:(3. +. float_of_int i) ~tasks:1
  done;
  let slow = Dispatch.Ewma.rate e in
  check_bool (Printf.sprintf "slowdown tracked (%.2f -> %.2f)" fast slow) true (slow < fast /. 4.);
  check_bool (Printf.sprintf "new steady rate ~1/s (got %.3f)" slow) true
    (abs_float (slow -. 1.) < 0.2)

(* Events carried by a non-advancing clock are held, not dropped: the
   counts fold into the next real interval. *)
let test_ewma_conserves_same_instant_events () =
  let e = Dispatch.Ewma.create ~tau:1.0 () in
  Dispatch.Ewma.observe e ~now:1.0 ~tasks:3;
  Dispatch.Ewma.observe e ~now:1.0 ~tasks:2;
  check_int "pending events counted in total" 5 (Dispatch.Ewma.total e);
  check_bool "no rate before a real interval" true (Dispatch.Ewma.rate e = 0.);
  Dispatch.Ewma.observe e ~now:2.0 ~tasks:0;
  (* 5 events over 1s with tau=1: rate = (1 − e^(−1))·5 ≈ 3.16. *)
  let r = Dispatch.Ewma.rate e in
  check_bool (Printf.sprintf "pending credited to the interval (got %.3f)" r) true
    (abs_float (r -. (5. *. (1. -. exp (-1.)))) < 1e-6);
  (match Dispatch.Ewma.observe e ~now:3.0 ~tasks:(-1) with
  | () -> Alcotest.fail "negative tasks should raise"
  | exception Invalid_argument _ -> ());
  match Dispatch.Ewma.create ~tau:0. () with
  | _ -> Alcotest.fail "tau=0 should raise"
  | exception Invalid_argument _ -> ()

(* {1 Batch sizing and backoff} *)

let test_batch_for_clamps () =
  check_int "fixed ignores rate" 16 (Dispatch.batch_for (Dispatch.Fixed 16) ~rate:1000.);
  let auto = Dispatch.Auto { min_batch = 2; max_batch = 24 } in
  check_int "no estimate probes at min" 2 (Dispatch.batch_for auto ~rate:0.);
  check_int "slow worker clamps to min" 2 (Dispatch.batch_for auto ~rate:1.);
  check_int "fast worker clamps to max" 24 (Dispatch.batch_for auto ~rate:1_000_000.);
  (* rate·horizon in range: 40/s × 0.25s = 10 indices. *)
  check_int "mid-range sizes to the horizon" 10 (Dispatch.batch_for auto ~rate:40.);
  check_bool "horizon is a quarter second" true (abs_float (Dispatch.auto_horizon -. 0.25) < 1e-9)

let test_backoff_delay_schedule () =
  let d = Dispatch.backoff_delay ~base:0.05 ~cap:1.0 in
  check_bool "attempt 0 is immediate" true (d ~attempt:0 = 0.);
  check_bool "attempt 1 is the base" true (abs_float (d ~attempt:1 -. 0.05) < 1e-9);
  check_bool "attempt 2 doubles" true (abs_float (d ~attempt:2 -. 0.1) < 1e-9);
  check_bool "attempt 3 doubles again" true (abs_float (d ~attempt:3 -. 0.2) < 1e-9);
  check_bool "capped" true (d ~attempt:30 = 1.0)

(* {1 Accept rate limiting} *)

let listen_or_fail () =
  match Transport.listen ~port:0 () with
  | Ok l -> l
  | Error e -> Alcotest.failf "listen: %s" e

(* Six rapid connections from one address against a bucket of burst 2:
   exactly two are accepted, four are closed before any byte is read —
   and the accept budget (expect_remote + max_rejoin = 3 here) is NOT
   burned by the over-limit closes, which a seventh, post-refill
   connection proves by still being accepted. *)
let test_accept_rate_limit_spares_budget () =
  let l = listen_or_fail () in
  let port = Transport.bound_port l in
  let d =
    Dispatch.create ~workers:0 ~heartbeat_timeout:1.0 ~join_grace:3.0 ~listener:l
      ~expect_remote:1 ~max_rejoin:2 ~accept_rate:1.0 ~accept_burst:2
      ~log:(fun _ -> ())
      ~command:(fun ~id:_ -> [| "/nonexistent" |])
      ~context
      ~fallback:(fun i -> Ok { sample_entry with Journal.n = i })
      ()
  in
  let client =
    Domain.spawn (fun () ->
        let connect () =
          match
            Transport.connect ~read_timeout:10. ~host:"127.0.0.1" ~port ~attempts:20
              ~retry_delay:0.1 ()
          with
          | Ok fd -> Some fd
          | Error _ -> None
        in
        (* The listener's backlog holds these even before the dispatch
           polls, so the burst genuinely lands inside one refill
           window. *)
        let flood = List.filter_map (fun _ -> connect ()) [ 1; 2; 3; 4; 5; 6 ] in
        Unix.sleepf 1.5;
        (* One token has refilled (1/s); the budget must still have
           room because over-limit closes did not consume it. *)
        let late = connect () in
        Unix.sleepf 0.5;
        List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) flood;
        (match late with
        | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
        | None -> ());
        List.length flood + Option.fold ~none:0 ~some:(fun _ -> 1) late)
  in
  Fun.protect
    ~finally:(fun () -> Dispatch.shutdown d)
    (fun () ->
      let delivered = ref 0 in
      Dispatch.run d [| 0; 1; 2; 3 |] ~deliver:(fun _ _ -> incr delivered);
      check_int "all indices answered" 4 !delivered;
      let attempted = Domain.join client in
      check_int "client made all its connections" 7 attempted;
      let s = Dispatch.stats d in
      check_int "burst of 2, then one refilled token accepted" 3 s.Dispatch.connected;
      check_int "the four over-limit connections were closed unaccepted" 4
        s.Dispatch.rate_limited;
      check_int "everything ran inline in the end" 4 s.Dispatch.inline_tasks)

(* {1 The slow (sticky stall) network fault} *)

let test_slow_shim_is_sticky () =
  let c = Chaos.of_string_exn "slow:worker=0,after=1,ms=30" in
  let s = Transport.Shim.create () in
  let h = Chaos.hook ~net:s c ~worker:0 in
  check_bool "not armed before threshold" true (h ~completed:0 = `Continue && s.slow_s = 0.);
  check_bool "continues at threshold" true (h ~completed:1 = `Continue);
  check_bool "armed at threshold" true (abs_float (s.slow_s -. 0.03) < 1e-9);
  check_bool "directive consumed" true (h ~completed:5 = `Continue);
  check_bool "shim stays armed (sticky)" true (abs_float (s.slow_s -. 0.03) < 1e-9);
  (* Unlike delay, the stall taxes every write. *)
  let sink = Buffer.create 64 in
  let io =
    Transport.
      {
        read = (fun _ -> 0);
        write = (fun data -> Buffer.add_string sink data);
        close = (fun () -> ());
      }
  in
  let shimmed = Transport.shimmed s io in
  let t0 = Unix.gettimeofday () in
  shimmed.Transport.write "one";
  shimmed.Transport.write "two";
  let elapsed = Unix.gettimeofday () -. t0 in
  check_bool (Printf.sprintf "both writes stalled (%.3fs)" elapsed) true (elapsed >= 0.055);
  check_bool "content untouched" true (Buffer.contents sink = "onetwo")

(* {1 End-to-end: the real binary} *)

let exe = "../bin/oraclesize.exe"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let sh cmd =
  match Unix.system cmd with
  | Unix.WEXITED n -> n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> 128 + n

let temp_out name = Filename.temp_file ("oracle-dispatch-" ^ name) ".out"
let e2e_grid = "protocols=wakeup,broadcast;ns=16,24;reps=2;seed=7"

let mentions needle hay =
  let n = String.length hay and m = String.length needle in
  let rec scan i = i + m <= n && (String.sub hay i m = needle || scan (i + 1)) in
  scan 0

(* Pull "key":<int> out of a --stats-out report without a JSON parser. *)
let stats_field report key =
  let tag = Printf.sprintf "\"%s\":" key in
  let n = String.length report and m = String.length tag in
  let rec find i = if i + m > n then None else if String.sub report i m = tag then Some (i + m) else find (i + 1) in
  match find 0 with
  | None -> None
  | Some start ->
    let stop = ref start in
    while !stop < n && (match report.[!stop] with '0' .. '9' | '-' -> true | _ -> false) do
      incr stop
    done;
    int_of_string_opt (String.sub report start (!stop - start))

let test_cli_validates_batch_flags () =
  List.iter
    (fun (name, args, expect) ->
      check_int name expect
        (sh (Printf.sprintf "%s sweep %s %S >/dev/null 2>/dev/null" exe args e2e_grid)))
    [
      ("--batch banana is a CLI error", "--workers 2 --batch banana", 124);
      ("--batch 0 is a CLI error", "--workers 2 --batch 0", 124);
      ("--batch-min 0 is a CLI error", "--workers 2 --batch auto --batch-min 0", 124);
      ( "--batch-min above --batch-max is a CLI error",
        "--workers 2 --batch auto --batch-min 8 --batch-max 2",
        124 );
      ("--batch auto is accepted", "--workers 2 --batch auto", 0);
      ("--batch auto with explicit clamps", "--workers 2 --batch auto --batch-min 2 --batch-max 6", 0);
    ]

(* The headline invariant, adaptive edition: `--batch auto` output is
   byte-identical to the in-process baseline (and hence to every fixed
   batch size, which test_worker pins against the same baseline) at
   workers 1/2/7 under process, network, and straggler chaos.  The
   slow+kill schedule crosses both fault families: worker 1 straggles
   from task 0 while the healthy worker 0 — which deterministically
   reaches its third task — is killed mid-batch, forcing reassignment
   onto the straggler while first-result-wins keeps the bytes fixed.
   (Killing the straggler itself would be flaky: adaptive batching
   starves it, so it may never see the task that trips the kill.) *)
let test_adaptive_determinism_grid () =
  let base = temp_out "base" in
  check_int "baseline sweep" 0
    (sh (Printf.sprintf "%s sweep %S --out %s 2>/dev/null" exe e2e_grid base));
  let baseline = read_file base in
  check_bool "baseline is non-empty" true (String.length baseline > 0);
  let fixed = temp_out "fixed" in
  check_int "fixed --batch 5 sweep" 0
    (sh
       (Printf.sprintf "%s sweep %S --out %s --workers 2 --batch 5 2>/dev/null" exe e2e_grid
          fixed));
  check_bool "fixed bytes match baseline" true (read_file fixed = baseline);
  Sys.remove fixed;
  let scenarios =
    [
      (1, "none", false);
      (2, "none", false);
      (7, "none", false);
      (2, "kill:worker=1,after=0", true);
      (7, "kill:worker=2,after=0;kill:worker=5,after=0", true);
      (2, "garbage:worker=0,after=0;seed=9", true);
      (2, "slow:worker=1,after=0,ms=60;kill:worker=0,after=2", true);
    ]
  in
  List.iter
    (fun (workers, chaos, expect_death) ->
      let name = Printf.sprintf "auto workers=%d chaos=%s" workers chaos in
      let out = temp_out "auto" in
      let errf = temp_out "auto-err" in
      let chaos_flag = if chaos = "none" then "" else Printf.sprintf "--chaos '%s'" chaos in
      let cmd =
        Printf.sprintf
          "%s sweep %S --out %s --workers %d --batch auto --batch-min 1 --batch-max 4 \
           --heartbeat-timeout 1 %s 2>%s"
          exe e2e_grid out workers chaos_flag errf
      in
      check_int (name ^ " exits 0") 0 (sh cmd);
      check_bool (name ^ " bytes match baseline") true (read_file out = baseline);
      let err = read_file errf in
      if expect_death then check_bool (name ^ " killed at least one worker") true (mentions "dead:" err);
      Sys.remove out;
      Sys.remove errf)
    scenarios;
  Sys.remove base

(* A deterministic one-straggler fleet: worker 1 stalls 80 ms on every
   write from its first task, worker 0 is healthy.  Under `--batch
   auto` the fast worker must drain the grid and speculate the
   straggler's in-flight tail — visible in the --stats-out report —
   while the rows stay byte-identical to the in-process baseline. *)
let test_straggler_triggers_speculation () =
  let base = temp_out "spec-base" in
  check_int "baseline sweep" 0
    (sh (Printf.sprintf "%s sweep %S --out %s 2>/dev/null" exe e2e_grid base));
  let out = temp_out "spec-out" in
  let stats = temp_out "spec-stats" in
  check_int "straggler sweep exits 0" 0
    (sh
       (Printf.sprintf
          "%s sweep %S --out %s --workers 2 --batch auto --batch-min 1 --batch-max 4 \
           --chaos 'slow:worker=1,after=0,ms=80' --stats-out %s 2>/dev/null"
          exe e2e_grid out stats));
  check_bool "straggler bytes match baseline" true (read_file out = read_file base);
  let report = read_file stats in
  check_bool "report has a worker_stats block" true (mentions "\"worker_stats\":[" report);
  check_bool "report has EWMA throughput fields" true (mentions "\"ewma_tput\":" report);
  (match stats_field report "speculative_batches" with
  | Some n ->
    check_bool (Printf.sprintf "tail was speculated (%d batches)" n) true (n >= 1)
  | None -> Alcotest.fail "no speculative_batches field in the report");
  (match stats_field report "workers" with
  | Some n -> check_int "report names the worker count" 2 n
  | None -> Alcotest.fail "no workers field in the report");
  Sys.remove base;
  Sys.remove out;
  Sys.remove stats

(* A fault-free sweep through the journaled core over real worker
   processes: every worker pulls from one queue, so tail speculation
   fires only when the whole sweep's queue is dry — at most one
   speculative copy per spare worker, and at most one batch of
   duplicated work overall. *)
let test_speculation_stays_at_the_tail () =
  let spec = "protocols=wakeup,broadcast;ns=8,12;scheds=sync,async-fifo;reps=80;seed=3" in
  let grid = match Sim.Sweep.of_string spec with Ok g -> g | Error e -> Alcotest.fail e in
  let points = Sim.Sweep.points grid in
  let n = Array.length points and workers = 2 and max_batch = 64 in
  check_bool "at least 512 points" true (n >= 512);
  let d =
    Dispatch.create ~workers
      ~batching:(Dispatch.Auto { min_batch = 1; max_batch })
      ~command:(fun ~id -> [| exe; "worker"; "--id"; string_of_int id |])
      ~context:{ Journal.spec = Sim.Sweep.to_string grid; extra = "protect=raw;retry=0" }
      ~fallback:(fun _ -> Error "fallback ran")
      ()
  in
  Fun.protect
    ~finally:(fun () -> Dispatch.shutdown d)
    (fun () ->
      (match
         Sim.Sweep.map_journaled_via
           ~key:(fun p -> p.Sim.Sweep.seed)
           ~run:(Dispatch.run d)
           ~emit:(fun _ _ _ -> ())
           points
       with
      | Error e -> Alcotest.fail e
      | Ok stats ->
        check_int "every point executed" n stats.Sim.Sweep.executed;
        check_int "no point failed" 0 (List.length stats.Sim.Sweep.failed));
      let ws = Dispatch.worker_stats d in
      let sum f = List.fold_left (fun a w -> a + f w) 0 ws in
      let results = sum (fun w -> w.Dispatch.tasks) in
      let speculative = sum (fun w -> w.Dispatch.speculative) in
      check_bool (Printf.sprintf "results %d <= n + max_batch" results) true
        (results <= n + max_batch);
      check_bool (Printf.sprintf "speculative batches %d <= workers - 1" speculative) true
        (speculative <= workers - 1);
      check_int "nothing ran inline" 0 (Dispatch.stats d).Dispatch.inline_tasks)

let suite =
  [
    Alcotest.test_case "EWMA converges to a steady rate and decays when idle" `Quick
      test_ewma_converges_to_steady_rate;
    Alcotest.test_case "EWMA tracks a slowdown" `Quick test_ewma_slowdown_tracks_new_rate;
    Alcotest.test_case "EWMA conserves same-instant events and validates input" `Quick
      test_ewma_conserves_same_instant_events;
    Alcotest.test_case "batch_for clamps to [min,max] around rate x horizon" `Quick
      test_batch_for_clamps;
    Alcotest.test_case "backoff delay doubles from the base and caps" `Quick
      test_backoff_delay_schedule;
    Alcotest.test_case "accept rate limit closes over-limit peers without burning budget" `Slow
      test_accept_rate_limit_spares_budget;
    Alcotest.test_case "slow chaos directive arms a sticky per-write stall" `Quick
      test_slow_shim_is_sticky;
    Alcotest.test_case "CLI validates --batch auto and the min/max clamps" `Slow
      test_cli_validates_batch_flags;
    Alcotest.test_case "auto batching is byte-identical under chaos at 1/2/7 workers" `Slow
      test_adaptive_determinism_grid;
    Alcotest.test_case "a straggler triggers speculation and identical bytes" `Slow
      test_straggler_triggers_speculation;
    Alcotest.test_case "speculation stays at the tail of a whole-sweep run" `Slow
      test_speculation_stays_at_the_tail;
  ]
