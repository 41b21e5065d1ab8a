#!/usr/bin/env python3
"""Self-test of the benchmark in perfbench/run.py.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

First it feeds the output checks, the span accounting and the
--stats-out reader hand-made inputs with known answers.  Then it runs
every workload shrunk to a few seconds, in both --trace modes, through
run.main, and checks the result line: its keys, the metric names against
BENCHMARK.json, and the failure accounting.  The shrunk large-run keeps
the path broadcast at n = 600000, so the message cutoff is a real failed
operation.  Exits 0 when every check passes.
"""

import contextlib
import io
import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

FAILURES = []


def check(cond, what):
    if not cond:
        FAILURES.append(what)
        print("FAIL: " + what)


WAKEUP_OK = """network:      sparse-random, 100 nodes, 290 edges
oracle bits:  613  (Theorem 2.1 budget 800)
messages:     99  (optimal: 99)
all awake:    true
"""
BROADCAST_CUT = """network:      path, 600000 nodes, 599999 edges
tree:         light (contribution 599999, Claim 3.1 budget 2400000)
oracle bits:  1199998  (Theorem 3.1 budget 4800000)
messages:     1000001 = 400003 source + 599998 hello  (budget < 1800000)
all informed: false
"""


def test_instance_checks():
    t = run.Tally()
    run.check_instance(t, "wakeup", 0, WAKEUP_OK)
    check((t.attempted, t.failed, t.wrong) == (1, 0, []), "a correct wakeup passes")
    run.check_instance(t, "wakeup", 0, WAKEUP_OK.replace("messages:     99", "messages:     98"))
    check((t.failed, len(t.wrong)) == (1, 1), "n-2 wakeup messages with exit 0 is wrong")
    run.check_instance(t, "broadcast", 1, BROADCAST_CUT)
    check((t.failed, len(t.wrong)) == (2, 1), "a cut-off broadcast fails and says so")
    run.check_instance(t, "broadcast", 0, BROADCAST_CUT)
    check((t.failed, len(t.wrong)) == (3, 2), "a cut-off broadcast with exit 0 is wrong")
    run.check_instance(t, "broadcast", 0, "garbage")
    check((t.attempted, t.failed, len(t.wrong)) == (5, 4, 3), "unparsable output is wrong")


def row(**kw):
    r = {"protocol": "wakeup", "n": 16, "plan": "none", "sent": 15, "informed": 16,
         "raw_bits": 40, "class": "completed", "verdict": "completed"}
    r.update(kw)
    return json.dumps(r)


def test_row_checks():
    ref = [row(), row(plan="drop=0.1,seed=7", **{"class": "stalled"}),
           row(plan="drop=0.1,seed=7", **{"class": "violated", "verdict": "violated: budget"}),
           row(plan="drop=0.1,seed=7", sent=30, **{"class": "degraded"})]
    t = run.Tally()
    run.check_rows(t, ref, ref)
    check((t.attempted, t.failed, t.wrong) == (4, 1, []),
          "only the violated row fails; stalled under a lossy plan does not")
    t = run.Tally()
    run.check_rows(t, [ref[0], row(sent=14), ref[2]], ref)
    check((t.failed, len(t.wrong)) == (3, 1),
          "a differing row is wrong and a missing row fails")
    check(run.point_failure(json.loads(row(**{"class": "degraded"}))) is not None,
          "a fault-free point must complete")
    check(run.point_failure(json.loads(row(protocol="broadcast", sent=48))) is not None,
          "broadcast at 3n messages fails")
    check(run.grid_size(run.TINY_GRID) == 38400, "grid size of sweep-tiny")


def test_spans():
    lines = ["sweep.pass\t1\t0\t0\t0.0\t10.0\t0\t0\t",
             "sweep.point\t2\t1\t1\t1.0\t5.0\t100\t1\t",
             "sweep.point\t3\t1\t2\t2.0\t6.0\t100\t1\t",
             "harness.run\t4\t2\t1\t1.0\t4.0\t80\t0\tmsgs=10,events=30,none=1",
             "runner.run\t5\t2\t1\t4.0\t4.5\t20\t1\tmsgs=10,ref=1",
             "oracle.advise\t6\t3\t2\t2.0\t2.5\t0\t0\tbits=7,key=a",
             "oracle.advise\t7\t2\t1\t1.0\t1.0\t0\t0\tbits=7,key=a"]
    spans = [run.Span(l, 0) for l in lines]
    table = run.self_times(spans)
    check(abs(table["sweep.pass"][2] - 5.0) < 1e-9,
          "self time subtracts the union of overlapping children")
    check(abs(table["sweep.point"][2] - 4.0) < 1e-9, "self time of two points")
    m = run.layer_metrics(spans, 2, 200, 2)
    check(m["oracle.advice_bits"] == 7, "advice bits count each advice once")
    check(abs(m["harness.over_runner"] - 6.0) < 1e-9, "harness over runner is 3 s / 0.5 s")
    check(abs(m["pool.busy_share"] - 0.4) < 1e-9, "busy share is 8 s over 10 s x 2 jobs")
    check(m["harness.events_per_msg"] == 3 and m["journal.bytes_per_point"] == 100,
          "per-message and per-point ratios")
    check(run.Span("op\t3\t1\t0\t0\t1\t0\t0\t", 1 << 32).parent == (1 << 32) + 1,
          "span ids of separate processes stay apart")


def test_stats_reader():
    path = os.path.join(run.WORK, "stats-test.json")
    with open(path, "w") as f:
        json.dump({"cpu_seconds": 1.5, "speculative_batches": 4, "reassigned": 1,
                   "worker_stats": [{"tasks": 70}, {"tasks": 80}]}, f)
    m = run.dispatch_metrics(path, 100)
    check(m == {"dispatch.tasks_per_point": 1.5, "dispatch.speculative_batches": 4,
                "dispatch.reassigned": 1, "dispatch.supervisor_cpu_s": 1.5},
          "--stats-out fields")
    os.remove(path)


SHRUNK = {
    "large-run": {
        "instances": [("wakeup", "sparse-random", 2000, "fifo"),
                      ("broadcast", "sparse-random", 2000, "sync"),
                      ("broadcast", "path", 600000, "fifo")],
        "setup_n": 16,
    },
    "sweep-tiny": dict(run.WORKLOADS["sweep-tiny"],
                       grid=run.TINY_GRID.replace("ns=16,24,64", "ns=16,24")
                       .replace("reps=800", "reps=10")),
}
EXPECTED_FAILED_SHARE = {"large-run": 1 / 3, "sweep-tiny": 0.0}


def declared():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as f:
        b = json.load(f)
    return ({m["name"]: m["unit"] for m in b["end_to_end"]},
            {m["name"]: m["unit"] for m in b["per_layer"]},
            {w["name"] for w in b["workloads"]})


def test_workloads():
    e2e, layers, names = declared()
    check(names == set(run.WORKLOADS), "BENCHMARK.json names every workload")
    check(e2e == dict(run.END_TO_END), "end-to-end metrics match BENCHMARK.json")
    check(layers == dict(run.PER_LAYER), "per-layer metrics match BENCHMARK.json")
    run.WORKLOADS.clear()
    run.WORKLOADS.update(SHRUNK)
    run.SETUP_REPEATS = 2
    for name in SHRUNK:
        for trace in (0, 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                               "--trace", str(trace)])
            what = "%s trace %d" % (name, trace)
            check(rc == 0, what + " exits 0")
            if rc != 0:
                continue
            res = json.loads(out.getvalue().splitlines()[-1])
            check(set(res) == {"correct", "attempted", "failed", "metrics"}, what + " keys")
            check(res["correct"] is True, what + " is correct")
            share = res["failed"] / res["attempted"]
            check(abs(share - EXPECTED_FAILED_SHARE[name]) < 1e-12,
                  "%s fail ratio %d/%d" % (what, res["failed"], res["attempted"]))
            want = layers if trace else e2e
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, what + " reports exactly the declared metrics")
            values = [v["value"] for v in res["metrics"].values()]
            check(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values),
                  what + " values are finite numbers")
            if not trace:
                check(all(v > 0 for v in values), what + " end-to-end values are positive")
            elif name == "sweep-tiny":
                m = res["metrics"]
                check(m["dispatch.tasks_per_point"]["value"] >= 1
                      and m["worker.frame_bytes_per_point"]["value"] > 0,
                      what + " reads --stats-out and the worker codec")
                check(m["harness.over_runner"]["value"] > 0, what + " measures harness over runner")
            else:
                check(res["metrics"]["runner.msgs"]["value"] > 0, what + " counts engine messages")


def main():
    os.makedirs(run.WORK, exist_ok=True)
    test_instance_checks()
    test_row_checks()
    test_spans()
    test_stats_reader()
    test_workloads()
    print("selftest: %s" % ("ok" if not FAILURES else "%d failed" % len(FAILURES)))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
