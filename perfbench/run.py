#!/usr/bin/env python3
"""The repository benchmark: two closed-loop workloads of the oraclesize CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload large-run --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 42 --seconds 30
    python3 perfbench/selftest.py        # every workload shrunk, a few seconds each

It builds the CLI and the tracer (perfbench/tracer) with dune, then
issues one command at a time and waits for it (a closed loop with one
client).  Every command uses at most 2 domains or 2 workers.

  large-run   wakeup -n 300000 (sparse-random), broadcast -n 200000
              (sparse-random, --scheduler sync), broadcast -n 600000 -f path
  sweep-tiny  38400 points at n <= 64 over 2 subprocess workers,
              --batch auto, journaled, with --stats-out

--trace 0 measures the end-to-end metrics on untraced CLI runs, as medians
over the passes that fit in --seconds (set-up: median of SETUP_REPEATS).
--trace 1 runs one untraced CLI pass, then pairs of passes of
perfbench/tracer, which calls each layer's public function in the CLI's
order: one pass with spans off, one recording a span per call.  The
per-layer metrics come from the spans; the tracing overhead is the wall
time of the pass with spans on minus that of the pass with spans off.
Layers a workload never calls read 0.
Both modes check every output (see check_instance and check_rows).  The
last line of standard output is one JSON object: correct, attempted,
failed, metrics.  fail_ratio (failed over attempted) is printed above it.

An operation fails when it exits non-zero, breaks the paper's counts
(wakeup: n-1 messages and everyone awake; broadcast: fewer than 3n
messages, everyone informed, at most 8n oracle bits), or, in a sweep, when
its row is missing, differs from the untimed -j 1 reference, is classified
violated, or is a fault-free point that did not complete.  Failed
operations are counted, not hidden.  "correct" is false only when an
output is wrong without saying so: a row differing from the reference, a
journal differing between passes or from the tracer's, an exit code that
contradicts the printed result, or unparsable output.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".bench_work")
CLI = os.path.join(ROOT, "_build", "default", "bin", "oraclesize.exe")
TRACER = os.path.join(ROOT, "_build", "default", "perfbench", "tracer", "trace.exe")
SOURCES = ("dune-project", os.path.join("bin", "oraclesize.ml"), "lib")
CLEARED_ENV = ("ORACLE_SIZE_JOBS", "ORACLE_SIZE_SHARDS", "ORACLE_SIZE_WORKERS",
               "ORACLE_SIZE_TOKEN")
ENV = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
# A run must end within 180 s; every command gets what is left of this.
RUN_BUDGET_S = 170.0
# Set-up is a few milliseconds per command, so it is repeated and the
# median reported.
SETUP_REPEATS = 31

TINY_GRID = ("protocols=wakeup,broadcast;families=sparse-random,path;ns=16,24,64;"
             "scheds=sync,async-fifo;plans=none|drop=0.1,seed=7;reps=800")
SETUP_GRID = "protocols=wakeup;families=sparse-random;ns=16;scheds=sync;plans=none;reps=1"

# Each workload: instances (protocol, family, n, scheduler) for a run of
# single instances, or a grid swept over subprocess workers.  They load
# different layers: large-run the graph, tree, advice and engine layers and
# never the fault harness; sweep-tiny the harness, dispatch, the worker
# codec, journal appends and rows.  The path instance is above the engine's
# fixed 10^6 message cap and fails; it stays so that the defect shows.
# perfbench/baseline.json records more, and why sweep-mid was dropped.
WORKLOADS = {
    "large-run": {
        "instances": [("wakeup", "sparse-random", 300000, "fifo"),
                      ("broadcast", "sparse-random", 200000, "sync"),
                      ("broadcast", "path", 600000, "fifo")],
        "setup_n": 16,
    },
    "sweep-tiny": {"grid": TINY_GRID, "workers": 2, "retry": 2},
}

END_TO_END = [("points_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
PER_LAYER = [
    ("families.build_s", "s"), ("families.minor_words", "words"),
    ("spanning.bfs_s", "s"), ("spanning.light_s", "s"),
    ("spanning.light_minor_words", "words"),
    ("oracle.advise_s", "s"), ("oracle.advice_bits", "bits"),
    ("runner.run_s", "s"), ("runner.msgs", "count"), ("runner.msgs_per_s", "1/s"),
    ("runner.minor_words_per_msg", "words/msg"), ("runner.major_words_per_msg", "words/msg"),
    ("harness.run_s", "s"), ("harness.events_per_msg", "events/msg"),
    ("harness.minor_words_per_msg", "words/msg"), ("harness.over_runner", "ratio"),
    ("journal.entry_s", "s"), ("journal.append_s", "s"),
    ("journal.bytes_per_point", "bytes"),
    ("pool.busy_share", "ratio"), ("sweep.point_p50_s", "s"),
    ("dispatch.tasks_per_point", "ratio"), ("dispatch.speculative_batches", "count"),
    ("dispatch.reassigned", "count"), ("dispatch.supervisor_cpu_s", "s"),
    ("worker.codec_s", "s"), ("worker.frame_bytes_per_point", "bytes"),
    ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"),
    ("trace.cli_wall_s", "s"), ("trace.uncovered_s", "s"), ("trace.spans", "count"),
]


class BenchError(Exception):
    pass


# {1 Commands}

class Done:
    """One finished command: wall seconds, peak RSS in MB, exit code, output."""

    def __init__(self, wall, rss_mb, rc, out, err):
        self.wall, self.rss_mb, self.rc, self.out, self.err = wall, rss_mb, rc, out, err


class Clock:
    def __init__(self, budget):
        self.deadline = time.monotonic() + budget

    def left(self):
        return self.deadline - time.monotonic()


def run_cmd(args, clock, tag="cmd"):
    """Run one command to completion.  Peak RSS comes from wait4, which
    reports the largest of the process and its reaped children (the
    sweep's subprocess workers)."""
    left = clock.left()
    if left <= 1:
        raise BenchError("out of time before: " + " ".join(args))
    out_path = os.path.join(WORK, tag + ".out")
    err_path = os.path.join(WORK, tag + ".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(args, stdout=out, stderr=err, env=ENV, cwd=ROOT,
                             start_new_session=True)
        timer = threading.Timer(left, os.killpg, (p.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    if p.returncode == -signal.SIGKILL and clock.left() <= 0:
        raise BenchError("timed out: " + " ".join(args))
    with open(out_path, encoding="utf-8", errors="replace") as f:
        out_text = f.read()
    with open(err_path, encoding="utf-8", errors="replace") as f:
        err_text = f.read()
    return Done(wall, usage.ru_maxrss / 1024.0, p.returncode, out_text, err_text)


def build(clock):
    missing = [s for s in SOURCES if not os.path.exists(os.path.join(ROOT, s))]
    if missing:
        raise BenchError("not a source checkout (missing %s)" % ", ".join(missing))
    d = run_cmd(["dune", "build", "--root", ".", "bin/oraclesize.exe",
                 "perfbench/tracer/trace.exe"], clock, "build")
    if d.rc != 0:
        raise BenchError("build failed:\n" + d.err[-4000:])


# {1 Checks}

class Tally:
    """Attempted and failed operations, and whether any output was wrong
    without saying so."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.why = {}

    def op(self, failed, why=None, wrong=False):
        self.attempted += 1
        if failed:
            self.failed += 1
            self.why[why] = self.why.get(why, 0) + 1
        if wrong:
            self.wrong.append(why)


def parse_summary(text):
    """The numbers an `oraclesize wakeup|broadcast` summary prints."""
    lines = dict(l.split(":", 1) for l in text.splitlines() if ":" in l)
    lines = {k.strip(): v.strip() for k, v in lines.items()}
    reached = lines.get("all awake", lines.get("all informed"))
    if reached not in ("true", "false"):
        raise ValueError("no all awake/all informed line")
    return {
        "n": int(re.search(r"(\d+) nodes", lines["network"]).group(1)),
        "msgs": int(lines["messages"].split()[0]),
        "bits": int(lines["oracle bits"].split()[0]),
        "reached": reached == "true",
    }


def check_instance(tally, protocol, rc, text):
    """Theorem 2.1 / 3.1 counts for one instance; see the module doc."""
    try:
        s = parse_summary(text)
    except (ValueError, KeyError, AttributeError):
        tally.op(True, "%s: unparsable output (exit %d)" % (protocol, rc), wrong=(rc == 0))
        return
    n = s["n"]
    if protocol == "wakeup":
        ok = s["msgs"] == n - 1 and s["reached"]
    else:
        ok = s["msgs"] < 3 * n and s["reached"] and s["bits"] <= 8 * n
    why = None
    if not ok:
        why = "%s n=%d: %d messages, reached=%s, exit %d" % (
            protocol, n, s["msgs"], s["reached"], rc)
    elif rc != 0:
        why = "%s n=%d: exit %d" % (protocol, n, rc)
    tally.op(why is not None, why, wrong=(ok != (rc == 0)))


def point_failure(row):
    """Why a sweep row counts as failed, or None.  Stalled under a lossy
    plan is the plan's result, not a failure."""
    if row["class"] == "violated":
        return "violated: " + row["verdict"]
    if row["plan"] != "none":
        return None
    if row["class"] != "completed":
        return "fault-free point " + row["class"]
    n, sent = row["n"], row["sent"]
    if row["informed"] != n:
        return "fault-free point left nodes uninformed"
    if row["protocol"] == "wakeup" and sent != n - 1:
        return "wakeup sent %d != n-1" % sent
    if row["protocol"] == "broadcast" and (sent >= 3 * n or row["raw_bits"] > 8 * n):
        return "broadcast over the 3n/8n budget"
    return None


def check_rows(tally, lines, ref):
    for i, want in enumerate(ref):
        got = lines[i] if i < len(lines) else None
        if got is None:
            tally.op(True, "row missing")
        elif got != want:
            tally.op(True, "row differs from the -j 1 reference", wrong=True)
        else:
            why = point_failure(json.loads(got))
            tally.op(why is not None, why)


def read_lines(path):
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as f:
        return f.read().splitlines()


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def grid_size(grid):
    axes = dict(a.split("=", 1) for a in grid.split(";"))
    size = int(axes["reps"])
    for key in ("protocols", "families", "ns", "scheds"):
        size *= len(axes[key].split(","))
    return size * len(axes["plans"].split("|"))


# {1 Passes}

def instance_args(inst, seed, n=None):
    protocol, family, size, sched = inst
    args = [CLI, protocol, "-n", str(n or size), "-f", family, "--seed", str(seed)]
    return args + (["--scheduler", "sync"] if sched == "sync" else [])


def sweep_args(w, grid, journal, out, stats=None):
    args = [CLI, "sweep", grid, "--retry", str(w["retry"]), "--journal", journal, "--out", out,
            "--workers", str(w["workers"]), "--batch", "auto"]
    if stats:
        args += ["--stats-out", stats]
    return args


def fresh(path):
    if os.path.exists(path):
        os.remove(path)
    return path


class Pass:
    def __init__(self, ops, wall, rss_mb):
        self.ops, self.wall, self.rss_mb = ops, wall, rss_mb


def instances_pass(w, seed, tally, clock):
    wall, rss = 0.0, 0.0
    for k, inst in enumerate(w["instances"]):
        d = run_cmd(instance_args(inst, seed), clock, "op%d" % k)
        check_instance(tally, inst[0], d.rc, d.out)
        wall += d.wall
        rss = max(rss, d.rss_mb)
    return Pass(len(w["instances"]), wall, rss)


def sweep_pass(w, grid, ref, tally, clock, k, stats=None):
    journal = fresh(os.path.join(WORK, "pass%d.journal" % k))
    out = fresh(os.path.join(WORK, "pass%d.jsonl" % k))
    d = run_cmd(sweep_args(w, grid, journal, out, stats), clock, "sweep")
    lines = read_lines(out) if d.rc == 0 else []
    check_rows(tally, lines, ref)
    return Pass(len(ref), d.wall, d.rss_mb)


def setup_time(w, seed, clock):
    """Median wall time of the workload's command on its smallest form."""
    times = []
    for _ in range(SETUP_REPEATS):
        if "instances" in w:
            total = 0.0
            for inst in w["instances"]:
                d = run_cmd(instance_args(inst, seed, w["setup_n"]), clock, "setup")
                if d.rc != 0:
                    raise BenchError("set-up command failed: " + d.err[-2000:])
                total += d.wall
        else:
            journal = fresh(os.path.join(WORK, "setup.journal"))
            out = os.path.join(WORK, "setup.jsonl")
            d = run_cmd(sweep_args(w, "%s;seed=%d" % (SETUP_GRID, seed), journal, out),
                        clock, "setup")
            if d.rc != 0 or len(read_lines(out)) != 1:
                raise BenchError("set-up sweep failed: " + d.err[-2000:])
            total = d.wall
        times.append(total)
    return statistics.median(times)


def reference_rows(w, grid, clock):
    """The in-process -j 1 rows, made once per invocation and not timed."""
    out = fresh(os.path.join(WORK, "reference.jsonl"))
    d = run_cmd([CLI, "sweep", grid, "-j", "1", "--retry", str(w["retry"]), "--out", out],
                clock, "reference")
    ref = read_lines(out)
    if d.rc != 0 or len(ref) != grid_size(grid):
        raise BenchError("reference sweep failed (exit %d, %d rows): %s"
                         % (d.rc, len(ref), d.err[-2000:]))
    return ref


# {1 Spans}

class Span:
    __slots__ = ("name", "id", "parent", "dom", "t0", "t1", "minor", "major", "attrs")

    def __init__(self, line, base):
        f = line.rstrip("\n").split("\t")
        self.name = f[0]
        self.id, self.parent, self.dom = int(f[1]) + base, int(f[2]), int(f[3])
        self.parent += base if self.parent else 0
        self.t0, self.t1 = float(f[4]), float(f[5])
        self.minor, self.major = float(f[6]), float(f[7])
        self.attrs = dict(kv.split("=") for kv in f[8].split(",")) if f[8] else {}

    @property
    def dur(self):
        return self.t1 - self.t0


def read_spans(path, base=0):
    """Spans of one tracer process; base keeps ids of processes apart."""
    with open(path, encoding="utf-8") as f:
        return [Span(line, base) for line in f]


def covered(intervals):
    """Length of the union of intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def self_times(spans):
    """Per span name: calls, total and self seconds (span minus the part
    of it that child spans cover; children may run on other domains)."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    table = {}
    for s in spans:
        kids = [(max(c.t0, s.t0), min(c.t1, s.t1)) for c in children.get(s.id, [])]
        row = table.setdefault(s.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s.dur
        row[2] += s.dur - covered([k for k in kids if k[1] > k[0]])
    return table


def layer_metrics(spans, points, journal_bytes, jobs):
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def total(name, field="dur"):
        return sum(getattr(s, field) if field in ("dur", "minor", "major")
                   else int(s.attrs.get(field, 0)) for s in by.get(name, []))

    def ratio(a, b):
        return a / b if b else 0.0

    runs = by.get("runner.run", [])
    msgs = total("runner.run", "msgs")
    harness = by.get("harness.run", [])
    h_msgs = total("harness.run", "msgs")
    base = [s for s in runs if s.attrs.get("ref") == "1"]
    fault_free = [s for s in harness if s.attrs.get("none") == "1"]
    point_durs = [s.dur for s in by.get("sweep.point", [])]
    advised = {s.attrs.get("key", s.id): s for s in by.get("oracle.advise", [])}
    return {
        "families.build_s": total("families.build"),
        "families.minor_words": total("families.build", "minor"),
        "spanning.bfs_s": total("spanning.bfs"),
        "spanning.light_s": total("spanning.light"),
        "spanning.light_minor_words": total("spanning.light", "minor"),
        "oracle.advise_s": total("oracle.advise"),
        "oracle.advice_bits": sum(int(s.attrs["bits"]) for s in advised.values()),
        "runner.run_s": total("runner.run"),
        "runner.msgs": msgs,
        "runner.msgs_per_s": ratio(msgs, total("runner.run")),
        "runner.minor_words_per_msg": ratio(total("runner.run", "minor"), msgs),
        "runner.major_words_per_msg": ratio(total("runner.run", "major"), msgs),
        "harness.run_s": total("harness.run"),
        "harness.events_per_msg": ratio(total("harness.run", "events"), h_msgs),
        "harness.minor_words_per_msg": ratio(total("harness.run", "minor"), h_msgs),
        "harness.over_runner": ratio(sum(s.dur for s in fault_free), sum(s.dur for s in base)),
        "journal.entry_s": total("journal.entry"),
        "journal.append_s": total("journal.append"),
        "journal.bytes_per_point": ratio(journal_bytes, points),
        "pool.busy_share": ratio(sum(point_durs), total("sweep.pass") * jobs),
        "sweep.point_p50_s": statistics.median(point_durs) if point_durs else 0.0,
        "worker.codec_s": total("worker.codec"),
        "worker.frame_bytes_per_point": ratio(total("worker.codec", "bytes"), points),
        "trace.spans": len(spans),
        "_top_s": sum(s.dur for s in spans if s.parent == 0),
    }


def dispatch_metrics(stats_path, points):
    if stats_path is None:
        return {"dispatch.tasks_per_point": 0.0, "dispatch.speculative_batches": 0,
                "dispatch.reassigned": 0, "dispatch.supervisor_cpu_s": 0.0}
    with open(stats_path, encoding="utf-8") as f:
        s = json.load(f)
    tasks = sum(w["tasks"] for w in s["worker_stats"])
    return {
        "dispatch.tasks_per_point": tasks / points,
        "dispatch.speculative_batches": s["speculative_batches"],
        "dispatch.reassigned": s["reassigned"],
        "dispatch.supervisor_cpu_s": s["cpu_seconds"],
    }


def tracer_pass(w, seed, grid, ref, tally, clock, cli_journal, spans_on):
    """One pass of the tracer: (spans, wall, layer metrics), with no spans
    and no metrics when spans_on is false.  Its outputs are checked like
    the CLI's, and its journal must equal the CLI's byte for byte."""
    spans, wall = [], 0.0
    if grid:
        journal = fresh(os.path.join(WORK, "tracer.journal"))
        out = fresh(os.path.join(WORK, "tracer.jsonl"))
        path = os.path.join(WORK, "spans.tsv") if spans_on else "-"
        d = run_cmd([TRACER, "sweep", grid, str(w["workers"]), str(w["retry"]), journal, out,
                     path], clock, "tracer")
        if d.rc != 0:
            raise BenchError("tracer failed: " + d.err[-2000:])
        check_rows(tally, read_lines(out), ref)
        if read_bytes(journal) != cli_journal:
            tally.wrong.append("tracer journal differs from the CLI's")
        wall = d.wall
        points, journal_bytes, jobs = len(ref), len(cli_journal), w["workers"]
        if spans_on:
            spans = read_spans(path)
    else:
        for k, (protocol, family, n, sched) in enumerate(w["instances"]):
            path = os.path.join(WORK, "spans%d.tsv" % k) if spans_on else "-"
            d = run_cmd([TRACER, "run", protocol, family, str(n), sched, str(seed), path],
                        clock, "tracer%d" % k)
            check_instance(tally, protocol, d.rc, d.out)
            wall += d.wall
            if spans_on:
                spans += read_spans(path, (k + 1) << 32)
        points, journal_bytes, jobs = len(w["instances"]), 0, 1
    if not spans_on:
        return None, wall, None
    return spans, wall, layer_metrics(spans, points, journal_bytes, jobs)


# {1 Workloads}

def median_of(passes, f):
    return statistics.median(f(p) for p in passes)


def measure(w, seed, seconds, trace, clock):
    """One invocation: returns (tally, metrics, report lines)."""
    tally, report = Tally(), []
    grid = "%s;seed=%d" % (w["grid"], seed) if "grid" in w else None
    ref = reference_rows(w, grid, clock) if grid else None
    stats = os.path.join(WORK, "stats.json") if grid else None

    def one_pass(k):
        if grid:
            return sweep_pass(w, grid, ref, tally, clock, k, stats)
        return instances_pass(w, seed, tally, clock)

    if not trace:
        setup = setup_time(w, seed, clock)
        passes, t0 = [], time.monotonic()
        while not passes or time.monotonic() - t0 < seconds:
            passes.append(one_pass(len(passes)))
        if grid:
            first = read_bytes(os.path.join(WORK, "pass0.journal"))
            for k in range(1, len(passes)):
                if read_bytes(os.path.join(WORK, "pass%d.journal" % k)) != first:
                    tally.wrong.append("journal bytes differ between passes")
        metrics = {
            "points_per_s": median_of(passes, lambda p: p.ops / p.wall),
            "setup_s": setup,
            "peak_rss_mb": median_of(passes, lambda p: p.rss_mb),
        }
        report.append("passes: %d, pass wall s: %s" % (
            len(passes), " ".join("%.3f" % p.wall for p in passes)))
        report.append("fail_ratio: %d/%d" % (tally.failed, tally.attempted))
        return tally, metrics, report

    cli = one_pass(0)
    cli_journal = read_bytes(os.path.join(WORK, "pass0.journal")) if grid else None
    bare, traced, t0 = [], [], time.monotonic()
    while not traced or time.monotonic() - t0 < seconds:
        bare.append(tracer_pass(w, seed, grid, ref, tally, clock, cli_journal, False)[1])
        traced.append(tracer_pass(w, seed, grid, ref, tally, clock, cli_journal, True))
    layers = [m for _, _, m in traced]
    metrics = {}
    for key, _ in PER_LAYER:
        vals = [m[key] for m in layers if key in m]
        if vals:
            metrics[key] = statistics.median(vals)
    metrics.update(dispatch_metrics(stats, cli.ops))
    metrics["trace.wall_s"] = statistics.median(wall for _, wall, _ in traced)
    metrics["trace.untraced_wall_s"] = statistics.median(bare)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    metrics["trace.cli_wall_s"] = cli.wall
    metrics["trace.uncovered_s"] = statistics.median(
        wall - m["_top_s"] for _, wall, m in traced)
    spans, wall, _ = traced[0]
    report.append("self time by span, summed over domains (first traced pass, wall %.3f s):"
                  % wall)
    for name, (calls, tot, own) in sorted(self_times(spans).items(), key=lambda kv: -kv[1][2]):
        report.append("  %-22s calls %7d  total %9.4f s  self %9.4f s  %5.1f%% of wall"
                      % (name, calls, tot, own, 100.0 * own / wall))
    report.append("  %-22s %44.4f s  %5.1f%% of wall" % (
        "(no span)", metrics["trace.uncovered_s"], 100.0 * metrics["trace.uncovered_s"] / wall))
    report.append(
        "tracing overhead: tracer spans on %.3f s - spans off %.3f s = %.3f s (%+.1f%%);"
        " untraced CLI pass %.3f s" % (
            metrics["trace.wall_s"], metrics["trace.untraced_wall_s"],
            metrics["trace.overhead_s"],
            100.0 * metrics["trace.overhead_s"] / metrics["trace.untraced_wall_s"], cli.wall))
    if metrics["harness.over_runner"]:
        report.append("harness.over_runner: Fault.Harness.run time over Sim.Runner.run time with"
                      " the plain scheme, same graph, advice and scheduler, on the %d fault-free"
                      " points" % sum(1 for s in spans if s.attrs.get("ref") == "1"))
    report.append("fail_ratio: %d/%d" % (tally.failed, tally.attempted))
    return tally, metrics, report


def result_json(tally, metrics, trace):
    units = dict(PER_LAYER if trace else END_TO_END)
    return {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def run_workload(name, seed, seconds, trace, clock):
    tally, metrics, report = measure(WORKLOADS[name], seed, seconds, trace, clock)
    result = result_json(tally, metrics, trace)
    print("== %s (seed %d, trace %d)" % (name, seed, trace))
    for line in report:
        print(line)
    for why, count in sorted(tally.why.items(), key=str):
        print("failed x%d: %s" % (count, why))
    for why in tally.wrong:
        print("WRONG: %s" % why)
    for k, v in result["metrics"].items():
        print("  %-30s %16.6f %s" % (k, v["value"], v["unit"]))
    sys.stdout.flush()
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    names = sorted(WORKLOADS) if a.workload == "all" else [a.workload]
    modes = (0, 1) if a.workload == "all" else (a.trace,)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        build(Clock(900))
        clock = Clock(RUN_BUDGET_S * len(names) * len(modes))
        results = {}
        for name in names:
            for trace in modes:
                results["%s/trace%d" % (name, trace)] = run_workload(
                    name, a.seed, a.seconds, trace, clock)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if a.workload == "all":
        print(json.dumps(results, sort_keys=True))
    else:
        print(json.dumps(next(iter(results.values()))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
