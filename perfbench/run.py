"""Benchmark for acceptcert: cold CLI invocations, timed end to end or traced per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hompairs --seed 1 --seconds 40 --trace 0

Every workload is a fixed list of ``python -m acceptcert ...`` invocations,
each in a fresh interpreter, run one after the other from this single
process.  "Cold" means empty in-process caches with bytecode already
compiled: one untimed ``acceptcert list`` before timing compiles it.

With ``--trace 0`` a run repeats rounds while one more round, as long as the
longest so far, still fits in ``--seconds``; at least one round runs.  A
round is ``SETUP_PROBES`` cold ``acceptcert list`` calls followed by one pass
over the workload.  It reports

* ``wall_s``: median over passes of the time from launching the first
  invocation of a pass to the exit of its last;
* ``setup_s``: median over all ``list`` calls of their wall time, the cost of
  interpreter start, ``import acceptcert`` and building the registry;
* ``peak_rss_mb``: median over passes of the largest resident set of any
  invocation in the pass.

With ``--trace 1`` each invocation instead runs under ``perfbench/tracer.py``
(cProfile) and the run reports per-layer counts and seconds; those passes
are never timed as end-to-end figures.  A traced run makes at least two
passes, however short ``--seconds`` is, so that its counts are compared
between passes.

Every report is checked (see ``workloads.py``).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  An operation is one CLI invocation or one certificate run; an
invocation that exits non-zero without a report fails, together with its
runs.  A report that is present but wrong makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from tracer import COUNT_METRICS, LAYERS, TIME_METRICS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

SETUP_PROBES = 4
TRACE_MARGIN = 0.05
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class Child:
    """Outcome of one child interpreter: exit code, wall seconds, peak RSS in MB."""

    __slots__ = ("code", "seconds", "rss_mb")

    def __init__(self, code, seconds, rss_mb):
        self.code = code
        self.seconds = seconds
        self.rss_mb = rss_mb


def spawn(argv, log_path) -> Child:
    """Run one child to completion; its resource usage comes from ``wait4``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with open(log_path, "w", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, seconds, usage.ru_maxrss / 1024.0)


class Pass:
    """One pass over a workload's invocations, with its checks."""

    def __init__(self, invocations, work, trace):
        self.invocations = invocations
        self.work = work
        self.trace = trace
        for pos, inv in enumerate(invocations):
            if inv.params is not None:
                with open(self._path(pos, "params.json"), "w", encoding="utf-8") as fh:
                    json.dump(inv.params, fh)

    def _path(self, pos, name):
        return os.path.join(self.work, "%d-%s" % (pos, name))

    def argv(self, pos):
        inv = self.invocations[pos]
        if self.trace:
            head = [sys.executable, os.path.join(HERE, "tracer.py"),
                    self._path(pos, "figures.json"), "--"]
        else:
            head = [sys.executable, "-m", "acceptcert"]
        tail = ["--params", self._path(pos, "params.json")] if inv.params is not None else []
        return head + inv.argv + tail + ["--json", "--out", self._path(pos, "report.json")]

    def run(self, tally):
        """Run every invocation in order; return (wall seconds, children)."""
        for pos in range(len(self.invocations)):
            for name in ("report.json", "figures.json"):
                if os.path.exists(self._path(pos, name)):
                    os.remove(self._path(pos, name))
        start = time.perf_counter()
        children = [spawn(self.argv(pos), self._path(pos, "log.txt"))
                    for pos in range(len(self.invocations))]
        wall = time.perf_counter() - start
        for pos, (inv, child) in enumerate(zip(self.invocations, children)):
            tally.attempt(1, inv.runs)
            report = self._load(pos, "report.json")
            if report is None or child.code not in (0, 1):
                tally.fail("%s: exit %d without a report" % (inv.label, child.code),
                           1, inv.runs)
                continue
            if child.code != 0:
                tally.wrong("%s: exit %d" % (inv.label, child.code))
            try:
                problems = inv.check(report)
            except (KeyError, TypeError, ValueError) as exc:
                problems = ["malformed report (%r)" % (exc,)]
            for problem in problems:
                tally.wrong("%s: %s" % (inv.label, problem))
        return wall, children

    def _load(self, pos, name):
        try:
            with open(self._path(pos, name), "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def figures(self):
        """Per-layer figures of the last traced pass, summed over invocations."""
        total = {}
        for pos in range(len(self.invocations)):
            figs = self._load(pos, "figures.json")
            if figs is None:
                return None
            for name, value in figs.items():
                total[name] = total.get(name, 0) + value
        return total


class Tally:
    """CLI invocations and certificate runs attempted and failed, and wrong reports."""

    def __init__(self):
        self.attempted = [0, 0]
        self.failed = [0, 0]
        self.failures = []
        self.problems = []

    def attempt(self, invocations, runs):
        self.attempted[0] += invocations
        self.attempted[1] += runs

    def fail(self, message, invocations, runs):
        self.failed[0] += invocations
        self.failed[1] += runs
        self.failures.append(message)

    def wrong(self, message):
        self.problems.append(message)


def rounds(seconds, minimum=1):
    """Yield ``minimum`` times, then while one more round, as long as the
    longest so far, fits in ``seconds``."""
    start = time.perf_counter()
    longest = 0.0
    for count in itertools.count(1):
        round_start = time.perf_counter()
        yield
        now = time.perf_counter()
        longest = max(longest, now - round_start)
        if count >= minimum and now - start + longest > seconds:
            return


def timed_run(pass_, seconds, work, tally):
    walls, rss, setup = [], [], []
    for _ in rounds(seconds):
        for _ in range(SETUP_PROBES):
            child = spawn([sys.executable, "-m", "acceptcert", "list"],
                          os.path.join(work, "setup-log.txt"))
            tally.attempt(1, 0)
            if child.code != 0:
                tally.fail("setup probe: exit %d" % child.code, 1, 0)
            setup.append(child.seconds)
        wall, children = pass_.run(tally)
        walls.append(wall)
        rss.append(max(c.rss_mb for c in children))
    log("passes %d, wall_s %s" % (len(walls), " ".join("%.3f" % w for w in walls)))
    log("setup_s quartiles %s over %d probes"
        % (" ".join("%.4f" % q for q in statistics.quantiles(setup, n=4)), len(setup)))
    return {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(rss)}, {"walls": walls, "setup": setup,
                                                     "rss": rss}


def traced_run(pass_, seconds, tally):
    """Two or more traced passes; counts must repeat exactly across them."""
    passes = []
    for _ in rounds(seconds, minimum=2):
        wall, _ = pass_.run(tally)
        figs = pass_.figures()
        if figs is None:
            tally.wrong("a traced invocation wrote no figures")
            figs = {}
        figs["trace.wall_s"] = wall
        passes.append(figs)
    for figs in passes[1:]:
        moved = [n for n in COUNT_METRICS if figs.get(n) != passes[0].get(n)]
        if moved:
            tally.wrong("traced counts differ between passes: %s" % ", ".join(moved))
    metrics = {}
    for name in COUNT_METRICS:
        metrics[name] = {"value": passes[0].get(name, 0), "unit": "count"}
    for name in TIME_METRICS + ("trace.wall_s",):
        metrics[name] = {"value": statistics.median(p.get(name, 0.0) for p in passes),
                         "unit": "s"}
    layered = sum(metrics["%s.self_s" % layer]["value"] for layer in LAYERS)
    other = statistics.median(p.get("other.self_s", 0.0) for p in passes)
    trace_wall = metrics["trace.wall_s"]["value"]
    log("traced passes %d; layers cover %.3f of trace.wall_s, other %.3f"
        % (len(passes), layered / trace_wall, other / trace_wall))
    # The rest of trace.wall_s is interpreter start, importlib above the
    # package, the tracer and its report; it stays under TRACE_MARGIN.
    if not (1 - TRACE_MARGIN) * trace_wall <= layered <= trace_wall:
        tally.wrong("layer self times sum to %.3f s of a %.3f s traced pass"
                    % (layered, trace_wall))
    return metrics, {"passes": passes}


def log(message):
    print("perfbench: %s" % (message,), file=sys.stderr, flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="seed of the workload inputs (default: the registry's)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer traced run instead of end-to-end timing")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "acceptcert", "__main__.py")):
        log("no acceptcert sources under %s" % (SRC,))
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        warm = spawn([sys.executable, "-m", "acceptcert", "list"],
                     os.path.join(work, "warmup-log.txt"))
        if warm.code != 0:
            log("warm-up 'acceptcert list' exited %d" % (warm.code,))
            return 2
        tally = Tally()
        pass_ = Pass(WORKLOADS[args.workload](args.seed), work, args.trace == 1)
        if args.trace:
            values, detail = traced_run(pass_, args.seconds, tally)
            metrics = values
        else:
            values, detail = timed_run(pass_, args.seconds, work, tally)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}
        for message in sorted(set(tally.failures)):
            log("failed: %s" % (message,))
        for problem in sorted(set(tally.problems)):
            log("wrong: %s" % (problem,))
        if tally.attempted == tally.failed:
            log("every operation failed")
            return 2
        log("CLI invocations attempted %d, failed %d; certificate runs attempted %d, "
            "failed %d" % (tally.attempted[0], tally.failed[0], tally.attempted[1],
                           tally.failed[1]))
        result = {"correct": not tally.problems, "attempted": sum(tally.attempted),
                  "failed": sum(tally.failed), "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    name = "%s-%s.json" % ("trace" if args.trace else "result", args.workload)
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "result": result, "detail": detail}, fh, indent=1)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
