"""eitdisk benchmark: one workload as a closed loop of fresh-process passes.

    python3 bench/run.py --workload disk_exact --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, and the run fails (exit 2, no result) when
it is missing.  The inputs are made from the seed once, before any timing.

With ``--trace 0`` the run is a sequence of episodes, one after the other
until ``--seconds`` are spent.  An episode is a fresh interpreter
(``episode.py``) that imports eitdisk and makes one pass over the workload's
case list, as one caller on one thread: the next case starts only when the
previous one has finished.  Each episode is followed by a probe: a fresh
interpreter that imports eitdisk and runs only the first case, so that
first-case times have as many samples as the run can give.  No episode
starts when half a typical episode and probe would overrun ``--seconds``.

The host this runs on is shared, and its speed drifts by up to about 1.7x
over seconds to minutes (CPU time grows with wall time, so the slowdown is
contention the process cannot see).  Every timed interval is therefore
bracketed by runs of a fixed reference kernel that does not touch eitdisk
(``reference_time``), and is reported scaled by ``REFERENCE_S`` over the
kernel's mean time around it: seconds on a host on which the kernel takes
``REFERENCE_S``.  A change to the program moves these figures in full; a
slow spell of the host slows the kernel too and cancels.  Each printed line
also gives the unscaled median.  The last stdout line reports the end-to-end
metrics, each a median over the whole run:

    setup_s       median import time of eitdisk, eitdisk.io and eitdisk.cli
                  in a fresh interpreter, over episodes and probes (the
                  program's set-up; input generation and references are
                  excluded)
    batch_s       median wall time of one episode's pass over the case list
    case_s.p50    median over the case list of each case's median wall time
                  over the episodes (the median case; taking each case's
                  median first keeps it off the gap between two case sizes)
    first_case_s  median wall time of the first case of an episode or probe,
                  run before any lazily built table or cache of its process
                  is filled; every list starts with its most expensive case
                  shape
    peak_rss_mb   largest peak resident memory of an episode or probe
                  (getrusage)

``failed_frac`` (cases that raised or failed a gate over cases attempted) is
printed by name and carried by the result's ``failed`` and ``attempted``.

With ``--trace 1`` the run stays in one process: it first repeats untraced
passes for half the time, then makes one paired pass: each case runs
untraced and right after traced, so exactly one traced run of each case is
recorded and count metrics repeat exactly for a seed.
``trace.overhead_ratio`` is the median over cases of traced time over
untraced time within each pair, both scaled as above.  The last line
reports the per-layer metrics of the traced runs (see ``tracing.PER_LAYER``)
and the spans are written to ``.bench_out/trace-<workload>-seed<seed>.jsonl``.  Gates run outside every
timed region and outside the trace.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("disk_exact", "disk_measured", "partial_oracle")
REFERENCE_S = 0.008          # timings are scaled to a host whose reference kernel takes this
EPISODE_TIMEOUT = 120
END_TO_END = (("setup_s", "s"), ("batch_s", "s"), ("case_s.p50", "s"),
              ("first_case_s", "s"), ("peak_rss_mb", "MB"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eitdisk" / "__init__.py").is_file():
        print(f"error: no eitdisk sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import eitdisk
    if Path(eitdisk.__file__).resolve().parent != SRC / "eitdisk":
        print(f"error: imported eitdisk from {eitdisk.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_tmp"))
    try:
        workloads.prepare(args.workload, args.seed, workdir)
        if args.trace:
            runner = Runner(workloads.WORKLOADS[args.workload](args.seed, workdir))
            metrics = traced_run(runner, args, env)
        else:
            runner = Episodes(args.workload, args.seed, workdir)
            metrics = untraced_run(runner, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_tmp").rmdir()
        except OSError:
            pass
    if metrics is None:
        print("error: no episode completed", file=sys.stderr)
        return 1
    failed_frac = runner.failed / runner.attempted
    print(f"failed_frac = {failed_frac!r} ratio ({runner.failed} failed of {runner.attempted} attempted)")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


class Runner:
    """Closed loop over one workload's cases in this process, with gates outside the timing."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.case_times = []
        self.pass_times = []
        self.host_times = []     # per case of run_pass: reference kernel time around it

    def run_pass(self):
        total = 0.0
        before = reference_time()
        for index, case in enumerate(self.workload.cases):
            total += self.run_one(index, case)
            after = reference_time()
            self.host_times.append((before + after) / 2.0)
            before = after
        self.pass_times.append(total)
        return total

    def run_paired_pass(self, tracer, patcher):
        """Each case untraced, then traced right after; per case, traced over untraced
        time, each scaled by the reference kernel's mean time around it."""
        ratios = []
        before = reference_time()
        for index, case in enumerate(self.workload.cases):
            plain = self.run_one(index, case)
            between = reference_time()
            with patcher.installed():
                traced = self.run_one(index, case, tracer)
            after = reference_time()
            ratios.append((traced / (between + after)) / (plain / (before + between)))
            before = after
        return ratios

    def run_one(self, index, case, tracer=None):
        """Run and gate one case; returns its wall time."""
        outputs, elapsed, error = self.run_case(index, case, tracer)
        self.case_times.append(elapsed)
        self.attempted += 1
        failures = [error] if error else self.gate(case, outputs)
        if failures:
            self.failed += 1
            for failure in failures:
                print(f"gate failed: {self.workload.name} case {index} ({case.label}): {failure}")
        return elapsed

    @staticmethod
    def run_case(index, case, tracer):
        outputs, error = None, None
        with tracer.case_span(index) if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                outputs = case.run()
            except Exception:
                error = "raised: " + traceback.format_exc().strip().splitlines()[-1]
            elapsed = time.perf_counter() - start
        return outputs, elapsed, error

    @staticmethod
    def gate(case, outputs):
        try:
            return case.check(outputs)
        except Exception:
            return ["gate raised: " + traceback.format_exc().strip().splitlines()[-1]]

    def loop(self, seconds):
        """Whole passes, at least one, until ``seconds`` have elapsed."""
        start = time.perf_counter()
        while not self.pass_times or time.perf_counter() - start < seconds:
            self.run_pass()


class Episodes:
    """Fresh-interpreter passes over one workload, each followed by a first-case probe."""

    def __init__(self, workload, seed, workdir):
        self.cmd = [sys.executable, str(HERE / "episode.py"), "--workload", workload,
                    "--seed", str(seed), "--workdir", str(workdir)]
        self.attempted = 0
        self.failed = 0
        self.passes = []             # per full episode: (case time, host time) per case
        self.firsts = []             # (first case time, host time), from episodes and probes
        self.setup = []              # (import time, host time)
        self.rss_kb = []

    def run_child(self, first_only):
        host = reference_time()
        try:
            proc = subprocess.run(self.cmd + (["--first-only"] if first_only else []), cwd=ROOT,
                                  capture_output=True, text=True, timeout=EPISODE_TIMEOUT)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        except subprocess.TimeoutExpired:
            proc, lines, result = None, [], None
        for line in lines[:-1]:
            print(line)          # gate failures, reported by the episode
        if result is None:
            # the cases of a lost episode are unknown here: count it as one failed attempt
            self.attempted += 1
            self.failed += 1
            why = "timed out" if proc is None else f"exited {proc.returncode}: " + proc.stderr.strip()[-500:]
            print(f"episode failed: {why}")
            return
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        cases = list(zip(result["case_times"], result["host_times"]))
        if not first_only:
            self.passes.append(cases)
        self.firsts.append(cases[0])
        self.setup.append((result["import_s"], (host + result["import_host"]) / 2.0))
        self.rss_kb.append(result["maxrss_kb"])

    def loop(self, seconds):
        """Episode and probe pairs until ``seconds`` are spent; none starts if half a
        typical pair would overrun."""
        start = time.perf_counter()
        spent = []
        while not spent or time.perf_counter() - start + statistics.median(spent) / 2 < seconds:
            began = time.perf_counter()
            self.run_child(first_only=False)
            self.run_child(first_only=True)
            spent.append(time.perf_counter() - began)


def scaled(elapsed, host):
    """A time measured while the reference kernel took ``host``, as seconds on a
    host on which the kernel takes ``REFERENCE_S``."""
    return elapsed * REFERENCE_S / host


def timing_values(setup, passes, firsts):
    """setup_s, batch_s, case_s.p50 and first_case_s from times of one kind."""
    return {
        "setup_s": statistics.median(setup),
        "batch_s": statistics.median(sum(p) for p in passes),
        "case_s.p50": statistics.median(statistics.median(case) for case in zip(*passes)),
        "first_case_s": statistics.median(firsts),
    }


def untraced_run(episodes, args):
    episodes.loop(args.seconds)
    if not episodes.passes:
        return None
    passes = [[scaled(t, h) for t, h in p] for p in episodes.passes]
    raw_passes = [[t for t, _ in p] for p in episodes.passes]
    values = timing_values([scaled(t, h) for t, h in episodes.setup], passes,
                           [scaled(t, h) for t, h in episodes.firsts])
    raw = timing_values([t for t, _ in episodes.setup], raw_passes, [t for t, _ in episodes.firsts])
    sizes = {"setup_s": f"median of {len(episodes.setup)} fresh-interpreter imports",
             "batch_s": f"median of {len(passes)} episodes",
             "case_s.p50": f"median over {len(passes[0])} cases of each one's median over {len(passes)} episodes",
             "first_case_s": f"median of {len(episodes.firsts)} episodes and probes"}
    counts = {name: f"{sizes[name]}; unscaled {raw[name]:.6g} s" for name in raw}
    values["peak_rss_mb"] = max(episodes.rss_kb) / 1024.0
    counts["peak_rss_mb"] = f"largest of {len(episodes.rss_kb)} episodes and probes"
    hosts = [h for p in episodes.passes for _, h in p]
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds:g} trace=0")
    print(f"episodes: {len(passes)} of {len(passes[0])} cases, and {len(episodes.firsts) - len(passes)} probes; "
          f"reference kernel median "
          f"{statistics.median(hosts):.6g} s (min {min(hosts):.6g}, max {max(hosts):.6g}), "
          f"timings scaled to {REFERENCE_S} s")
    print("case times: " + json.dumps(raw_passes))
    print("host times: " + json.dumps([[h for _, h in p] for p in episodes.passes]))
    metrics = {}
    for name, unit in END_TO_END:
        print(f"{name} = {values[name]!r} {unit} ({counts[name]})")
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics


def traced_run(runner, args, env):
    import tracing

    runner.loop(args.seconds / 2.0)   # untraced warm-up, so both runs of a pair start warm
    tracer = tracing.Tracer()
    ratios = runner.run_paired_pass(tracer, tracing.Patcher(tracer))
    values = tracer.layer_metrics(runner.workload.dominant)
    values["trace.overhead_ratio"] = statistics.median(ratios)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(trace_path, {"env": env, "workload": args.workload, "seed": args.seed,
                              "cases": [c.label for c in runner.workload.cases]})
    print(f"workload: {runner.workload.name} seed={args.seed} seconds={args.seconds:g} trace=1")
    print(f"trace.overhead_ratio: median of {len(ratios)} per-case ratios, each case run untraced "
          "and then traced, both scaled: " + " ".join(f"{r:.3f}" for r in ratios))
    print(f"trace file: {trace_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    print("dominant layer: " + " + ".join(runner.workload.dominant))
    metrics = {}
    for name, unit, _better in tracing.PER_LAYER:
        tag = " (computed)" if name in tracing.COMPUTED else ""
        print(f"{name} = {values[name]!r} {unit}{tag}")
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics


def reference_time():
    """Time of a fixed kernel that does not touch eitdisk: the host's current speed.

    It mixes the three kinds of work the workloads do: rational arithmetic on
    growing integers, small numpy calls from a Python loop, and passes over
    a larger array.  Best of three runs, so a single interrupt does not count.
    """
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 400):
            acc += Fraction(i, i * i + 1)
        x = np.linspace(0.0, 1.0, 64)
        s = 0.0
        for i in range(400):
            s += float(np.dot(np.cos(i * x), x))
        y = np.linspace(0.0, 50.0, 20_000)
        for _ in range(10):
            s += float(np.cos(y).sum())
        best = min(best, time.perf_counter() - start)
    return best


def environment():
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(ROOT),
    }


def git_commit(root):
    """HEAD of the checkout read from ``.git`` without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
