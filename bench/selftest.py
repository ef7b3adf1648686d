"""Self-tests of the benchmark machinery (not part of the package's test suite).

    python3 bench/selftest.py            # about three minutes on 2 CPUs

Checks that the self times of a nested span tree sum to its wall time, that
the import-site patcher wraps every binding and restores every original, that
traced and untraced runs of real cases give byte-identical outputs and the
same gate verdicts, and that count metrics repeat exactly across two traced
runs of every workload.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import eitdisk  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _busy(ns):
    end = time.perf_counter_ns() + ns
    while time.perf_counter_ns() < end:
        pass


class SelfTimeTest(unittest.TestCase):
    def test_self_times_of_nested_tree_sum_to_wall_time(self):
        tracer = tracing.Tracer()
        busy = {"a": 2_000_000, "b": 1_000_000, "c": 3_000_000, "d": 1_500_000}

        def call(name, children=()):
            span = tracer.open(name)
            _busy(busy[name])
            for child in children:
                child()
            tracer.close(span)

        start = time.perf_counter_ns()
        with tracer.case_span(0):
            call("a", (lambda: call("b", (lambda: call("d"),)), lambda: call("c")))
            call("c")
        wall = time.perf_counter_ns() - start

        selfs = tracer.self_ns()
        root = tracer.spans[0]
        self.assertEqual(root.name, "case")
        self.assertEqual(sum(selfs), root.end - root.start)
        self.assertLessEqual(sum(selfs), wall)
        self.assertLess(wall - sum(selfs), 1_000_000)
        by_name = {}
        for span, own in zip(tracer.spans, selfs):
            self.assertGreaterEqual(own, 0)
            by_name[span.name] = by_name.get(span.name, 0) + own
        for name, ns in busy.items():
            expected = ns * (2 if name == "c" else 1)
            self.assertGreaterEqual(by_name[name], expected)
            self.assertLess(by_name[name], expected + 1_000_000)
        self.assertEqual([s.parent for s in tracer.spans], [None, 0, 1, 2, 1, 0])


def _bindings():
    """Identity of every attribute of every eitdisk module and traced class."""
    snap = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "eitdisk" or modname.startswith("eitdisk."):
            for attr, value in vars(mod).items():
                snap[(modname, attr)] = value
    for cls in (eitdisk.Reconstruction, eitdisk.ArcReconstruction, eitdisk.RadialProfile):
        for attr, value in vars(cls).items():
            snap[(cls.__qualname__, attr)] = value
    return snap


class PatcherTest(unittest.TestCase):
    def test_wraps_every_import_site_and_restores_originals(self):
        import eitdisk.cli
        import eitdisk.io

        before = _bindings()
        originals = {id(eitdisk.muntz.inverse_matrix), id(eitdisk.inverse.solve_moment_problem),
                     id(eitdisk.conformal.psi_inverse), id(eitdisk.inverse.reconstruct)}
        patcher = tracing.Patcher(tracing.Tracer())
        with patcher.installed():
            wrapped = eitdisk.muntz.inverse_matrix
            self.assertIsNot(wrapped, before[("eitdisk.muntz", "inverse_matrix")])
            for site in (eitdisk, eitdisk.inverse, eitdisk.cli):
                self.assertIs(site.inverse_matrix, wrapped)
            self.assertIs(eitdisk.partial.solve_moment_problem, eitdisk.inverse.solve_moment_problem)
            self.assertIs(eitdisk.partial.psi_inverse, eitdisk.conformal.psi_inverse)
            for site in (eitdisk.partial, eitdisk.cli):
                self.assertIs(site._psi_array, eitdisk.conformal._psi_array)
            self.assertIsNot(eitdisk.cli._psi_array, before[("eitdisk.cli", "_psi_array")])
            self.assertIs(eitdisk.cli.reconstruct, eitdisk.reconstruct)
            self.assertIsNot(eitdisk.Reconstruction.evaluate,
                             before[("Reconstruction", "evaluate")])
            wrapped_originals = {id(fn) for fn, _ in patcher.functions.values()}
            self.assertTrue(originals <= wrapped_originals)
            leftovers = [key for key, value in _bindings().items() if id(value) in wrapped_originals]
            self.assertEqual(leftovers, [])
        after = _bindings()
        self.assertEqual(before.keys(), after.keys())
        changed = [key for key in before if before[key] is not after[key]]
        self.assertEqual(changed, [])


class TracedOutputTest(unittest.TestCase):
    """Tracing must not change what the program produces or how gates judge it."""

    def check_cases(self, name, indices):
        (ROOT / ".bench_tmp").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_tmp") as tmp:
            workloads.prepare(name, 5, Path(tmp))
            workload = workloads.WORKLOADS[name](5, Path(tmp))
            for index in indices:
                case = workload.cases[index]
                plain = case.run()
                plain_bytes = workloads.output_bytes(plain)
                plain_verdict = case.check(plain)
                tracer = tracing.Tracer()
                with tracing.Patcher(tracer).installed(), tracer.case_span(index):
                    traced = case.run()
                traced_bytes = workloads.output_bytes(traced)
                self.assertGreater(len(tracer.spans), 1)
                self.assertTrue(plain_bytes)
                self.assertEqual(plain_bytes, traced_bytes, case.label)
                self.assertEqual(plain_verdict, case.check(traced), case.label)
                self.assertEqual(plain_verdict, [], case.label)

    def test_disk_exact(self):
        self.check_cases("disk_exact", (6, 7))

    def test_disk_measured(self):
        self.check_cases("disk_measured", (0, 1))

    def test_partial_oracle(self):
        self.check_cases("partial_oracle", (0,))


class CountRepeatTest(unittest.TestCase):
    """Count metrics of two traced runs with one seed are identical."""

    def traced_counts(self, name):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
             "--seconds", "0", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counted = {n for n, unit, _ in tracing.PER_LAYER if unit in ("count", "bytes")}
        counted |= set(tracing.COMPUTED)
        return {n: metrics[n]["value"] for n in sorted(counted)}

    def test_counts_repeat(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                first = self.traced_counts(name)
                self.assertEqual(first, self.traced_counts(name))


if __name__ == "__main__":
    unittest.main(verbosity=2)
