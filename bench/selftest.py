"""Self-tests of the benchmark harness: failures are counted, the deadline
fires without spoiling later ops, and tracing changes no output.

    python3 bench/selftest.py
"""

from __future__ import annotations

import shutil
import signal
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

kp = run._import_library()

import tracing  # noqa: E402
import workloads  # noqa: E402


def _small_packing_ops():
    """The packing ops on at most 10 nodes, plus one seeded graph."""
    ops = workloads.build_packing(3).ops
    small = [op for op in ops if "seeded0/" in op.name]
    for label, g, k in workloads.packing_grid():
        if g.n <= 10:
            small += [op for op in ops if op.name.startswith(f"packing/{label},k={k}/")]
    return small


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        signal.signal(signal.SIGALRM, run._on_alarm)

    def test_wrong_optimum_counts_as_failed(self):
        g = kp.cycle(7)
        ops = [
            workloads._solve_op("t/right", g, 3, "kpf", workloads._check_witness(g, 3, "kpf", 7)),
            workloads._solve_op("t/wrong", g, 3, "kpf", workloads._check_witness(g, 3, "kpf", 8)),
        ]
        res = run.run_pass(ops, 5.0)
        self.assertEqual(res.failures, [("t/wrong", "optimum 7, reference 8")])

    def test_wrong_digest_counts_as_failed(self):
        wl = workloads.build_cli(0)
        try:
            op = wl.ops[0]
            tampered = workloads.Op(
                op.name, op.call, workloads._check_cli({"exit": 0, "sha256": "0" * 64})
            )
            res = run.run_pass([op, tampered], 5.0)
        finally:
            wl.close()
        self.assertEqual(res.failures, [(op.name, "output differs from the golden digest")])

    def test_exception_counts_as_failed(self):
        op = workloads.Op("t/raises", lambda: kp.cycle(2), lambda out, memo: None)
        res = run.run_pass([op], 5.0)
        self.assertEqual(len(res.failures), 1)
        self.assertIn("FamilyParameterError", res.failures[0][1])

    def test_deadline_fires_and_later_ops_pass(self):
        wl = workloads.build_deadline(0)
        res = run.run_pass(wl.ops + wl.ops[1:], 1.0)
        self.assertEqual(res.failures, [("deadline/cycle(20),k=5/kpf", "timeout")])
        self.assertEqual(res.timeouts, 1)
        self.assertLess(res.latencies[0], 1.5)

    def test_traced_and_untraced_agree(self):
        ops = _small_packing_ops()
        original = kp.perfection_report
        untraced = [op.call() for op in ops]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(kp.perfection_report, original)
            traced = [op.call() for op in ops]
            stats = tracer.take()
        finally:
            tracer.uninstall()
        self.assertIs(kp.perfection_report, original)
        self.assertEqual(untraced, traced)
        for variant, fn in workloads.SOLVERS.items():
            explored = sum(r.explored for op, r in zip(ops, untraced) if op.name.endswith(variant))
            self.assertEqual(stats[f"solver.{fn}"].explored, explored)

    def test_traced_cli_output_matches_golden(self):
        wl = workloads.build_cli(0)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            res = run.run_pass(wl.ops[:12], 30.0)
            stats = tracer.take()
        finally:
            tracer.uninstall()
            wl.close()
        self.assertEqual(res.failures, [])
        self.assertEqual(stats["cli.main"].calls, 12)

    def test_refuses_to_run_without_the_library(self):
        workloads.WORK_DIR.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=workloads.WORK_DIR))
        try:
            shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", bare)
            shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns(".work"))
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "census", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
