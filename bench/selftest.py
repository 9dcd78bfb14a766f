"""Fast self-test of the benchmark itself.

    python3 bench/selftest.py

Runs one op of every workload against its frozen answer, and checks that a
deliberately wrong expected answer, an op that raises, or a Hom/Ext rank that
is off by one is counted as a failed op and not as a pass.
"""

import dataclasses
import sys
import unittest
from pathlib import Path
from unittest import mock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

# one cheap op per workload
SAMPLE_OPS = {
    "enumerate": "count remark p=3 b=1 dims=(5,5)",
    "checkers": "lemma1 p=3 a=3",
    "algebra": "hom_ext_dims F7 #0",
    "cli": "grassmannian count remark p=3 b=1",
}


class BenchmarkSelfTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        run.WORKDIR.mkdir(exist_ok=True)
        cls.ops = {}
        for name, op_name in SAMPLE_OPS.items():
            wl = workloads.build(name, 1, ROOT, run.WORKDIR)
            cls.ops[name] = next(op for op in wl.ops if op.name == op_name)

    def test_one_op_per_workload_passes(self):
        for name, op in self.ops.items():
            with self.subTest(workload=name):
                ok, got = workloads.execute(op)
                self.assertTrue(ok, f"{op.name}: got {got!r}, expected {op.expected!r}")

    def test_wrong_expected_count_is_a_failure(self):
        op = self.ops["enumerate"]
        wrong = dataclasses.replace(op, name="wrong count", expected=op.expected + 1)
        ok, got = workloads.execute(wrong)
        self.assertFalse(ok)
        self.assertEqual(got, op.expected)
        res = run.run_passes([op, wrong], 0.0)
        self.assertEqual(res.attempted, 2)
        self.assertEqual([f["op"] for f in res.failures], ["wrong count"])
        self.assertEqual(res.failures[0]["got"], op.expected)

    def test_wrong_rank_is_a_failure(self):
        # a kernel that gets the rank of the Hom/Ext differential wrong by one
        # still satisfies the Euler identity, but not the frozen dimensions
        op = self.ops["algebra"]
        rank = workloads.qg.Matrix.rank
        with mock.patch.object(workloads.qg.Matrix, "rank",
                               lambda self: rank(self) - 1):
            ok, got = workloads.execute(op)
        self.assertFalse(ok)
        self.assertEqual(got[0] - got[1], op.expected[0] - op.expected[1])

    def test_raising_op_is_a_failure(self):
        def boom():
            raise RuntimeError("enumeration budget exceeded")
        ok, got = workloads.execute(workloads.Op("raises", boom, 0))
        self.assertFalse(ok)
        self.assertIn("RuntimeError", got)

    def test_wrong_cli_exit_code_is_a_failure(self):
        op = self.ops["cli"]
        code, out = op.expected
        wrong = dataclasses.replace(op, expected=(2, out))
        self.assertFalse(workloads.execute(wrong)[0])


if __name__ == "__main__":
    unittest.main()
