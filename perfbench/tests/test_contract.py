"""BENCHMARK.json and the benchmark code name the same workloads and metrics."""

import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from pbench import workloads  # noqa: E402


class ContractTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

    def test_workloads(self):
        self.assertEqual({w["name"] for w in self.spec["workloads"]}, set(workloads.RUNNERS))

    def test_metric_names_and_units(self):
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["end_to_end"]],
                         workloads.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["per_layer"]],
                         workloads.PER_LAYER)

    def test_tail_rank_per_workload(self):
        self.assertEqual(set(workloads.TAIL_RANK), set(workloads.RUNNERS))


if __name__ == "__main__":
    unittest.main()
