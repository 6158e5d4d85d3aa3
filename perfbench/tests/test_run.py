"""Unit tests of the benchmark driver's statistics, span arithmetic,
environment scrub and result line.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import random
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import run  # noqa: E402


def span(sid, name, start, end, parent=-1, op=0, lane=1, repeat=-1):
    return {"id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "op": op, "lane": lane, "repeat": repeat}


class Percentiles(unittest.TestCase):
    def test_p50_is_the_median(self):
        self.assertEqual(run.p50([5.0, 1.0, 3.0]), 3.0)
        self.assertEqual(run.p50([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_p90_needs_ten_samples_beyond_it(self):
        rng = random.Random(1)
        few = [rng.uniform(1, 2) for _ in range(50)]
        value, beyond = run.p90(few)
        self.assertIsNone(value)
        self.assertLess(beyond, run.MIN_TAIL)

        many = [rng.uniform(1, 2) for _ in range(400)]
        value, beyond = run.p90(many)
        self.assertIsNotNone(value)
        self.assertGreaterEqual(beyond, run.MIN_TAIL)
        self.assertEqual(beyond, sum(1 for s in many if s > value))

    def test_p90_boundary(self):
        # 100 distinct samples: the inclusive p90 is 90.1, ten lie beyond.
        value, beyond = run.p90([float(i) for i in range(1, 101)])
        self.assertAlmostEqual(value, 90.1)
        self.assertEqual(beyond, 10)
        value, beyond = run.p90([float(i) for i in range(1, 91)])
        self.assertIsNone(value)
        self.assertEqual(beyond, 9)

    def test_p90_or_fail_refuses(self):
        with self.assertRaises(run.BenchError):
            run.p90_or_fail([1.0] * 20 + [2.0] * 5, "op_p90_ms")
        self.assertEqual(run.p90([1.0] * 200)[1], 0)


class SpanArithmetic(unittest.TestCase):
    def test_union_merges_overlaps(self):
        self.assertEqual(run.union_length([(0, 10), (5, 15), (20, 25)]), 20)
        self.assertEqual(run.union_length([(3, 3), (4, 2)]), 0)
        self.assertEqual(run.union_length([(0, 10), (2, 4)]), 10)

    def test_self_time_subtracts_direct_children_only(self):
        spans = [
            span(1, "op", 0, 100),
            span(2, "pla.cg", 10, 90, parent=1),
            span(3, "core.apply", 20, 40, parent=2),
            span(4, "pla.precond_apply", 35, 50, parent=2),
            span(5, "core.update_elements", 0, 5, parent=1),
        ]
        selfs = run.self_times(spans)
        self.assertEqual(selfs[1], 100 - 80 - 5)
        self.assertEqual(selfs[2], 80 - 30)  # children cover 20..50
        self.assertEqual(selfs[3], 20)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(1, "op", 10, 20), span(2, "svc.solve", 15, 30, parent=1)]
        self.assertEqual(run.self_times(spans)[1], 5)

    def test_span_metrics_per_op_and_unattributed(self):
        spans = []
        sid = 0
        for lane in (1, 2):
            for op in range(3):
                base = 1000.0 * op
                spans.append(span(sid, "op", base, base + 100, op=op, lane=lane))
                parent = sid
                sid += 1
                for k in range(2):
                    spans.append(span(sid, "core.apply", base + 10 + 40 * k,
                                      base + 40 + 40 * k, parent=parent,
                                      op=op, lane=lane))
                    sid += 1
        for repeat, dur in enumerate((30.0, 10.0, 20.0)):
            spans.append(span(sid, "mesh.build", 0, dur, op=-1, lane=0,
                              repeat=repeat))
            sid += 1
        m = run.span_metrics(spans)
        self.assertEqual(m["ops"], 3)
        self.assertEqual(m["core.apply_calls"], 2)
        self.assertAlmostEqual(m["core.apply_s"], 60e-6)
        self.assertAlmostEqual(m["op.unattributed_frac"], 0.4)
        self.assertAlmostEqual(m["mesh.build_s"], 20e-6)
        self.assertEqual(m["pla.cg_s"], 0.0)


class Environment(unittest.TestCase):
    def test_scrub_drops_inherited_knobs_and_sets_the_budget(self):
        base = {
            "PATH": "/bin", "HOME": "/home/x",
            "HYMV_STORE_LAYOUT": "fp32", "HYMV_ISA": "scalar",
            "HYMV_CG_PIPELINED": "1", "OMP_NUM_THREADS": "16",
            "OMP_PROC_BIND": "true", "GOMP_SPINCOUNT": "0",
            "KMP_AFFINITY": "compact",
        }
        env = run.scrubbed_env(base, 2)
        self.assertEqual(env, {"PATH": "/bin", "HOME": "/home/x",
                               "OMP_NUM_THREADS": "2"})
        self.assertEqual(base["OMP_NUM_THREADS"], "16")


class ResultLine(unittest.TestCase):
    def test_result_line_has_exactly_the_contract_keys(self):
        values = {name: 1.5 for name, _ in run.END_TO_END}
        doc = json.loads(run.result_line(True, 12, 0, values, run.END_TO_END))
        self.assertEqual(set(doc), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(doc["metrics"]), {n for n, _ in run.END_TO_END})
        for name, unit in run.END_TO_END:
            self.assertEqual(doc["metrics"][name], {"value": 1.5, "unit": unit})

    def test_metric_lists_match_the_benchmark_file(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         run.PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
