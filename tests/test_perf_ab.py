#!/usr/bin/env python3
"""Verdict and exit-status rules of the perf A/B gate (ci/perf_ab.py).

    python3 tests/test_perf_ab.py

Feeds synthetic base/head pairs through perf_ab.judge and perf_ab.gate with
the end-to-end metrics and bounds of BENCHMARK.json; nothing is built or run.
"""

import statistics
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "ci"))
import perf_ab  # noqa: E402

METRICS = perf_ab.end_to_end_metrics()
BOUND = {name: bound for name, _, bound in METRICS}
# One fig1-like run; every run of a side is this, times a small jitter.
TYPICAL = {"wall_s": 4.4, "sim_minsts_per_s": 8.2, "run_us_per_kinst.p50": 95.0,
           "run_us_per_kinst.tail": 160.0, "peak_rss_mb": 155.0, "setup_s": 88e-6}
JITTER = [1.0, 0.99, 1.01, 0.98, 1.02, 1.0, 0.995, 1.005, 0.985, 1.015]
# setup_s as measured over 10 runs of fig1: IQR 85-99 us, 16% of the median.
SETUP_BASE = [82e-6, 84e-6, 85e-6, 86e-6, 88e-6, 88e-6, 95e-6, 99e-6, 101e-6, 104e-6]


def pairs_of(head_scale=None, head_runs=None, base_runs=None, head_digest="d1"):
    """Ten pairs of TYPICAL runs; head_scale multiplies head metrics,
    head_runs/base_runs give one metric's ten runs outright."""
    head_scale, head_runs, base_runs = head_scale or {}, head_runs or {}, base_runs or {}
    pairs = []
    for i, j in enumerate(JITTER):
        base = {"digest": "d1", "failed": 0}
        head = {"digest": head_digest, "failed": 0}
        for m, v in TYPICAL.items():
            base[m] = base_runs[m][i] if m in base_runs else v * j
            head[m] = head_runs[m][i] if m in head_runs else v * head_scale.get(m, 1.0) * j
        pairs.append({"base": base, "head": head})
    return pairs


def exit_code(pairs, runs_ok=True):
    """What the tool exits with after these pairs (0 when gate returns)."""
    try:
        perf_ab.gate(perf_ab.judge(pairs, METRICS), perf_ab.digests(pairs)[0], runs_ok)
    except SystemExit as e:
        return e.code
    return 0


def verdicts(pairs):
    return {m: s["verdict"] for m, s in perf_ab.judge(pairs, METRICS).items()}


class VerdictTest(unittest.TestCase):
    def test_metrics_come_from_benchmark_json(self):
        self.assertEqual(set(TYPICAL), set(BOUND))
        self.assertIn(("sim_minsts_per_s", "higher", BOUND["sim_minsts_per_s"]), METRICS)

    def test_identical_sides_pass(self):
        pairs = pairs_of()
        self.assertEqual(set(verdicts(pairs).values()), {"within bound"})
        self.assertEqual(exit_code(pairs), 0)

    def test_clear_regression_exits_3(self):
        pairs = pairs_of(head_scale={"wall_s": 1 + 2 * BOUND["wall_s"]})
        self.assertEqual(verdicts(pairs)["wall_s"], "regressed")
        self.assertEqual(exit_code(pairs), 3)

    def test_higher_is_better_regression(self):
        pairs = pairs_of(head_scale={"sim_minsts_per_s": 1 - 2 * BOUND["sim_minsts_per_s"]})
        self.assertEqual(verdicts(pairs)["sim_minsts_per_s"], "regressed")
        self.assertEqual(exit_code(pairs), 3)

    def test_shift_within_bound_passes(self):
        pairs = pairs_of(head_scale={"wall_s": 1 + BOUND["wall_s"] / 2})
        self.assertEqual(verdicts(pairs)["wall_s"], "within bound")
        self.assertEqual(exit_code(pairs), 0)

    def test_improvement_is_not_a_regression(self):
        pairs = pairs_of(head_scale={"wall_s": 0.5})
        self.assertEqual(verdicts(pairs)["wall_s"], "within bound")
        self.assertEqual(exit_code(pairs), 0)

    def test_noisy_setup_s_is_unresolved(self):
        q1, med, q3 = perf_ab.quartiles(SETUP_BASE)
        self.assertLess((q3 - q1) / med, BOUND["setup_s"])
        # Head median past the bound, but its fastest runs sit among the
        # base's slowest: no separation, so no regression.
        head = [98e-6, 103e-6, 108e-6, 112e-6, 114e-6, 116e-6, 118e-6, 121e-6, 126e-6, 131e-6]
        self.assertGreater(statistics.median(head) / med - 1, BOUND["setup_s"])
        pairs = pairs_of(head_runs={"setup_s": head}, base_runs={"setup_s": SETUP_BASE})
        self.assertEqual(verdicts(pairs)["setup_s"], "unresolved")
        self.assertEqual(exit_code(pairs), 0)

    def test_wide_base_is_unresolved(self):
        bound = BOUND["peak_rss_mb"]
        base = [155.0 * (1 + bound * k) for k in (-2, -1.5, -1, -0.5, 0, 0, 0.5, 1, 1.5, 2)]
        pairs = pairs_of(base_runs={"peak_rss_mb": base})
        self.assertEqual(verdicts(pairs)["peak_rss_mb"], "unresolved")
        self.assertEqual(exit_code(pairs), 0)

    def test_wide_base_beaten_by_every_head_run_is_within_bound(self):
        bound = BOUND["peak_rss_mb"]
        base = [155.0 * (1 + bound * k) for k in (-2, -1.5, -1, -0.5, 0, 0, 0.5, 1, 1.5, 2)]
        head = [155.0 * (1 - 3 * bound) * j for j in JITTER]  # all below min(base)
        self.assertLess(max(head), min(base))
        pairs = pairs_of(base_runs={"peak_rss_mb": base}, head_runs={"peak_rss_mb": head})
        self.assertEqual(verdicts(pairs)["peak_rss_mb"], "within bound")

    def test_digest_mismatch_exits_1_not_3(self):
        pairs = pairs_of(head_scale={"wall_s": 1 + 2 * BOUND["wall_s"]}, head_digest="d2")
        self.assertEqual(verdicts(pairs)["wall_s"], "regressed")
        self.assertEqual(exit_code(pairs), 1)

    def test_failed_run_exits_1_not_3(self):
        pairs = pairs_of(head_scale={"wall_s": 1 + 2 * BOUND["wall_s"]})
        self.assertEqual(exit_code(pairs, runs_ok=False), 1)


if __name__ == "__main__":
    unittest.main()
