#!/usr/bin/env python3
"""Tests of the benchmark's own arithmetic and gates.

    python3 perfbench/test_metrics.py
"""

import json
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
import metrics  # noqa: E402

HERE = Path(__file__).resolve().parent


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))  # 1..100
        self.assertEqual(metrics.percentile(xs, 50), 50)
        self.assertEqual(metrics.percentile(xs, 99), 99)
        self.assertEqual(metrics.percentile(xs, 100), 100)
        self.assertEqual(metrics.percentile([7.0], 99), 7.0)
        self.assertEqual(metrics.percentile([3, 1, 2], 50), 2)  # unsorted input

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.percentile([], 50)
        with self.assertRaises(ValueError):
            metrics.median([])

    def test_median(self):
        self.assertEqual(metrics.median([5, 1, 3]), 3)
        self.assertEqual(metrics.median([4, 1, 3, 2]), 2.5)

    def test_ten_samples_beyond(self):
        # p99 needs 1000 samples, p90 needs 100, p50 needs 20.
        self.assertFalse(metrics.supports_percentile(999, 99))
        self.assertTrue(metrics.supports_percentile(1000, 99))
        self.assertFalse(metrics.supports_percentile(99, 90))
        self.assertTrue(metrics.supports_percentile(100, 90))
        self.assertTrue(metrics.supports_percentile(20, 50))
        self.assertFalse(metrics.supports_percentile(19, 50))

    def test_highest_supported(self):
        self.assertEqual(metrics.highest_supported(10000), 99.9)
        self.assertEqual(metrics.highest_supported(5000), 99)
        self.assertEqual(metrics.highest_supported(560, (99, 95, 90)), 95)
        self.assertEqual(metrics.highest_supported(150, (99, 95, 90)), 90)
        self.assertIsNone(metrics.highest_supported(50, (99, 95, 90)))


class Shares(unittest.TestCase):
    def test_failed_share(self):
        self.assertEqual(metrics.failed_share(0, 4000), 0.0)
        self.assertEqual(metrics.failed_share(10, 4000), 0.0025)
        self.assertEqual(metrics.failed_share(0, 0), 0.0)

    def test_barrier_idle_share(self):
        # 4 threads for 2 s = 8 thread-seconds; shards were busy for 6.
        self.assertAlmostEqual(metrics.barrier_idle_share(6.0, 4, 2.0), 0.25)
        self.assertAlmostEqual(metrics.barrier_idle_share(8.0, 4, 2.0), 0.0)
        self.assertAlmostEqual(metrics.barrier_idle_share(2.0, 1, 2.0), 0.0)

    def test_imbalance(self):
        self.assertAlmostEqual(metrics.imbalance([1.0, 1.0, 1.0, 1.0]), 1.0)
        self.assertAlmostEqual(metrics.imbalance([1.0, 3.0]), 1.5)

    def test_per_item(self):
        self.assertAlmostEqual(metrics.per_item(250.0, 1000), 0.25)
        with self.assertRaises(ValueError):
            metrics.per_item(1.0, 0)


def metro_raw(digest="00000000000000aa", failed=0, txns=10):
    it = {"setup_s": 0.1, "run_s": 2.0, "digest": digest, "households": 4,
          "transactions": txns, "items_ok": txns * 16, "items_failed": failed,
          "bytes": 100.0, "cell_bytes": 25.0, "events": 1000, "windows": 12,
          "shard_busy_s": [1.0, 3.0], "opt": {c: 0 for c in metrics.OPT_COUNTERS}}
    return {"workload": "metro", "homes": 4, "items_per_txn": 16,
            "pool_threads": 2, "peak_rss_kb": 2048,
            "iterations": [dict(it), dict(it), dict(it)]}


class MetroDerivation(unittest.TestCase):
    def test_end_to_end_and_layers(self):
        raw = metro_raw()
        e2e = metrics.metro_end_to_end(raw)
        self.assertEqual(e2e["run_s"], 2.0)
        self.assertEqual(e2e["items_per_s"], 160 / 2.0)
        self.assertEqual(e2e["peak_rss_mb"], 2.0)
        layers = metrics.metro_per_layer(raw)
        self.assertAlmostEqual(layers["exec.barrier_idle_share"], 0.0)
        self.assertAlmostEqual(layers["exec.shard_imbalance"], 1.5)
        self.assertAlmostEqual(layers["sim.us_per_event"], 4.0 / 1000 * 1e6)
        self.assertAlmostEqual(layers["core.onload_share"], 0.25)

    def test_gates(self):
        self.assertEqual(metrics.metro_gates(metro_raw(), {}, 1), [])
        raw = metro_raw()
        raw["iterations"][2]["digest"] = "00000000000000bb"
        self.assertTrue(metrics.metro_gates(raw, {}, 1))  # nondeterminism
        self.assertTrue(metrics.metro_gates(metro_raw(failed=1), {}, 1))
        pins = {"metro": {"1": metrics.metro_outputs(metro_raw(txns=11)["iterations"][0])}}
        self.assertTrue(metrics.metro_gates(metro_raw(), pins, 1))  # pin mismatch
        self.assertEqual(metrics.metro_gates(metro_raw(), pins, 2), [])  # unpinned seed


def live_raw(**over):
    role = {"wall_s": 2.0, "cpu_s": 1.0, "sys_s": 0.25, "loop_iters": 500,
            "accepts": 1000, "events": 3000, "bytes_relayed": 2e6,
            "backpressure_pauses": 0, "journal_flushes": 40,
            "journal_records": 1000, "admits": 500, "requests": 1000}
    raw = {"starts": [{"setup_s": 0.01, "replay_ms": 9.0}] * 3,
           "served": {"window_s": 2.0, "txns": 50, "items": 800,
                      "latency_ms": [float(x) for x in range(1, 51)],
                      "items_by_second": [400.0, 380.0, 16.0],
                      "retries": 0, "duplicated_items": 50, "degraded_txns": 5,
                      "wasted_bytes": 10.0, "received_bytes": 1000.0,
                      "peak_buffered_bytes": 0, "flush_ms": [0.5] * 40,
                      "roles": {"proxy": role, "client": role, "origin": role}},
           "items_attempted": 1600, "items_failed": 0, "corrupt_payloads": 0,
           "partial_failures": 0, "stuck_txns": 0, "fds_before": 4,
           "fds_after": 4, "journal_tenants_match": True,
           "journal_max_diff_bytes": 0.0, "drained": True, "peak_rss_kb": 1024}
    raw.update(over)
    return raw


class LiveDerivation(unittest.TestCase):
    def test_end_to_end(self):
        e2e = metrics.live_end_to_end(live_raw())
        self.assertAlmostEqual(e2e["run_s"], 0.0255)  # p50 of 1..50 ms
        self.assertEqual(e2e["items_per_s"], 390.0)  # median of 2 whole seconds
        self.assertEqual(e2e["setup_s"], 0.01)

    def test_full_seconds(self):
        served = {"window_s": 3.0004, "items_by_second": [5.0, 7.0, 6.0, 1.0]}
        self.assertEqual(metrics.full_seconds(served), [5.0, 7.0, 6.0])
        served = {"window_s": 3.0, "items_by_second": [5.0]}  # idle seconds
        self.assertEqual(metrics.full_seconds(served), [5.0, 0.0, 0.0])
        with self.assertRaises(ValueError):
            metrics.full_seconds({"window_s": 0.5, "items_by_second": [1.0]})

    def test_per_item_normalisation(self):
        m = metrics.live_per_layer(live_raw())
        self.assertAlmostEqual(m["proto.proxy.cpu_us_per_item"], 1.0 / 800 * 1e6)
        self.assertAlmostEqual(m["proto.proxy.busy_share"], 0.5)
        self.assertAlmostEqual(m["proto.proxy.sys_share"], 0.25)
        self.assertAlmostEqual(m["proto.proxy.accepts_per_item"], 1.25)
        self.assertAlmostEqual(m["proto.client.wasted_share"], 0.01)
        self.assertAlmostEqual(m["proto.client.degraded_share"], 0.1)
        self.assertAlmostEqual(m["proto.journal.records_per_item"], 1.25)
        self.assertEqual(m["sim.events"], 0.0)  # the simulator did not run

    def test_gates(self):
        self.assertEqual(metrics.live_gates(live_raw()), [])
        for bad in [{"corrupt_payloads": 1}, {"partial_failures": 1},
                    {"stuck_txns": 1}, {"fds_after": 5}, {"drained": False},
                    {"journal_max_diff_bytes": 1.0},
                    {"journal_tenants_match": False}]:
            self.assertTrue(metrics.live_gates(live_raw(**bad)), bad)

    def test_table_states_sample_counts(self):
        rows = {r[0]: r for r in metrics.live_table(live_raw())}
        self.assertIn("n=50", rows["txn_p50_ms"][3])
        self.assertEqual(rows["txn_p99_ms"][1], "n/a")


class BenchmarkFile(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
                         metrics.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         metrics.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
