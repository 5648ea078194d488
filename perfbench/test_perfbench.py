"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root. The unit tests cover the percentile helper,
the self-time arithmetic, the steal share and BENCHMARK.json; `SmokeTest`
runs both workloads at a tiny scale, traced and untraced (it builds first).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(stats.percentile(xs, 50), 50)
        self.assertEqual(stats.percentile(xs, 90), 90)
        self.assertEqual(stats.percentile(xs, 99.9), 100)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)
        self.assertEqual(stats.percentile([3, 1, 2], 100), 3)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1], 0)

    def test_tail_needs_ten_samples_beyond(self):
        # 133 batches: p90 leaves 13 beyond, p95 only 6.
        self.assertEqual(stats.tail_percentile(133), 90.0)
        self.assertTrue(stats.supports(133, 90.0))
        self.assertFalse(stats.supports(133, 95.0))
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10_000), 99.9)
        self.assertEqual(stats.tail_percentile(50), 75.0)
        self.assertIsNone(stats.tail_percentile(20))

    def test_summary_reports_median_tail_and_count(self):
        xs = [float(i) for i in range(1, 134)]
        s = stats.summarize(xs)
        self.assertEqual(s, {"median": 67.0, "tail_p": 90.0, "tail": 120.0, "n": 133})
        self.assertEqual(stats.summarize([2.0, 4.0])["median"], 3.0)
        self.assertIsNone(stats.summarize([2.0, 4.0])["tail_p"])


class StealTest(unittest.TestCase):
    def test_steal_share_of_the_interval(self):
        self.assertAlmostEqual(run.steal_frac((10, 100), (30, 300)), 0.1)
        self.assertIsNone(run.steal_frac(None, (30, 300)))
        self.assertIsNone(run.steal_frac((10, 100), (10, 100)))


def span(id_, parent, name, start, end):
    return {"id": id_, "parent": parent, "name": name, "start_ns": start, "end_ns": end}


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans_subtract_their_children(self):
        spans = [
            span(0, None, "root", 0, 10_000_000_000),
            span(1, 0, "a", 1_000_000_000, 6_000_000_000),
            span(2, 1, "b", 2_000_000_000, 3_000_000_000),
        ]
        layers, unattributed, total = stats.self_times(spans)
        self.assertAlmostEqual(layers["a"], 4.0)
        self.assertAlmostEqual(layers["b"], 1.0)
        self.assertAlmostEqual(unattributed, 5.0)
        self.assertAlmostEqual(total, 10.0)

    def test_siblings_sum_and_overlaps_count_once(self):
        spans = [
            span(0, None, "root", 0, 10),
            span(1, 0, "x", 1, 4),
            span(2, 0, "x", 3, 6),
            span(3, 0, "y", 8, 9),
        ]
        layers, unattributed, total = stats.self_times(spans)
        self.assertAlmostEqual(layers["x"], 6e-9)
        self.assertAlmostEqual(layers["y"], 1e-9)
        # The root's children cover [1, 6) and [8, 9): 6 ns of 10.
        self.assertAlmostEqual(unattributed, 4e-9)
        self.assertAlmostEqual(sum(layers.values()) + unattributed, total + 1e-9)

    def test_children_are_clipped_to_their_parent(self):
        spans = [span(0, None, "root", 0, 10), span(1, 0, "late", 8, 14)]
        layers, unattributed, _ = stats.self_times(spans)
        self.assertAlmostEqual(unattributed, 8e-9)
        self.assertAlmostEqual(layers["late"], 6e-9)

    def test_layers_and_remainder_add_up_to_the_roots(self):
        spans = [
            span(0, None, "serve", 0, 100),
            span(1, 0, "ingest.decode", 0, 30),
            span(2, 0, "analytics.view_apply", 40, 90),
            span(3, None, "serve.recover", 200, 260),
            span(4, 3, "ingest.wal_replay", 210, 220),
        ]
        layers, unattributed, total = stats.self_times(spans)
        self.assertAlmostEqual(total, 160e-9)
        self.assertAlmostEqual(sum(layers.values()) + unattributed, total)
        self.assertAlmostEqual(unattributed, 70e-9)


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_names_and_units_match_the_runner(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in self.bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in self.bench["per_layer"]}, run.PER_LAYER)

    def test_contract_shape(self):
        self.assertEqual(
            set(self.bench),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        for m in self.bench["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in self.bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in self.bench["end_to_end"]))
        for m in self.bench["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})

    def test_layer_map_covers_every_per_layer_metric(self):
        with open(os.path.join(HERE, "layers.json")) as f:
            layer_map = json.load(f)["map"]
        mapped = [name for entry in layer_map for name in entry["metrics"]]
        self.assertEqual(sorted(mapped), sorted(run.PER_LAYER))
        targets = set(run.END_TO_END) | set(run.PER_LAYER)
        for entry in layer_map:
            self.assertTrue(set(entry["moves"]) <= targets, entry["moves"])
            self.assertTrue(set(entry["on"] + entry["no_change_on"]) <= set(run.WORKLOADS))


class SmokeTest(unittest.TestCase):
    """Both workloads at a tiny scale: every metric present, outputs checked."""

    def setUp(self):
        # The program's own settings in the caller's environment must not
        # reach the workloads: an armed kill point would kill the serve
        # session, a snapshot dir would turn the default build of the set-up
        # into a cached run.
        self.stray = tempfile.TemporaryDirectory()
        self.env = dict(os.environ, CROWD_KILL_AT="1", CROWD_SNAPSHOT_DIR=self.stray.name)

    def tearDown(self):
        self.assertEqual(os.listdir(self.stray.name), [], "a workload used CROWD_SNAPSHOT_DIR")
        self.stray.cleanup()

    def run_workload(self, workload, trace):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "5", "--seconds", "0.5", "--trace", str(trace), "--scale", "0.002"]
        out = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=900)
        self.assertEqual(out.returncode, 0, out.stderr[-3000:])
        lines = out.stdout.strip().splitlines()
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = run.PER_LAYER if trace else run.END_TO_END
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, wanted)
        for key in ("workload", "seed", "scale", "threads", "nproc", "ram_gb", "steal_frac", "commit"):
            self.assertIn(key, record)
        if workload == "serve_live":
            self.assertGreaterEqual(record["samples"]["wall_s"]["n"], run.SERVE_MIN_SESSIONS)
        return result["metrics"]

    def test_all_workloads(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                e2e = self.run_workload(workload, 0)
                for name, m in e2e.items():
                    self.assertGreater(m["value"], 0, name)
                layers = self.run_workload(workload, 1)
                self.assertGreater(layers["trace.overhead_frac"]["value"], 0)
                if workload == "serve_live":
                    self.assertGreater(layers["ingest.events"]["value"], 0)
                    self.assertGreater(layers["events_per_s"]["value"], 0)
                else:
                    self.assertGreater(layers["query.rows_scanned"]["value"], 0)
                    self.assertGreater(layers["repro.build_s"]["value"], 0)
                    self.assertEqual(layers["ingest.events"]["value"], 0)

    def test_session_error_is_reported_not_fatal(self):
        # A WAL that cannot be opened is an error of the program under test:
        # the probe reports it as a failed session and exits 0, leaving exit
        # code 2 to "cannot run here".
        _, probe = run.build(ROOT)
        with tempfile.TemporaryDirectory() as d:
            blocker = os.path.join(d, "file")
            open(blocker, "w").close()
            out = subprocess.run(
                [probe, "serve", "--seed", "5", "--scale", "0.002", "--threads", "2",
                 "--dir", blocker, "--trace", "0"],
                capture_output=True, text=True, timeout=300,
            )
        self.assertEqual(out.returncode, 0, out.stderr[-3000:])
        data = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertIsNone(data["session"])
        self.assertEqual(len(data["errors"]), 1)
        self.assertIn("wal open", data["errors"][0])


if __name__ == "__main__":
    unittest.main()
