"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 -m unittest discover -s perfbench/tests

The service test builds the binaries first (release, offline).
"""

import json
import os
import shutil
import sys
import unittest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import spans as sp  # noqa: E402

PER_LAYER = [
    "workload.gen_s", "workload.gen_insts_per_s", "workload.streams_distinct",
    "workload.stream_reuse", "workload.trace_read_s",
    "pipeline.new_s", "pipeline.loop_s", "pipeline.cycles_per_s",
    "pipeline.single-1c.cycles_per_s", "pipeline.single-2c-full.cycles_per_s",
    "pipeline.rfc.cycles_per_s", "pipeline.replicated.cycles_per_s",
    "pipeline.onelevel.cycles_per_s",
    "core.read_port_stalls", "core.upper_miss_stalls", "core.demand_transfers",
    "core.prefetch_transfers", "mem.dcache_hit_rate", "frontend.mispredict_rate",
    "pipeline.stall_window_full", "pipeline.stall_rob_full",
    "scenario.plan_s", "scenario.assemble_s", "scenario.render_s", "scenario.runs_planned",
    "scenario.specs_distinct", "scenario.useful_ratio",
    "sweep.parse_s",
    "executor.run_s.p50", "executor.run_s.p90", "executor.busy_frac",
    "codec.encode_s", "codec.decode_s", "codec.bytes_per_record", "cache.store_s",
    "cache.lookup_s",
    "service.submit_s", "service.complete_s", "service.fetch_s", "service.releases",
    "transport.overhead_s", "trace.overhead_s",
]
END_TO_END = ["wall_s", "insts_per_s", "setup_s", "cpu_s", "peak_rss_mb", "sim_cycles", "ok_frac"]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def span(id, parent, start, end, name="x"):
    return {"id": id, "parent": parent, "name": name, "run": 0, "start": start, "end": end}


class MetricNames(unittest.TestCase):
    def test_every_name_follows_the_grammar(self):
        s = spec()
        names = [w["name"] for w in s["workloads"]] + [
            m["name"] for m in s["end_to_end"] + s["per_layer"]]
        for name in names:
            self.assertTrue(sp.valid_name(name), name)
        self.assertEqual(len(names), len(set(names)), "names are used once")

    def test_the_grammar_rejects_other_characters(self):
        for bad in ["", "a b", "a/b", "p50%", ".hidden", "x" * 65, "é"]:
            self.assertFalse(sp.valid_name(bad), bad)


class SelfTime(unittest.TestCase):
    def test_overlapping_children_are_subtracted_once(self):
        # Two worker threads: children [10, 60] and [40, 90] overlap on
        # [40, 60], so the parent's self time is 100 - 80, not 100 - 100.
        spans = [
            span(1, 0, 0, 100, "campaign"),
            span(2, 1, 10, 60, "run"),
            span(3, 1, 40, 90, "run"),
            span(4, 2, 20, 30, "loop"),
        ]
        t = sp.self_times(spans)
        self.assertAlmostEqual(t["campaign"] * 1e9, 20)
        self.assertAlmostEqual(t["run"] * 1e9, 40 + 50)
        self.assertAlmostEqual(t["loop"] * 1e9, 10)

    def test_children_are_clipped_to_their_parent(self):
        t = sp.self_times([span(1, 0, 0, 10, "p"), span(2, 1, 5, 20, "c")])
        self.assertAlmostEqual(t["p"] * 1e9, 5)

    def test_nested_and_disjoint_intervals(self):
        self.assertEqual(sp.union_ns([(0, 10), (2, 3), (20, 25), (24, 30)]), 20)
        self.assertEqual(sp.union_ns([]), 0)


class BenchmarkJson(unittest.TestCase):
    def test_shape(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), "rb") as f:
            self.assertLessEqual(len(f.read()), 64 * 1024)
        s = spec()
        self.assertEqual(set(s), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        self.assertEqual(s["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(s["paths"], ["perfbench"])
        self.assertIsInstance(s["run_seconds"], int)
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        self.assertEqual([w["name"] for w in s["workloads"]], list(run.WORKLOADS))
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])
        self.assertEqual([m["name"] for m in s["end_to_end"]], END_TO_END)
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        setup = next(m for m in s["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in s["end_to_end"]))
        self.assertEqual([m["name"] for m in s["per_layer"]], PER_LAYER)
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertIn(m["better"], ("higher", "lower"))
            self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})


class ServiceFailure(unittest.TestCase):
    def test_a_worker_killed_by_the_known_bad_spec_is_counted_not_fatal(self):
        # `read_ports: 1` deadlocks on the first store and trips the Cpu::run
        # watchdog, so each worker that leases it dies.
        bad = {"name": "known-bad", "workloads": ["li"], "rf": [{"single": {"read_ports": 1}}],
               "insts": 2000, "warmup": 0, "seed": 42}
        bins = run.build(ROOT)
        workdir = os.path.join(ROOT, ".bench_runs", f"test-{os.getpid()}")
        os.makedirs(workdir, exist_ok=True)
        try:
            r, values, _ = run.measure(ROOT, bins, "service-sweep", 42, 1, 0, workdir, sweep=bad)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        self.assertGreater(r["attempted"], 0)
        self.assertEqual(r["failed"], r["attempted"])
        for name in END_TO_END:
            self.assertIn(name, values)
        self.assertEqual(values["ok_frac"][0], 0.0)


if __name__ == "__main__":
    unittest.main()
