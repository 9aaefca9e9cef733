#!/usr/bin/env python3
"""Self-tests of the benchmark's own logic.

    python3 perfbench/selftest.py

Checks, on synthetic driver records, that a perturbed fingerprint counts
as a failed run, that the median/geomean/quartile helpers match hand-computed
values, and that the report command prints every metric BENCHMARK.json
names with its unit. When the driver is already built, one more test runs
the real fig8_hpmmap workload against a perturbed reference.
"""
from __future__ import annotations

import copy
import json
import sys
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))
import report  # noqa: E402
import run as bench  # noqa: E402


def hpc_fingerprint(runtime):
    zero = {"small": 0, "large": 0, "merge_follower": 0, "invalid": 0}
    return {"runtime_seconds": runtime,
            "faults": {**zero, "small": 100, "large": 3},
            "fault_cycles": {**zero, "small": 2000, "large": 900},
            "thp_merges": 1, "hpmmap_spurious_faults": 0}


def serving_fingerprint(offered):
    return {"offered": offered, "completed": offered - 5, "shed_queue": 5,
            "shed_timeout": 0, "slo_violations": [7, 2], "exact_p50_us": 40.0,
            "exact_p99_us": 110.0, "exact_p999_us": 1000.0}


def fake_world(workload, w, manager):
    if workload == "serve_80k":
        fp = serving_fingerprint(1000 + w)
    else:
        fp = hpc_fingerprint(6.0 + w)
    world = {"world": w, "manager": manager, "sim_s": 1.5, "events": 500,
             "image_bytes": 9_000_000 if workload == "serve_80k" else 0,
             "faults": fp.get("faults", {"small": 10, "large": 1, "merge_follower": 0,
                                         "invalid": 0}),
             "fault_cycles": {"small": 100, "large": 50, "merge_follower": 0, "invalid": 0},
             "fingerprint": fp, "audit_checks": 10, "audit_violations": 0,
             "trace_retained": 8, "trace_dropped": 2,
             "registry": {"buddy.split_steps": 4, "hpmmap.bytes_backed": 4096}}
    if workload == "serve_80k":
        world["serving"] = {"offered": 1000, "completed": 995, "shed": 5,
                            "slab_allocated": 10, "slab_recycled": 9, "cache_hits": 3,
                            "cache_misses": 1, "exact_p99_us": 110.0, "p2_p99_us": 1290.0}
    return world


def fake_record(workload, mode, index=1):
    """One iteration of the shape perfbench_driver prints."""
    managers = bench.WORKLOADS[workload][mode]
    pass_names = ["untraced"] + (["straight", "traced"] if mode == "traced" else [])
    spans = [{"name": "perfbench::iteration", "id": 1, "parent": 0, "world": 0,
              "start_ns": 0, "end_ns": 0}]
    t = 0
    passes = []

    def span(name, parent, world, dur):
        nonlocal t
        spans.append({"name": name, "id": len(spans) + 1, "parent": parent, "world": world,
                      "start_ns": t, "end_ns": t + dur})
        t += dur
        return spans[-1]

    serving = workload == "serve_80k"
    for p in pass_names:
        pass_span = span(p, 1, 0, 0)
        for w in range(len(managers)):
            if p == "straight":
                span("harness::run_server" if serving else "harness::run_scaling",
                     pass_span["id"], w + 1, 3_000_000)
                continue
            span("harness::capture_server" if serving else "harness::capture_scaling",
                 pass_span["id"], w + 1, 1_000_000)
            if serving:
                span("snapshot::save", pass_span["id"], w + 1, 200_000)
                span("snapshot::load", pass_span["id"], w + 1, 100_000)
            span("harness::run_server(image)" if serving else "harness::run_scaling(image)",
                 pass_span["id"], w + 1, 2_500_000)
        pass_span["end_ns"] = t + 1000
        t += 1000
        passes.append({"pass": p,
                       "worlds": [fake_world(workload, w, m) for w, m in enumerate(managers)]})
    spans[0]["end_ns"] = t + 1000
    return {"index": index, "passes": passes, "spans": spans, "ref_s": 0.5}


def references_for(workload, record):
    return {workload: {"42": {w["manager"]: w["fingerprint"]
                              for w in record["passes"][0]["worlds"]}}}


class FingerprintGate(unittest.TestCase):
    def test_matching_fingerprints_pass(self):
        for workload in bench.WORKLOADS:
            for mode in ("plain", "traced"):
                rec = fake_record(workload, mode)
                refs = references_for(workload, rec)
                attempted, failed, _ = bench.check(workload, 42, [(mode, rec)] * 2, refs)
                passes = 3 if mode == "traced" else 1
                self.assertEqual(attempted,
                                 2 * passes * len(bench.WORKLOADS[workload][mode]))
                self.assertEqual(failed, 0)

    def test_perturbed_fingerprint_fails(self):
        for workload in bench.WORKLOADS:
            rec = fake_record(workload, "plain")
            refs = references_for(workload, rec)
            bad = copy.deepcopy(rec)
            fp = bad["passes"][0]["worlds"][0]["fingerprint"]
            if "runtime_seconds" in fp:
                fp["runtime_seconds"] += 1e-9
            else:
                fp["exact_p99_us"] += 1e-9
            self.assertEqual(bench.check(workload, 42, [("plain", bad)], refs)[1], 1)
            # Without a stored reference, the iterations of one run must agree.
            self.assertEqual(
                bench.check(workload, 99, [("plain", rec), ("plain", bad)], refs)[1], 1)

    def test_traced_fingerprint_must_equal_untraced(self):
        rec = fake_record("fig8_thp", "traced")
        rec["passes"][2]["worlds"][0]["fingerprint"]["thp_merges"] += 1
        self.assertEqual(bench.check("fig8_thp", 99, [("traced", rec)], {})[1], 1)

    def test_audit_violation_fails(self):
        rec = fake_record("fig8_hpmmap", "traced")
        rec["passes"][2]["worlds"][0]["audit_violations"] = 1
        self.assertEqual(bench.check("fig8_hpmmap", 99, [("traced", rec)], {})[1], 1)

    def test_serving_accounting_must_add_up(self):
        rec = fake_record("serve_80k", "plain")
        rec["passes"][0]["worlds"][1]["fingerprint"]["completed"] -= 1
        self.assertEqual(bench.check("serve_80k", 99, [("plain", rec)], {})[1], 1)

    def test_crashed_iteration_fails_every_world(self):
        attempted, failed, _ = bench.check("serve_80k", 99, [("traced", None)], {})
        self.assertEqual((attempted, failed), (9, 9))
        # A driver error after one good iteration leaves a failed one behind.
        out = {"iterations": [fake_record("serve_80k", "plain", 0)], "error": "boom"}
        records = bench.iterations("plain", out)
        self.assertEqual(bench.check("serve_80k", 99, records, {})[:2], (4, 2))
        self.assertEqual(bench.iterations("plain", None), [("plain", None)])


class Statistics(unittest.TestCase):
    def test_median(self):
        self.assertEqual(bench.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(bench.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_geomean(self):
        self.assertAlmostEqual(bench.geomean([1.0, 4.0, 16.0]), 4.0)
        self.assertAlmostEqual(bench.geomean([2.0, 8.0]), 4.0)

    def test_end_to_end_takes_the_geomean_and_per_layer_the_median(self):
        units = {"x": "s"}
        values = [{"x": 1.0}, {"x": 2.0}, {"x": 32.0}]
        self.assertAlmostEqual(bench.summarise(values, units, 0)["x"]["value"], 4.0)
        self.assertEqual(bench.summarise(values, units, 1)["x"]["value"], 2.0)

    def test_quartiles(self):
        # Exclusive method: the p-quantile sits at rank (n + 1) p.
        # n = 10: ranks 2.75, 5.5, 8.25 -> 2.75, 5.5, 8.25.
        self.assertEqual(bench.quartiles([float(v) for v in range(10, 0, -1)]),
                         (2.75, 5.5, 8.25))
        # n = 5: ranks 1.5, 3, 4.5 over 1, 2, 4, 8, 16 -> 1.5, 4, 12.
        self.assertEqual(bench.quartiles([16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0))
        self.assertEqual(bench.quartiles([7.0]), (7.0, 7.0, 7.0))


class Report(unittest.TestCase):
    def test_every_benchmark_metric_is_printed_with_its_unit(self):
        spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
        for workload in bench.WORKLOADS:
            for kind, mode in (("end_to_end", "plain"), ("per_layer", "traced")):
                units = bench.units(kind)
                rec = fake_record(workload, mode)
                values = [bench.per_layer(rec) if mode == "traced"
                          else bench.end_to_end(rec, 200_000)]
                result = {"metrics": bench.summarise(values, units, mode == "traced")}
                quartiles = {n: bench.quartiles([v[n] for v in values]) for n in units}
                text = "\n".join(report.format_metrics(workload, kind, result, quartiles))
                for metric in spec[kind]:
                    with self.subTest(workload=workload, metric=metric["name"]):
                        line = next(l for l in text.splitlines()
                                    if l.split()[2] == metric["name"])
                        self.assertEqual(line.split()[4], metric["unit"])

    def test_host_time_is_scored_relative_to_the_reference(self):
        rec = fake_record("fig8_thp", "plain")
        base = bench.end_to_end(rec, 200_000)
        # The same iteration on a host half as fast: every span and the
        # reference take twice as long.
        slow = copy.deepcopy(rec)
        for s in slow["spans"]:
            s["start_ns"] *= 2
            s["end_ns"] *= 2
        slow["ref_s"] *= 2
        scaled = bench.end_to_end(slow, 200_000)
        self.assertAlmostEqual(scaled["wall_per_ref"], base["wall_per_ref"])
        self.assertAlmostEqual(scaled["sim_s_per_ref"], base["sim_s_per_ref"])
        self.assertAlmostEqual(scaled["setup_s"], 2 * base["setup_s"])
        self.assertAlmostEqual(base["wall_per_ref"],
                               bench.span_secs(rec["spans"][0]) / rec["ref_s"])

    def test_self_times_cover_the_pass(self):
        rec = fake_record("serve_80k", "plain")
        spans = bench.pass_spans(rec, "untraced")
        self_time = bench.self_secs(spans)
        self.assertAlmostEqual(sum(self_time.values()), bench.span_secs(spans[0]))
        self.assertAlmostEqual(self_time["harness.run"], 2 * 2.5e-3)  # THP, HPMMAP
        self.assertAlmostEqual(self_time["perfbench"], 1e-6)


@unittest.skipUnless((bench.build_dir() / "perfbench_driver").is_file(),
                     "driver not built (run perfbench/run.py once)")
class EndToEnd(unittest.TestCase):
    def test_perturbed_reference_fails_the_run(self):
        driver = bench.build_dir() / "perfbench_driver"
        refs = bench.load_references()
        self.assertIn("42", refs["fig8_hpmmap"])
        result, _ = bench.run("fig8_hpmmap", 42, 0, 0, driver)
        self.assertTrue(result["correct"])
        self.assertEqual(result["attempted"], 2)  # warm-up + one timed iteration
        refs["fig8_hpmmap"]["42"]["hpmmap"]["faults"]["small"] += 1
        with mock.patch.object(bench, "load_references", return_value=refs):
            result, _ = bench.run("fig8_hpmmap", 42, 0, 0, driver)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()
