#!/usr/bin/env python3
"""End-to-end benchmark of the simulator: one workload, one seed, one run.

    python3 perfbench/run.py --workload fig8_thp --seed 42 --seconds 20 --trace 0

Builds the simulator and perfbench/driver.cpp from source (CMake, into
$CARGO_TARGET_DIR or .bench_build). The driver then repeats iterations of
the workload in one process: a warm-up, then more until --seconds have
passed. The last stdout line is one JSON object {"correct", "attempted",
"failed", "metrics"}.

--trace 0 reports the end-to-end metrics (geometric means over the timed
iterations) with every simulator observer off. Host time is scored as a
ratio to a fixed host reference that the driver runs on the same CPU
around each iteration, which cancels most of a shared host's drift; the
raw seconds are kept in the report. --trace 1 runs traced iterations
instead (untraced pass, straight runs, then every trace category +
spans + telemetry + audit) and reports the per-layer metrics; its span
file is written to <build>/out/spans-<workload>-seed<N>.json.

Every world measured, warm-up included, is one attempt. It fails if the
driver throws or dies, if its simulated fingerprint differs from the
reference stored in references.json for this seed, from the run's first
iteration, or (traced) from the untraced pass, if the serving accounting
does not add up, or if the end-of-run audit reports a violation.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCES = BENCH_DIR / "references.json"

# Workload -> driver mode -> managers, one world each, in driver order.
# serve_80k scores THP and HPMMAP only: whether the HugeTLBfs world's
# service lands in the pool depends on the seed, which swings its run
# time ~8x between seeds. Its traced iteration still measures that world.
WORKLOADS = {
    "fig8_thp": {"plain": ["thp"], "traced": ["thp"]},
    "fig8_hpmmap": {"plain": ["hpmmap"], "traced": ["hpmmap"]},
    "serve_80k": {"plain": ["thp", "hpmmap"], "traced": ["thp", "hugetlbfs", "hpmmap"]},
}
SERVING_MANAGERS = WORKLOADS["serve_80k"]["traced"]

# The driver process is killed after this many seconds (a run must end
# within 180 s).
DEADLINE_S = 170.0

# Registry counters of the traced pass reported as they are, summed over
# worlds (trace::metrics()).
REGISTRY_COUNTERS = [
    "buddy.split_steps", "buddy.merge_steps", "buddy.alloc_failed",
    "mm.direct_reclaim", "mm.kswapd_wakeups", "khugepaged.merges_completed",
    "hugetlb.pages_served", "hugetlb.pool_exhausted", "hpmmap.bytes_backed",
]

# Benchmark span name -> the layer its self time is charged to.
SPAN_LAYER = {
    "perfbench::iteration": "perfbench",
    "untraced": "perfbench",
    "straight": "perfbench",
    "traced": "perfbench",
    "harness::capture_scaling": "harness.capture",
    "harness::capture_server": "harness.capture",
    "harness::run_scaling(image)": "harness.run",
    "harness::run_server(image)": "harness.run",
    "harness::run_scaling": "harness.straight",
    "harness::run_server": "harness.straight",
    "snapshot::save": "snapshot.save",
    "snapshot::load": "snapshot.load",
}


class BenchError(Exception):
    """The benchmark cannot run here (no sources, build failure)."""


# --- statistics ---------------------------------------------------------------

def median(values):
    return statistics.median(values)


def geomean(values):
    return statistics.geometric_mean(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them; a single
    value is its own quartiles."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# --- build --------------------------------------------------------------------

def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configure (once) and build the driver; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"simulator sources not found under {ROOT}")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench_driver",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    return out / "perfbench_driver"


def source_digest():
    """sha256 over the simulator's build inputs, for provenance where no
    git metadata exists."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted(
        p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*")
        if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False, timeout=10)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


# --- driver iterations ----------------------------------------------------------

def run_driver(driver, workload, seed, mode, seconds, work_dir, spans_out):
    """One driver process; None when it timed out, died or printed no
    result."""
    cmd = [str(driver), "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--seconds", str(seconds), "--work-dir", str(work_dir)]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=DEADLINE_S,
                              check=False)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: {workload} driver timed out\n")
        return None
    try:
        out = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write(f"perfbench: driver exited {done.returncode} without a result\n"
                         + done.stderr[-2000:])
        return None
    if out["error"]:
        sys.stderr.write(f"perfbench: driver error: {out['error']}\n")
    return out


def iterations(mode, out):
    """(mode, iteration) records of one driver process; a trailing None
    stands for the iteration that failed, if any did."""
    records = [(mode, it) for it in (out["iterations"] if out else [])]
    if out is None or out["error"]:
        records.append((mode, None))
    return records


def load_references():
    return json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}


def check(workload, seed, records, references):
    """Count attempted and failed world measurements over the iterations
    of one run; returns (attempted, failed, problems)."""
    expected_passes = {"plain": ["untraced"],
                       "traced": ["untraced", "straight", "traced"]}
    reference = references.get(workload, {}).get(str(seed), {})
    first = {}  # manager -> fingerprint of its first untraced measurement
    attempted = failed = 0
    problems = []

    def fail(msg):
        nonlocal failed
        failed += 1
        problems.append(msg)

    for it, (mode, rec) in enumerate(records):
        passes = {} if rec is None else {
            p["pass"]: {w["manager"]: w for w in p["worlds"]} for p in rec["passes"]}
        untraced = passes.get("untraced", {})
        for pass_name in expected_passes[mode]:
            for manager in WORKLOADS[workload][mode]:
                attempted += 1
                where = f"iteration {it} {pass_name} {manager}"
                world = passes.get(pass_name, {}).get(manager)
                if world is None:
                    fail(f"{where}: no result (driver error or crash)")
                    continue
                fp = world["fingerprint"]
                if manager in reference and fp != reference[manager]:
                    fail(f"{where}: fingerprint differs from the seed-{seed} reference")
                elif pass_name != "untraced" and \
                        fp != untraced.get(manager, {}).get("fingerprint"):
                    fail(f"{where}: fingerprint differs from the untraced pass")
                elif fp != first.setdefault(manager, fp):
                    fail(f"{where}: fingerprint differs from the run's first iteration")
                elif "offered" in fp and fp["offered"] != (
                        fp["completed"] + fp["shed_queue"] + fp["shed_timeout"]):
                    fail(f"{where}: offered != completed + shed")
                elif world["audit_violations"] != 0:
                    fail(f"{where}: audit reported {world['audit_violations']} violations")
    return attempted, failed, problems


# --- metrics ------------------------------------------------------------------

def span_secs(span):
    return (span["end_ns"] - span["start_ns"]) / 1e9


def pass_spans(record, pass_name):
    """Spans under the named pass span (the pass span itself included)."""
    spans = record["spans"]
    root = next(s for s in spans if s["name"] == pass_name)
    ids = {root["id"]}
    out = [root]
    for s in spans:  # parents precede children
        if s["parent"] in ids:
            ids.add(s["id"])
            out.append(s)
    return out


def layer_secs(spans, layer):
    return sum(span_secs(s) for s in spans if SPAN_LAYER.get(s["name"]) == layer)


def self_secs(spans):
    """Self time per layer: a span's duration minus what its children
    cover, summed by layer."""
    child = {}
    for s in spans:
        child[s["parent"]] = child.get(s["parent"], 0.0) + span_secs(s)
    out = {}
    for s in spans:
        layer = SPAN_LAYER[s["name"]]
        out[layer] = out.get(layer, 0.0) + span_secs(s) - child.get(s["id"], 0.0)
    return out


HOST_UNITS = {"wall_s": "s", "ref_s": "s", "sim_s_per_wall_s": "s/s"}


def host_seconds(record):
    """Raw host time of one plain iteration: the iteration, the host
    reference around it, and the measurement's simulated-per-wall speed."""
    spans = pass_spans(record, "untraced")
    root = next(s for s in record["spans"] if s["name"] == "perfbench::iteration")
    return {
        "wall_s": span_secs(root),
        "ref_s": record["ref_s"],
        "sim_s_per_wall_s": sum(w["sim_s"] for w in record["passes"][0]["worlds"])
                            / layer_secs(spans, "harness.run"),
    }


def end_to_end(record, peak_rss_kb):
    """End-to-end metrics of one plain iteration. Host time is scored
    relative to the host reference that brackets the iteration on its
    CPU; raw seconds go to the report only."""
    host = host_seconds(record)
    return {
        "wall_per_ref": host["wall_s"] / host["ref_s"],
        "setup_s": layer_secs(pass_spans(record, "untraced"), "harness.capture"),
        "sim_s_per_ref": host["sim_s_per_wall_s"] * host["ref_s"],
        "peak_rss_mb": peak_rss_kb * 1024 / 1e6,
    }


def per_layer(record):
    """Per-layer metrics of one traced iteration."""
    passes = {p["pass"]: p["worlds"] for p in record["passes"]}
    plain, traced = passes["untraced"], passes["traced"]
    spans = pass_spans(record, "untraced")
    straight_spans = pass_spans(record, "straight")
    traced_spans = pass_spans(record, "traced")
    setup = layer_secs(spans, "harness.capture")
    measure = layer_secs(spans, "harness.run")
    events = sum(w["events"] for w in plain)
    faults = {k: sum(w["faults"][k] for w in plain)
              for k in ("small", "large", "merge_follower", "invalid")}
    serving = [w["serving"] for w in plain if "serving" in w]

    def total(key):
        return sum(s[key] for s in serving)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "harness.setup_s_per_world": setup / len(plain),
        "harness.worlds": len(plain),
        "snapshot.save_s": layer_secs(spans, "snapshot.save"),
        "snapshot.load_s": layer_secs(spans, "snapshot.load"),
        "snapshot.image_mb": sum(w["image_bytes"] for w in plain) / 1e6,
        "snapshot.resume_overhead_s":
            measure - (layer_secs(straight_spans, "harness.straight") - setup),
        "sim.events": events,
        "sim.wall_ns_per_event": ratio(measure * 1e9, events),
        "linux_mm.faults.small": faults["small"],
        "linux_mm.faults.large": faults["large"],
        "linux_mm.faults.merge_follower": faults["merge_follower"],
        "linux_mm.fault_sim_cycles": sum(sum(w["fault_cycles"].values()) for w in plain),
        "linux_mm.wall_ns_per_fault": ratio(measure * 1e9, sum(faults.values())),
    }
    for name in REGISTRY_COUNTERS:
        m[name] = sum(w["registry"].get(name, 0) for w in traced)
    m["core.spurious_faults"] = sum(
        w["fingerprint"].get("hpmmap_spurious_faults", 0) for w in plain)
    m["audit.checks"] = sum(w["audit_checks"] for w in traced)
    m["audit.violations"] = sum(w["audit_violations"] for w in traced)
    m["serving.offered"] = total("offered")
    m["serving.completed"] = total("completed")
    m["serving.shed"] = total("shed")
    m["serving.slab_recycle_ratio"] = ratio(total("slab_recycled"), total("slab_allocated"))
    m["serving.cache_hit_ratio"] = ratio(
        total("cache_hits"), total("cache_hits") + total("cache_misses"))
    by_manager = {w["manager"]: w["serving"] for w in plain if "serving" in w}
    for manager in SERVING_MANAGERS:
        m[f"serving.exact_p99_us.{manager}"] = \
            by_manager[manager]["exact_p99_us"] if manager in by_manager else 0.0
    # Tails are reported from the exact order statistics only; this ratio
    # prices the streaming P2 estimate against them (worst manager).
    m["serving.p2_over_exact_p99"] = max(
        (ratio(s["p2_p99_us"], s["exact_p99_us"]) for s in serving), default=0.0)
    m["trace.overhead_ratio"] = ratio(layer_secs(traced_spans, "harness.run"), measure)
    m["trace.events_recorded"] = sum(w["trace_retained"] + w["trace_dropped"] for w in traced)
    m["trace.dropped"] = sum(w["trace_dropped"] for w in traced)
    self_time = self_secs(spans)
    for layer in ("perfbench", "harness.capture", "harness.run", "snapshot.save",
                  "snapshot.load"):
        m[f"self_s.{layer}"] = self_time.get(layer, 0.0)
    return m


def units(kind):
    """Metric name -> unit for "end_to_end" or "per_layer", as
    BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def summarise(per_iteration, declared, trace):
    """One value per metric over the run's timed iterations. End-to-end
    metrics take the geometric mean: they are positive, two are ratios,
    and fig8_thp times only 6-8 iterations a run, where a mean varies less
    between runs than a median. Per-layer metrics, which can be 0 or
    negative, take the median."""
    agg = median if trace else geomean
    return {name: {"value": agg([m[name] for m in per_iteration]), "unit": unit}
            for name, unit in declared.items()}


# --- one run ------------------------------------------------------------------

def run(workload, seed, seconds, trace, driver):
    """Measure one workload; returns (result line, report)."""
    out_dir = build_dir() / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    mode = "traced" if trace else "plain"
    spans_out = out_dir / f"spans-{workload}-seed{seed}.json" if trace else None
    out = run_driver(driver, workload, seed, mode, seconds, out_dir, spans_out)
    records = iterations(mode, out)
    attempted, failed, problems = check(workload, seed, records, load_references())
    for msg in problems:
        sys.stderr.write(f"perfbench: FAILED {msg}\n")
    timed = [it for _, it in records if it is not None and it["index"] > 0]
    declared = units("per_layer" if trace else "end_to_end")
    per_iteration = [per_layer(it) if trace else end_to_end(it, out["peak_rss_kb"])
                     for it in timed]
    metrics = summarise(per_iteration, declared, trace) if timed else {}
    result = {"correct": failed == 0 and bool(timed), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    report = {
        "workload": workload, "seed": seed, "trace": trace, "timed_iterations": len(timed),
        "provenance": {**(out["provenance"] if out else {}),
                       "commit": commit(), "source_digest": source_digest()},
        "sim_runtime_s": {w["manager"]: w["sim_s"]
                          for w in (timed[0]["passes"][0]["worlds"] if timed else [])},
        "spans_file": str(spans_out) if spans_out else None,
        "problems": problems,
        "quartiles": {name: quartiles([m[name] for m in per_iteration])
                      for name in declared} if timed else {},
        "host_seconds": {name: quartiles([host_seconds(it)[name] for it in timed])
                         for name in HOST_UNITS} if timed and not trace else {},
        "per_iteration": per_iteration,
        "result": result,
    }
    (out_dir / f"report-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    return result, report


def record_reference(workload, seed, driver):
    """Store the fingerprints of every world of a traced run as the
    reference for (workload, seed). Only for a deliberate change of the
    model."""
    out_dir = build_dir() / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    records = iterations("traced", run_driver(driver, workload, seed, "traced", 0, out_dir,
                                              None))
    attempted, failed, problems = check(workload, seed, records, {})
    if failed:
        raise BenchError("reference iterations failed: " + "; ".join(problems))
    refs = load_references()
    refs.setdefault(workload, {})[str(seed)] = \
        {w["manager"]: w["fingerprint"] for w in records[0][1]["passes"][0]["worlds"]}
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="store this seed's fingerprints in references.json and exit")
    args = ap.parse_args(argv)
    try:
        driver = build()
        if args.record_reference:
            record_reference(args.workload, args.seed, driver)
            return 0
        result, report = run(args.workload, args.seed, args.seconds, args.trace, driver)
    except BenchError as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 2
    print("perfbench provenance: " + json.dumps(report["provenance"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
