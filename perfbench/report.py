#!/usr/bin/env python3
"""Print every benchmark metric by name, with its unit, for every workload.

    python3 perfbench/report.py [--seed 42] [--seconds 20] [--workload W ...]

For each workload this makes one untraced run (end-to-end metrics) and one
traced run (per-layer metrics, span file) through perfbench/run.py, then
prints the correctness tally, the raw host seconds behind the
reference-relative metrics, the provenance of the build, the span file
of each traced run, and the modelled fig8 THP/HPMMAP runtime ratio beside
the paper's. Exits 1 if any run was not correct.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

# Paper §IV-C: HPCCG under profile C at 32 ranks runs 12% faster with
# HPMMAP than with THP (EXPERIMENTS.md E6).
PAPER_FIG8_THP_OVER_HPMMAP = 1.12


def format_metrics(workload, kind, result, quartiles):
    """One line per metric: workload, kind, name, value (see
    run.summarise), unit, then the quartiles over the run's timed
    iterations."""
    return [f"{workload:<12} {kind:<10} {name:<34} {m['value']:>16.6g} {m['unit']:<6} "
            f"q1 {quartiles[name][0]:.6g} q3 {quartiles[name][2]:.6g}"
            for name, m in result["metrics"].items()]


def model_accuracy(reports):
    """Modelled fig8 THP/HPMMAP runtime ratio vs the paper's, for
    information only (simulated results are never scored)."""
    thp = reports.get("fig8_thp", {}).get("sim_runtime_s", {}).get("thp")
    hpmmap = reports.get("fig8_hpmmap", {}).get("sim_runtime_s", {}).get("hpmmap")
    if not thp or not hpmmap:
        return None
    ratio = thp / hpmmap
    return (f"model accuracy: fig8 HPCCG profile C 32 ranks THP/HPMMAP runtime "
            f"{thp:.4f}/{hpmmap:.4f} = {ratio:.3f} vs paper {PAPER_FIG8_THP_OVER_HPMMAP:.2f} "
            f"(model error {ratio / PAPER_FIG8_THP_OVER_HPMMAP - 1:+.1%})")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--workload", action="append", choices=sorted(bench.WORKLOADS))
    args = ap.parse_args(argv)
    workloads = args.workload or list(bench.WORKLOADS)
    try:
        driver = bench.build()
    except bench.BenchError as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 2

    lines, spans, reports = [], [], {}
    ok = True
    for workload in workloads:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result, report = bench.run(workload, args.seed, args.seconds, trace, driver)
            ok = ok and result["correct"]
            lines += format_metrics(workload, kind, result, report["quartiles"])
            lines.append(f"{workload:<12} {kind:<10} {'timed_iterations':<34} "
                         f"{report['timed_iterations']:>16d} count")
            lines.append(f"{workload:<12} {kind:<10} {'runs_failed':<34} "
                         f"{result['failed']:>16d} of {result['attempted']} attempted"
                         f"{'' if result['correct'] else '  NOT CORRECT'}")
            if trace:
                spans.append(f"span file ({workload}): {report['spans_file']}")
            else:
                reports[workload] = report
                # Raw host time, unscored: it moves with the host's load.
                host = report["host_seconds"]
                lines += format_metrics(workload, "host", {"metrics": {
                    name: {"value": q[1], "unit": bench.HOST_UNITS[name]}
                    for name, q in host.items()}}, host)
    provenance = next(iter(reports.values()))["provenance"] if reports else {}
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(f"seed {args.seed}, {args.seconds:g} s per run")
    print("\n".join(lines))
    print("\n".join(spans))
    accuracy = model_accuracy(reports)
    if accuracy:
        print(accuracy)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
