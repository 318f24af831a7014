"""Perf-regression harness: run the inner-loop microbenchmarks,
persist ``BENCH_perf.json``, optionally gate on a committed baseline.

Usage::

    PYTHONPATH=src python tools/perf_bench.py             # full run
    PYTHONPATH=src python tools/perf_bench.py --quick     # CI smoke
    PYTHONPATH=src python tools/perf_bench.py --compare   # fail on >15%
                                                          # regression

``--compare`` reads the baseline from the output path (default
``BENCH_perf.json`` at the repo root), re-runs the suite, and exits
non-zero if any benchmark's rate dropped more than ``--threshold``
(fraction, default 0.15) below the baseline; the baseline file is only
overwritten when the comparison passes (or is not requested).

The benchmarks live in ``benchmarks/perf/microbench.py``; the JSON
schema is documented in ``docs/telemetry.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, REPO_ROOT)

from benchmarks.perf.microbench import run_benches  # noqa: E402


def derive(benches: dict) -> dict:
    """Cross-bench derived metrics (currently the parallel speedup)."""
    derived = {}
    serial = benches.get("run_serial", {}).get("rate")
    workers2 = benches.get("run_workers2", {}).get("rate")
    if serial and workers2:
        derived["run_workers2_speedup"] = round(workers2 / serial, 4)
    return derived


def compare(baseline: dict, fresh: dict, threshold: float):
    """Yield (bench, baseline rate, fresh rate, ratio) for regressions.

    Derived metrics are gated exactly like raw rates, so the parallel
    path silently regressing relative to serial (the failure mode that
    motivated ``run_workers2_speedup``) fails the same way a slow
    kernel does.
    """
    base_benches = baseline.get("benches", {})
    for name, entry in fresh["benches"].items():
        base = base_benches.get(name)
        if base is None or not base.get("rate"):
            continue
        ratio = entry["rate"] / base["rate"]
        if ratio < 1.0 - threshold:
            yield name, base["rate"], entry["rate"], ratio
    base_derived = baseline.get("derived", {})
    for name, value in fresh.get("derived", {}).items():
        base = base_derived.get(name)
        if not base:
            continue
        ratio = value / base
        if ratio < 1.0 - threshold:
            yield name, base, value, ratio


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Inner-loop perf microbenchmarks with a JSON "
                    "baseline gate.")
    parser.add_argument("--circuit", default="intdiv9",
                        help="Table-1 circuit to benchmark on")
    parser.add_argument("--quick", action="store_true",
                        help="small iteration counts (CI smoke)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="repetitions per benchmark, best-of")
    parser.add_argument("--skip-workers", action="store_true",
                        help="skip the workers=2 end-to-end benchmark")
    parser.add_argument("--compare", action="store_true",
                        help="fail if any rate regresses past the "
                             "threshold vs the existing output file")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="allowed fractional regression (default "
                             "0.15 = 15%%)")
    parser.add_argument("--min-workers2-speedup", type=float, default=None,
                        help="fail unless run_workers2 achieves at least "
                             "this fraction of the serial rate (absolute "
                             "bound, independent of the baseline file)")
    parser.add_argument("--output",
                        default=os.path.join(REPO_ROOT, "BENCH_perf.json"),
                        help="result path (default BENCH_perf.json at "
                             "the repo root)")
    args = parser.parse_args(argv)

    results = {
        "schema": 1,
        "circuit": args.circuit,
        "quick": args.quick,
        "repeats": args.repeats,
        "python": platform.python_version(),
        # Host metadata so recorded rates are interpretable: a baseline
        # measured on one box must not silently gate a different one.
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "benches": run_benches(circuit=args.circuit, quick=args.quick,
                               repeats=args.repeats,
                               skip_workers=args.skip_workers),
    }
    results["derived"] = derive(results["benches"])

    width = max(len(name) for name in results["benches"])
    for name, entry in results["benches"].items():
        print(f"{name:<{width}}  {entry['rate']:>10.0f} /s  "
              f"({entry['iterations']} iterations)")
    for name, value in results["derived"].items():
        print(f"{name}: {value:.2f}x")

    speedup = results["derived"].get("run_workers2_speedup")
    if args.min_workers2_speedup is not None:
        if speedup is None:
            print("--min-workers2-speedup: need both run_serial and "
                  "run_workers2 (don't pass --skip-workers)",
                  file=sys.stderr)
            return 2
        if speedup < args.min_workers2_speedup:
            print(f"FAIL: run_workers2_speedup {speedup:.2f}x below "
                  f"the required {args.min_workers2_speedup:.2f}x",
                  file=sys.stderr)
            return 2

    if args.compare:
        if not os.path.exists(args.output):
            print(f"--compare: no baseline at {args.output}",
                  file=sys.stderr)
            return 2
        with open(args.output, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        regressions = list(compare(baseline, results, args.threshold))
        if regressions:
            print(f"\nFAIL: regression beyond "
                  f"{args.threshold:.0%} vs {args.output}:",
                  file=sys.stderr)
            for name, base, fresh_rate, ratio in regressions:
                print(f"  {name}: {base:.0f} -> {fresh_rate:.0f} /s "
                      f"({ratio:.2f}x)", file=sys.stderr)
            return 2
        print(f"\ncompare OK: no bench regressed beyond "
              f"{args.threshold:.0%} of {args.output}")

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
