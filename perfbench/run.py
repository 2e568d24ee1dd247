"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload read_large --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the timed pass and prints the end-to-end metrics;
``--trace 1`` runs the traced pass and prints the per-layer metrics.
``--seconds`` sets the op count of the measured stream (each workload's
nominal ops per second times it), so runs of one seed and length always
do the same work.
Each metric is printed by name with its unit and sample count; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run whose correctness gate
finds a problem names it on standard error and exits 1.

The program under test is imported from ``src/`` next to this
directory; without it the run fails before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench.bench import timed_pass, traced_pass  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def spans_path(workload: str) -> str:
    """Where the traced pass writes its spans (ignored by git)."""
    out = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, f"spans-{workload}.json")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload]
    if args.trace:
        result = traced_pass(workload, args.seed, args.seconds, spans_path=spans_path(workload.name))
    else:
        result = timed_pass(workload, args.seed, args.seconds)

    kind = "traced" if result.traced else "timed"
    print(f"# {workload.name} seed={args.seed} pass={kind} attempted={result.attempted} failed={result.failed}")
    print(f"# failed_op_frac {result.failed / max(1, result.attempted):.6f}")
    if not result.traced:
        print(f"# times scaled to the reference speed by {result.calibrations} calibration slices")
    for name, metric in result.metrics.items():
        raw = "" if metric.raw is None else f" raw={metric.raw:.6g}"
        print(f"{name:48s} {metric.value:14.6g} {metric.unit:14s} n={metric.samples}{raw}")
    if result.layer_self_us_per_op:
        print("# self time by layer (us/op): " + ", ".join(
            f"{layer}={value:.2f}" for layer, value in result.layer_self_us_per_op.items()
        ))
    for note in result.notes:
        print(f"# note: {note}")
    for problem in result.problems:
        print(f"correctness: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": metric.value, "unit": metric.unit}
            for name, metric in result.metrics.items()
        },
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
