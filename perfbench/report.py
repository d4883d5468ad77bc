"""Run every workload once and print its end-to-end metrics by name and unit.

Usage, from the root of a checkout:

    python3 perfbench/report.py [--seed 1] [--seconds 25] [--trace]

For each workload this prints wall_s (median, maximum and operation count),
setup_s, peak_rss_mb, failed_frac and the workload's throughput. With
--trace it also makes the traced run and prints the tracing overhead, the
share of traced time per layer and the sum of self times against the traced
wall time. Exits 1 if any run is incorrect.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("featurize", "train", "sweep", "gradcheck")


def _run(workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [
            sys.executable,
            str(BENCH_DIR / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        check=False,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run failed with exit code {proc.returncode}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    from spans import LAYERS

    all_correct = True
    for workload in WORKLOADS:
        detail, result = _run(workload, args.seed, args.seconds, 0)
        all_correct &= result["correct"]
        wall = detail["operation_wall_s"]
        print(f"{workload}  (seed {args.seed}, jobs {detail['jobs']}, correct {result['correct']})")
        print(f"  wall_s          {wall['median']:.4f} s  (max {wall['max']:.4f} s, n {wall['count']})")
        for name in ("setup_s", "peak_rss_mb"):
            metric = result["metrics"][name]
            print(f"  {name:<15} {metric['value']:.4f} {metric['unit']}")
        for name, metric in detail.items():
            if isinstance(metric, dict) and set(metric) == {"value", "unit"}:
                print(f"  {name:<15} {metric['value']:.4f} {metric['unit']}")
        if args.trace:
            _, traced = _run(workload, args.seed, args.seconds, 1)
            all_correct &= traced["correct"]
            layers = {k: v["value"] for k, v in traced["metrics"].items()}
            wall_traced = layers["trace.wall_s"]
            print(f"  trace.overhead_s {layers['trace.overhead_s']:.4f} s"
                  f"  (traced {wall_traced:.4f} s, untraced {layers['trace.untraced_wall_s']:.4f} s)")
            print(f"  self_s sum / traced wall_s  {layers['trace.self_sum_s'] / wall_traced:.3f}")
            shares = ", ".join(
                f"{layer} {layers[layer + '.self_s'] / wall_traced:.1%}" for layer in LAYERS
            )
            print(f"  layer shares    {shares}")
    print(f"machine: {json.dumps(detail['machine'])}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
