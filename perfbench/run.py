"""gazeaffect benchmark: one workload, timed for a fixed number of seconds.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload featurize --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --write-reference

A run generates its inputs from --seed with `generate_synthetic_corpus` (the
set-up), checks one small fixed-seed case against `reference.json` (stored
from the seed code; it also warms caches), then repeats the workload's
operation until --seconds have passed, each time on a fresh copy of the
inputs. Every operation on the same inputs must give the same output.

--trace 0 reports the end-to-end metrics; the operation runs as a user would
run it. --trace 1 runs every operation at jobs=1, wraps the program's public
functions (see spans.py) on two operations of every three, and reports the
per-layer metrics plus the tracing overhead against the untraced third.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The line before it holds the detail: machine record, median, maximum and
count of the operation times, the workload's throughput and failed fraction.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
REFERENCE_SEED = 20180517
SETUPS = 3  # set-ups per run; setup_s is their median
SWEEP_JOBS = 2


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("featurize", "train", "sweep", "gradcheck"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="store the reference outputs of the current code in reference.json",
    )
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def machine_record(np) -> dict:
    """nproc, CPU, Python, numpy and BLAS record of this process."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it exports one."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


@contextlib.contextmanager
def _capture_histories(experiments):
    """Collects each trained model's (train, val) SSE history, in call order."""
    original = experiments.train_network
    histories: list = []

    def train_network(*args, **kwargs):
        model = original(*args, **kwargs)
        histories.append([list(epoch) for epoch in model.history])
        return model

    experiments.train_network = train_network
    try:
        yield histories
    finally:
        experiments.train_network = original


def _reference_case(workload, experiments, work: Path, jobs: int) -> tuple[dict, int]:
    """Run the fixed-seed case; returns (summary at jobs=1, operations)."""
    inputs = work / "reference"
    workload.setup(REFERENCE_SEED, workload.reference_sizes, inputs)
    runs = []
    for run_jobs in sorted({1, jobs}):
        out_dir = work / f"reference_out{run_jobs}"
        out_dir.mkdir()
        with _capture_histories(experiments) as histories:
            output = workload.run(
                inputs, out_dir, REFERENCE_SEED, workload.reference_sizes, run_jobs
            )
        runs.append((output, histories))
    # Worker processes cannot report histories; the jobs=1 ones stand for all.
    histories = runs[0][1]
    summaries = [workload.summary(output, histories) for output, _ in runs]
    return summaries, workload.operations(runs[0][0])


def _write_reference() -> int:
    from gazeaffect import experiments

    from workloads import WORKLOADS

    stored = {}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_work_") as tmp:
        for name, workload in WORKLOADS.items():
            work = Path(tmp) / name
            work.mkdir()
            summaries, _ = _reference_case(workload, experiments, work, 1)
            stored[name] = summaries[0]
    REFERENCE.write_text(json.dumps(stored, indent=1) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")
    return 0


def _median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    args = _parse_args(argv)
    # One BLAS thread per process keeps processes x threads <= nproc.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    source = ROOT / "src" / "gazeaffect"
    if not (source / "__init__.py").is_file():
        print(f"perfbench: no program source at {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source.parent))
    start = time.perf_counter()
    import numpy as np

    from gazeaffect import experiments
    from spans import PER_LAYER, Tracer
    from workloads import WORKLOADS

    import_s = time.perf_counter() - start
    if args.write_reference:
        return _write_reference()
    if not REFERENCE.is_file():
        print(f"perfbench: missing {REFERENCE}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    machine = machine_record(np)
    jobs = 1 if args.trace or args.workload != "sweep" else min(SWEEP_JOBS, machine["nproc"])
    sizes = workload.sizes
    tracer = Tracer() if args.trace else None
    problems: list[str] = []
    attempted = failed = 0

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        # Set-up: generate the inputs SETUPS times, each into a fresh directory.
        setup_times, setup_layers = [], []
        for k in range(SETUPS):
            if tracer:
                tracer.reset()
                tracer.install()
            t0 = time.perf_counter()
            workload.setup(args.seed, sizes, work / f"inputs{k}")
            setup_times.append(import_s + time.perf_counter() - t0)
            if tracer:
                tracer.uninstall()
                setup_layers.append(tracer.layer_metrics())

        summaries, n_ref = _reference_case(workload, experiments, work, jobs)
        stored = json.loads(REFERENCE.read_text()).get(args.workload)
        attempted += n_ref
        if not all(workload.compare(s, stored) for s in summaries):
            failed += n_ref
            problems.append("reference case differs from reference.json")

        walls, traced_walls, op_layers = [], [], []
        first = None
        deadline = time.perf_counter() + args.seconds
        i = 0
        while True:
            op_dir = work / f"op{i}"
            inputs = work / f"inputs{i % SETUPS}"
            if inputs.is_dir():
                shutil.copytree(inputs, op_dir / "inputs")
                inputs = op_dir / "inputs"
            out_dir = op_dir / "out"
            out_dir.mkdir(parents=True)
            traced = tracer is not None and i % 3 != 0
            if traced:
                tracer.reset()
                tracer.install()
            t0 = time.perf_counter()
            try:
                output = workload.run(inputs, out_dir, args.seed, sizes, jobs)
            finally:
                wall = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
            if traced:
                traced_walls.append(wall)
                op_layers.append(tracer.layer_metrics())
            else:
                walls.append(wall)
            n_ops = workload.operations(output)
            bad = workload.failures(output)
            if first is None:
                first = output
            elif not workload.same(first, output):
                bad = n_ops
                problems.append(f"operation {i} output differs from operation 0")
            attempted += n_ops
            failed += bad
            shutil.rmtree(op_dir)
            i += 1
            enough = tracer is None or len(traced_walls) >= 2
            if enough and time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is still using it

    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    wall_s = _median(walls)
    setup_s = _median(setup_times)
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")

    if tracer:
        layers, count_problems = _per_layer(PER_LAYER, op_layers, setup_layers)
        problems.extend(count_problems)
        layers["trace.wall_s"] = _median(traced_walls)
        layers["trace.untraced_wall_s"] = wall_s
        layers["trace.overhead_s"] = layers["trace.wall_s"] - wall_s
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": (usage_self + usage_children) / 1024.0, "unit": "MB"},
        }
    throughput_name, throughput_unit, amount = workload.work(sizes)
    timed = traced_walls if tracer else walls
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "jobs": jobs,
        "sizes": sizes,
        "machine": machine,
        "operation_wall_s": {
            "median": _median(timed),
            "max": max(timed),
            "count": len(timed),
            "samples": timed,
        },
        "setup_s": {"import_s": import_s, "samples": setup_times},
        throughput_name: {"value": amount / _median(timed), "unit": throughput_unit},
        "failed_frac": {"value": failed / attempted, "unit": "fraction"},
        "problems": problems,
    }
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def _per_layer(per_layer: dict, op_layers: list[dict], setup_layers: list[dict]):
    """Medians of the traced operations' times and rates; counts must repeat
    exactly from one operation to the next."""
    problems = []
    merged = {}
    for name, unit in per_layer.items():
        source = setup_layers if name.startswith("synthetic.") else op_layers
        values = [m.get(name, 0) for m in source]
        if unit in ("s", "GFLOP/s"):
            merged[name] = _median(values)
        else:
            if len(set(values)) > 1:
                problems.append(f"count {name} differs between operations: {values}")
            merged[name] = values[0] if values else 0
    return merged, problems


if __name__ == "__main__":
    sys.exit(main())
