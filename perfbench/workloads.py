"""The four benchmark workloads: inputs, one timed operation, and output checks.

Each workload loads a different layer of the pipeline:

- featurize  `experiments.load_corpus_data` on fused recordings at the arousal
             (4 s) and valence (6 s) windows; `gaze_features` dominates and
             `network` is never called.
- train      `run_intra_corpus` on speech only with BLSTM 40-30 and LSTM 80-60;
             `network` BPTT dominates and `gaze_features` is bypassed.
- sweep      `run_shift_sweep` on fused features over the default 17-point
             shift grid with BLSTM 40-30 and a process pool; many short
             grid points make orchestration, validation and scoring weigh.
- gradcheck  `gradient_check` on LSTM and BLSTM 8-6 with input width 5; tiny
             forward-only calls, so per-call overhead dominates.

Training runs use `max_epochs = patience_epochs + 1`, which fixes the epoch
count at 2 wherever early stopping would fall. All functions are called
through their module so that the tracer's replacements are seen.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from gazeaffect import experiments, network, synthetic
from gazeaffect.experiments import ExperimentConfig, NetworkChoice
from gazeaffect.network import LayerSpec, NetworkSpec

FPS = 25.0
SPEECH_DIM = 88  # speech feature columns of the paper's corpora
WINDOWS = (("arousal", 4.0), ("valence", 6.0))
EPOCHS = dict(max_epochs=2, patience_epochs=1)
GRADCHECK_LENGTH = 20  # shortest criterion-2 length; short calls, many per run
GRADCHECK_KINDS = ("lstm", "blstm")
GRADCHECK_PARAMS = {"lstm": 815, "blstm": 615}
SWEEP_POINTS = 17  # default grid: anchor 59 frames +/- 1 s at stride 3
REL_TOL = 1e-9
SAMPLED_ROWS = 5


class Workload:
    """One workload. `sizes` shape the timed inputs, `reference_sizes` the
    small fixed-seed case whose outputs are stored from the seed code."""

    name: str
    sizes: dict
    reference_sizes: dict

    def setup(self, seed: int, sizes: dict, directory: Path) -> None:
        """Generate the inputs of one operation into `directory`."""
        synthetic.generate_synthetic_corpus(
            synthetic.SyntheticCorpusSpec(
                name=self.name, fps=FPS, speech_dim=SPEECH_DIM, seed=seed, **sizes
            ),
            directory,
        )

    def run(self, directory: Path, out_dir: Path, seed: int, sizes: dict, jobs: int):
        """Run one timed operation on the inputs in `directory`."""
        raise NotImplementedError

    def operations(self, output) -> int:
        raise NotImplementedError

    def work(self, sizes: dict) -> tuple[str, str, float]:
        """(throughput metric, unit, work units per operation)."""
        raise NotImplementedError

    def failures(self, output) -> int:
        """Operations whose output is wrong on its own (diverged, bad check)."""
        return 0

    def summary(self, output, histories) -> dict:
        """JSON-able record compared against the stored reference."""
        raise NotImplementedError

    def compare(self, got: dict, want: dict) -> bool:
        raise NotImplementedError

    def same(self, a, b) -> bool:
        """Two operations on identical inputs gave identical outputs."""
        return a == b


def _all_close(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    return bool(np.all(np.abs(a - b) <= REL_TOL * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))))


class Featurize(Workload):
    name = "featurize"
    sizes = dict(train_recordings=1, validation_recordings=0, test_recordings=0, frames=750)
    reference_sizes = dict(train_recordings=1, validation_recordings=0, test_recordings=0, frames=200)

    def run(self, directory, out_dir, seed, sizes, jobs):
        corpus = experiments.load_corpus_manifest(directory / "manifest.json")
        fused = {}
        for dimension, window in WINDOWS:
            recs = experiments.load_corpus_data(
                corpus, dimension, window, modalities=("fused",)
            )
            for rec in recs:
                fused[f"{rec.id}/{window:g}s"] = rec.features["fused"].values
        return fused

    def operations(self, output):
        return len(output)

    def work(self, sizes):
        frames = sizes["frames"] * sizes["train_recordings"] * len(WINDOWS)
        return "frames_per_s", "frames/s", frames

    def failures(self, output):
        return sum(not np.all(np.isfinite(m)) for m in output.values())

    def same(self, a, b):
        return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)

    def summary(self, output, histories):
        out = {}
        for key, m in output.items():
            rows = np.linspace(0, len(m) - 1, SAMPLED_ROWS).astype(int)
            out[key] = {
                "shape": list(m.shape),
                "rows": rows.tolist(),
                "sampled": m[rows].tolist(),
                "column_sums": m.sum(axis=0).tolist(),
            }
        return out

    def compare(self, got, want):
        return got.keys() == want.keys() and all(
            got[k]["shape"] == want[k]["shape"]
            and got[k]["rows"] == want[k]["rows"]
            and _all_close(got[k]["sampled"], want[k]["sampled"])
            and _all_close(got[k]["column_sums"], want[k]["column_sums"])
            for k in got
        )


class _Grid(Workload):
    """Shared checks of the two experiment drivers: CSV rows, histories."""

    results_name: str

    def operations(self, output):
        return len(output["statuses"])

    def failures(self, output):
        return sum(s != "ok" for s in output["statuses"])

    def summary(self, output, histories):
        return {
            "csv": output["csv"],
            "best_shifts": output.get("best_shifts"),
            "histories": histories,
        }

    def compare(self, got, want):
        return (
            got["csv"] == want["csv"]
            and got["best_shifts"] == want["best_shifts"]
            and len(got["histories"]) == len(want["histories"])
            and all(_all_close(g, w) for g, w in zip(got["histories"], want["histories"]))
        )

    def _record(self, table, out_dir: Path, extra=None):
        csv_path = out_dir / self.results_name
        experiments.save_results_csv(table, csv_path)
        out = {
            "csv": csv_path.read_text(),
            "statuses": [
                r.status if r.status != "ok" or not math.isnan(r.val_ccc) else "nan"
                for r in table.rows
            ],
        }
        out.update(extra or {})
        return out


class Train(_Grid):
    name = "train"
    results_name = "intra_results.csv"
    sizes = dict(train_recordings=2, validation_recordings=1, test_recordings=1, frames=1000)
    reference_sizes = dict(train_recordings=2, validation_recordings=1, test_recordings=1, frames=120)

    def work(self, sizes):
        epochs = EPOCHS["max_epochs"] * len(experiments.DEFAULT_NETWORKS)
        frames = sizes["frames"] * sizes["train_recordings"] * epochs
        return "frame_epochs_per_s", "frames/s", frames

    def run(self, directory, out_dir, seed, sizes, jobs):
        config = ExperimentConfig(
            train_manifest=directory / "manifest.json",
            dimension="arousal",
            modalities=("speech",),
            out_dir=out_dir,
            jobs=1,
            **EPOCHS,
        )
        table, improvements = experiments.run_intra_corpus(config)
        record = self._record(table, out_dir)
        experiments.render_report(table, "markdown", out_dir / "intra_results.md")
        (out_dir / "improvements.json").write_text(json.dumps(improvements, indent=2))
        return record


class Sweep(_Grid):
    name = "sweep"
    results_name = "sweep_results.csv"
    sizes = dict(train_recordings=2, validation_recordings=1, test_recordings=0, frames=300, lag_frames=59)
    reference_sizes = dict(train_recordings=2, validation_recordings=1, test_recordings=0, frames=120, lag_frames=59)

    def work(self, sizes):
        return "grid_points_per_min", "1/min", SWEEP_POINTS * 60

    def run(self, directory, out_dir, seed, sizes, jobs):
        config = ExperimentConfig(
            train_manifest=directory / "manifest.json",
            dimension="arousal",
            networks=(NetworkChoice("blstm", (40, 30)),),
            out_dir=out_dir,
            jobs=jobs,
            **EPOCHS,
        )
        table, best = experiments.run_shift_sweep(config, modality="fused")
        record = self._record(table, out_dir, {"best_shifts": best})
        (out_dir / "best_shifts.json").write_text(json.dumps(best, indent=2))
        return record


class Gradcheck(Workload):
    name = "gradcheck"
    sizes = dict(length=GRADCHECK_LENGTH)
    reference_sizes = dict(length=8)

    def setup(self, seed, sizes, directory):
        """gradient_check draws its own inputs from the seed."""

    def run(self, directory, out_dir, seed, sizes, jobs):
        reports = {}
        for kind in GRADCHECK_KINDS:
            spec = NetworkSpec(layers=(LayerSpec(kind, 8), LayerSpec(kind, 6)), input_dim=5)
            report = network.gradient_check(spec, seed=seed, sequence_length=sizes["length"])
            reports[kind] = (report.max_relative_error, report.n_parameters)
        return reports

    def operations(self, output):
        return len(output)

    def work(self, sizes):
        return "params_checked_per_s", "1/s", sum(GRADCHECK_PARAMS.values())

    def failures(self, output):
        return sum(
            not (err < 1e-4 and n == GRADCHECK_PARAMS[kind])
            for kind, (err, n) in output.items()
        )

    def summary(self, output, histories):
        return {kind: n for kind, (_, n) in output.items()}

    def compare(self, got, want):
        return got == want


WORKLOADS = {w.name: w for w in (Featurize(), Train(), Sweep(), Gradcheck())}
