"""Acceptance criteria for the primary component.

Each test prints one pass/fail line (visible with pytest -s or in captured
output) and enforces the stated tolerance and runtime budget.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

import gazeaffect.network as nw
from gazeaffect.experiments import (
    ExperimentConfig,
    NetworkChoice,
    ShiftSettings,
    relative_improvement,
    run_intra_corpus,
    run_shift_sweep,
)
from gazeaffect.fusion import ShiftSpec, convert_shift, shift_annotations
from gazeaffect.gaze_features import (
    FixationParams,
    WindowSpec,
    ZoneGrid,
    extract_gaze_features,
)
from gazeaffect.metrics import ccc
from gazeaffect.network import (
    LayerSpec,
    NetworkSpec,
    TrainConfig,
    gradient_check,
    predict,
    train_network,
)
from gazeaffect.synthetic import SyntheticCorpusSpec, generate_synthetic_corpus
from gazeaffect.timeline import (
    AnnotationTrace,
    FrameRate,
    GazeLog,
    frames_for_duration,
)

from conftest import random_gaze_log
from oracles import ccc_direct, window_features_direct

FPS = FrameRate(25.0)


class _Budget:
    """Runtime guard that also emits the per-criterion pass/fail line."""

    def __init__(self, number, description, seconds):
        self.number = number
        self.description = description
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None and elapsed < self.seconds else "FAIL"
        print(
            f"acceptance {self.number} ({self.description}): {status} "
            f"[{elapsed:.1f}s / {self.seconds:.0f}s budget]",
            flush=True,
        )
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget "
                f"({elapsed:.1f}s)"
            )
        return False


def test_criterion_1_ccc_oracle_equivalence():
    with _Budget(1, "CCC oracle equivalence", 5):
        assert ccc([1, 2, 3, 4], [2, 3, 4, 5]) == pytest.approx(5 / 7, abs=1e-15)
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 501))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            worst = max(worst, abs(ccc(x, y) - ccc_direct(list(x), list(y))))
        assert worst < 1e-12


def test_criterion_2_gradient_correctness():
    with _Budget(2, "BPTT gradient correctness", 60):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for seed in range(10):
            length = int(rng.integers(20, 51))
            for kind in ("lstm", "blstm"):
                spec = NetworkSpec(
                    layers=(LayerSpec(kind, 8), LayerSpec(kind, 6)), input_dim=5
                )
                report = gradient_check(spec, seed=seed, sequence_length=length)
                worst = max(worst, report.max_relative_error)
        assert worst < 1e-4


def test_criterion_3_gaze_feature_oracle():
    with _Budget(3, "gaze feature brute-force oracle", 30):
        rng = np.random.default_rng(3)
        log = random_gaze_log(rng, 600)
        window = WindowSpec(4.0)
        fixation = FixationParams()
        grid = ZoneGrid()
        matrix = extract_gaze_features(log, window, fixation, grid)
        w = frames_for_duration(4.0, FPS)
        min_dur = frames_for_duration(fixation.min_duration_seconds, FPS)
        worst = 0.0
        for t in rng.choice(600, size=50, replace=False):
            lo = max(0, t - w + 1)
            expected = window_features_direct(
                log.h[lo : t + 1],
                log.v[lo : t + 1],
                log.eye_closed[lo : t + 1],
                log.valid[lo : t + 1],
                25.0,
                fixation.dispersion_threshold,
                min_dur,
                grid.rows,
                grid.cols,
                (-1.0, 1.0, -1.0, 1.0),
            )
            worst = max(worst, np.abs(matrix.values[t] - np.array(expected)).max())
        assert worst < 1e-9

        # degenerate inputs stay finite
        n = 200
        degenerates = [
            GazeLog(h=np.full(n, 0.2), v=np.full(n, -0.1),
                    eye_closed=np.zeros(n, dtype=bool),
                    valid=np.ones(n, dtype=bool), fps=FPS),
            GazeLog(h=np.full(n, np.nan), v=np.full(n, np.nan),
                    eye_closed=np.zeros(n, dtype=bool),
                    valid=np.zeros(n, dtype=bool), fps=FPS),
            GazeLog(h=np.zeros(n), v=np.zeros(n),
                    eye_closed=np.ones(n, dtype=bool),
                    valid=np.ones(n, dtype=bool), fps=FPS),
        ]
        for deg in degenerates:
            assert np.isfinite(extract_gaze_features(deg, window).values).all()


def test_criterion_4_shift_mechanics():
    with _Budget(4, "shift mechanics and fps conversion", 10):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(2, 100))
            k = int(rng.integers(0, n))
            values = rng.uniform(-1, 1, n)
            trace = AnnotationTrace(dimension="arousal", values=values, fps=FPS)
            out = shift_annotations(trace, ShiftSpec(k, FPS)).values
            assert len(out) == n
            assert out[: n - k] == pytest.approx(values[k:])
            assert np.array_equal(out[n - k :], np.zeros(k))
        fps30 = FrameRate(30.0)
        conv = convert_shift(ShiftSpec(69, FPS), fps30)
        assert conv.shift.frames == 83 and not conv.override_used
        conv = convert_shift(ShiftSpec(69, FPS), fps30, override=84)
        assert conv.shift.frames == 84
        assert conv.computed_frames == 83 and conv.override_used
        conv = convert_shift(ShiftSpec(78, FPS), fps30, override=96)
        assert conv.shift.frames == 96 and conv.computed_frames == 94


def test_criterion_5_lag_recovery(tmp_path):
    with _Budget(5, "injected-lag recovery via shift sweep", 600):
        corpus = tmp_path / "lagged"
        generate_synthetic_corpus(
            SyntheticCorpusSpec(
                seed=5, frames=400, train_recordings=2, validation_recordings=1,
                test_recordings=1, lag_frames=40, noise_level=0.05,
                speech_weight=0.85, gaze_weight=0.15,
            ),
            corpus,
        )
        config = ExperimentConfig(
            train_manifest=corpus / "manifest.json",
            dimension="arousal",
            modalities=("speech",),
            networks=(NetworkChoice("lstm", (16, 12)),),
            learning_rates=(1e-3,),
            seeds=(7,),
            max_epochs=25,
            patience_epochs=10,
            shift=ShiftSettings(
                anchor_frames={"arousal": 40, "valence": 40},
                range_seconds=0.6,
                stride_frames=3,
            ),
            window_seconds={"arousal": 1.0, "valence": 1.0},
        )
        _, best = run_shift_sweep(config, modality="speech")
        assert abs(best["lstm"] - 40) <= 5


def test_criterion_6_fusion_benefit(tmp_path):
    with _Budget(6, "fusion benefit over unimodal", 900):
        corpus = tmp_path / "mixed"
        generate_synthetic_corpus(
            SyntheticCorpusSpec(
                seed=11, frames=400, train_recordings=2, validation_recordings=1,
                test_recordings=1, lag_frames=0, noise_level=0.05,
            ),
            corpus,
        )
        strict_wins = 0
        for seed in range(10):
            config = ExperimentConfig(
                train_manifest=corpus / "manifest.json",
                dimension="arousal",
                networks=(NetworkChoice("lstm", (16, 12)),),
                learning_rates=(1e-3,),
                seeds=(seed,),
                max_epochs=30,
                patience_epochs=10,
                shift=ShiftSettings(chosen_frames={"arousal": 0, "valence": 0}),
                window_seconds={"arousal": 1.0, "valence": 1.0},
            )
            _, improvements = run_intra_corpus(config)
            info = improvements["lstm"]
            assert info["fused_ccc"] >= info["best_unimodal_ccc"] - 0.02
            if info["fused_ccc"] > info["best_unimodal_ccc"]:
                strict_wins += 1
        assert strict_wins >= 8


def test_criterion_7_training_protocol(monkeypatch):
    with _Budget(7, "training protocol", 120):
        # plateau: stops at best + 20 and returns the best-epoch weights
        snapshots = []
        calls = {"n": 0}

        def plateau(params, spec, dataset):
            calls["n"] += 1
            snapshots.append(params.theta.copy())
            return float(50 - calls["n"]) if calls["n"] <= 5 else 45.0

        monkeypatch.setattr(nw, "evaluate_sse", plateau)
        spec = NetworkSpec(layers=(LayerSpec("lstm", 4),), input_dim=2)
        rng = np.random.default_rng(0)
        data = [(rng.normal(size=(10, 2)), rng.normal(size=10))]
        config = TrainConfig(learning_rate=1e-4, seed=1, max_epochs=100,
                             patience_epochs=20)
        model = train_network(spec, data, data, config)
        assert len(model.history) == 25
        assert model.metadata["best_epoch"] == 5
        assert np.array_equal(model.params.theta, snapshots[4])

        # max_epochs cap of 100
        calls2 = {"n": 0}

        def improving(params, spec, dataset):
            calls2["n"] += 1
            return 1000.0 - calls2["n"]

        monkeypatch.setattr(nw, "evaluate_sse", improving)
        model = train_network(spec, data, data, config)
        assert len(model.history) == 100
        monkeypatch.undo()

        # teachable task reaches held-out CCC >= 0.9 within 100 epochs,
        # and identical config + seed reruns are bit-identical
        from test_network import teachable_task

        train, val, test = teachable_task()
        task_spec = NetworkSpec(
            layers=(LayerSpec("lstm", 16), LayerSpec("lstm", 12)), input_dim=3
        )
        task_config = TrainConfig(learning_rate=1e-3, seed=7, max_epochs=100,
                                  patience_epochs=20)
        a = train_network(task_spec, train, val, task_config)
        x, y = test[0]
        assert ccc(predict(a.params, a.spec, x), y) >= 0.9
        b = train_network(task_spec, train, val, task_config)
        assert a.history == b.history
        assert np.array_equal(a.params.theta, b.params.theta)


def test_criterion_8_relative_improvement_arithmetic():
    with _Budget(8, "published relative-improvement arithmetic", 5):
        assert round(100 * relative_improvement(0.754, 0.742), 2) == 1.62
        assert round(100 * relative_improvement(0.277, 0.261), 2) == 6.13


def test_criterion_9_end_to_end_cli(tmp_path):
    with _Budget(9, "end-to-end CLI pipeline", 1200):
        def run(*args):
            proc = subprocess.run(
                [sys.executable, "-m", "gazeaffect.cli", *args],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, (
                f"command {args[0]} exited {proc.returncode}: {proc.stderr}"
            )
            return proc

        corpus_a = tmp_path / "corpus_a"
        corpus_b = tmp_path / "corpus_b"
        run("synth", "--out-dir", str(corpus_a), "--recordings", "3,2,2",
            "--frames", "300", "--seed", "1")
        run("synth", "--out-dir", str(corpus_b), "--name", "other",
            "--recordings", "3,2,2", "--frames", "300", "--seed", "2")

        gaze_feats = tmp_path / "train00_gazefeat.csv"
        run("extract-gaze", "--in", str(corpus_a / "train00_gaze.csv"),
            "--fps", "25", "--window-seconds", "1.0", "--out", str(gaze_feats))
        fused = tmp_path / "train00_fused.csv"
        run("fuse", "--speech", str(corpus_a / "train00_speech.csv"),
            "--gaze", str(gaze_feats), "--out", str(fused))

        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "train_manifest": str(corpus_a / "manifest.json"),
            "test_manifest": str(corpus_b / "manifest.json"),
            "dimension": "arousal",
            "networks": [{"kind": "blstm", "sizes": [8, 6]},
                         {"kind": "lstm", "sizes": [8, 6]}],
            "training": {"learning_rates": [1e-3], "seeds": [7],
                         "max_epochs": 5, "patience_epochs": 3},
            "shift": {"anchor_frames": {"arousal": 5},
                      "chosen_frames": {"arousal": 0},
                      "range_seconds": 0.12, "stride_frames": 3},
            "window_seconds": {"arousal": 1.0},
        }))

        sweep_out = tmp_path / "sweep_out"
        run("sweep", "--config", str(config_path), "--out-dir", str(sweep_out),
            "--modality", "speech")
        assert (sweep_out / "sweep_results.csv").is_file()
        assert set(json.loads((sweep_out / "best_shifts.json").read_text())) == {
            "blstm", "lstm"
        }

        train_out = tmp_path / "train_out"
        run("train", "--config", str(config_path), "--out-dir", str(train_out))
        intra_md = (train_out / "intra_results.md").read_text().strip().splitlines()
        # intra report: speech/gaze/fused x LSTM/BLSTM rows
        assert len(intra_md) == 2 + 6
        body = "\n".join(intra_md[2:]).replace("**", "")
        for modality in ("speech", "gaze", "fused"):
            for kind in ("lstm", "blstm"):
                assert f"| {modality} | {kind} |" in body

        cross_out = tmp_path / "cross_out"
        run("cross-eval", "--config", str(config_path), "--out-dir", str(cross_out))
        cross_md = (cross_out / "cross_results.md").read_text().strip().splitlines()
        # cross report: one row per (modality x network), train != test corpus
        assert len(cross_md) == 2 + 6
        assert all(
            "| synth | other |" in line.replace("**", "") for line in cross_md[2:]
        )

        report_md = tmp_path / "rerendered.md"
        run("report", "--results", str(train_out / "intra_results.csv"),
            "--format", "markdown", "--out", str(report_md))
        assert report_md.read_text().startswith("| dimension |")
