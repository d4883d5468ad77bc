import json
from pathlib import Path

import numpy as np
import pytest

from gazeaffect.cli import main
from gazeaffect.synthetic import SyntheticCorpusSpec, generate_synthetic_corpus
from gazeaffect.timeline import FrameRate, load_feature_csv


def run_cli(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    return excinfo.value.code


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_corpus")
    generate_synthetic_corpus(
        SyntheticCorpusSpec(seed=21, frames=150, train_recordings=2,
                            validation_recordings=1, test_recordings=1),
        root,
    )
    return root


def write_config(path: Path, corpus_dir: Path, **extra):
    doc = {
        "train_manifest": str(corpus_dir / "manifest.json"),
        "dimension": "arousal",
        "modalities": ["speech"],
        "networks": [{"kind": "lstm", "sizes": [8]}],
        "training": {"learning_rates": [1e-3], "seeds": [7], "max_epochs": 3,
                     "patience_epochs": 2},
        "shift": {"anchor_frames": {"arousal": 5},
                  "chosen_frames": {"arousal": 0},
                  "range_seconds": 0.12, "stride_frames": 3},
        "window_seconds": {"arousal": 1.0},
        **extra,
    }
    path.write_text(json.dumps(doc))
    return path


class TestExtractGaze:
    def test_success(self, corpus_dir, tmp_path):
        out = tmp_path / "gaze_feats.csv"
        code = run_cli([
            "extract-gaze", "--in", str(corpus_dir / "train00_gaze.csv"),
            "--fps", "25", "--window-seconds", "1.0", "--out", str(out),
        ])
        assert code == 0
        matrix = load_feature_csv(out, FrameRate(25.0))
        assert matrix.values.shape == (150, 31)

    def test_missing_file_exit_2(self, tmp_path):
        code = run_cli([
            "extract-gaze", "--in", str(tmp_path / "nope.csv"),
            "--fps", "25", "--out", str(tmp_path / "o.csv"),
        ])
        assert code == 2

    def test_missing_required_flag_exit_1(self):
        assert run_cli(["extract-gaze", "--fps", "25"]) == 1

    def test_column_mapping(self, tmp_path):
        src = tmp_path / "weird.csv"
        src.write_text("gx,gy,blink,ok\n0.1,0.2,0,1\n0.2,0.3,1,1\n")
        out = tmp_path / "o.csv"
        code = run_cli([
            "extract-gaze", "--in", str(src), "--fps", "25",
            "--gaze-columns", "h=gx,v=gy,closed=blink,valid=ok",
            "--out", str(out),
        ])
        assert code == 0


class TestFuse:
    def test_success(self, corpus_dir, tmp_path):
        gaze_out = tmp_path / "g.csv"
        run_cli([
            "extract-gaze", "--in", str(corpus_dir / "train00_gaze.csv"),
            "--fps", "25", "--window-seconds", "1.0", "--out", str(gaze_out),
        ])
        fused_out = tmp_path / "f.csv"
        code = run_cli([
            "fuse", "--speech", str(corpus_dir / "train00_speech.csv"),
            "--gaze", str(gaze_out), "--out", str(fused_out),
        ])
        assert code == 0
        fused = load_feature_csv(fused_out, FrameRate(25.0))
        assert fused.n_features == 8 + 31

    def test_frame_mismatch_exit_2(self, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("x\n1.0\n2.0\n")
        b = tmp_path / "b.csv"
        b.write_text("y\n1.0\n")
        code = run_cli(["fuse", "--speech", str(a), "--gaze", str(b),
                        "--out", str(tmp_path / "o.csv")])
        assert code == 2


class TestShiftAndEvaluate:
    def test_shift_then_evaluate(self, corpus_dir, tmp_path):
        shifted = tmp_path / "shifted.csv"
        code = run_cli([
            "shift", "--annotations", str(corpus_dir / "train00_arousal.csv"),
            "--frames", "10", "--out", str(shifted),
        ])
        assert code == 0
        code = run_cli([
            "evaluate", "--pred", str(shifted),
            "--truth", str(corpus_dir / "train00_arousal.csv"),
            "--metric", "ccc",
        ])
        assert code == 0

    def test_shift_too_large_exit_2(self, corpus_dir, tmp_path):
        code = run_cli([
            "shift", "--annotations", str(corpus_dir / "train00_arousal.csv"),
            "--frames", "9999", "--out", str(tmp_path / "o.csv"),
        ])
        assert code == 2

    def test_evaluate_bad_metric_exit_1(self, corpus_dir):
        code = run_cli([
            "evaluate", "--pred", str(corpus_dir / "train00_arousal.csv"),
            "--truth", str(corpus_dir / "train00_arousal.csv"),
            "--metric", "rmse",
        ])
        assert code == 1

    def test_evaluate_perfect_ccc(self, corpus_dir, capsys):
        code = run_cli([
            "evaluate", "--pred", str(corpus_dir / "train00_arousal.csv"),
            "--truth", str(corpus_dir / "train00_arousal.csv"),
        ])
        assert code == 0
        assert "ccc = 1.000000" in capsys.readouterr().out


class TestSynth:
    def test_generates_corpus(self, tmp_path):
        out = tmp_path / "c"
        code = run_cli([
            "synth", "--out-dir", str(out), "--recordings", "2,1,1",
            "--frames", "80", "--seed", "3",
        ])
        assert code == 0
        assert (out / "manifest.json").is_file()
        doc = json.loads((out / "manifest.json").read_text())
        assert len(doc["recordings"]) == 4

    def test_bad_recordings_flag_exit_1(self, tmp_path):
        code = run_cli(["synth", "--out-dir", str(tmp_path), "--recordings", "nope"])
        assert code == 1


class TestExperimentsCommands:
    def test_sweep(self, corpus_dir, tmp_path):
        config = write_config(tmp_path / "c.json", corpus_dir)
        out = tmp_path / "sweep_out"
        code = run_cli(["sweep", "--config", str(config), "--out-dir", str(out),
                        "--modality", "speech"])
        assert code == 0
        assert (out / "sweep_results.csv").is_file()
        best = json.loads((out / "best_shifts.json").read_text())
        assert set(best) == {"lstm"}

    def test_train(self, corpus_dir, tmp_path):
        config = write_config(
            tmp_path / "c.json", corpus_dir,
            modalities=["speech", "gaze", "fused"],
        )
        out = tmp_path / "train_out"
        code = run_cli(["train", "--config", str(config), "--out-dir", str(out)])
        assert code == 0
        assert (out / "intra_results.csv").is_file()
        assert (out / "intra_results.md").is_file()
        improvements = json.loads((out / "improvements.json").read_text())
        assert "lstm" in improvements

    def test_train_divergence_exit_3(self, corpus_dir, tmp_path):
        config = write_config(
            tmp_path / "c.json", corpus_dir,
            training={"learning_rates": [1e30], "seeds": [7], "max_epochs": 10,
                      "patience_epochs": 5},
        )
        out = tmp_path / "div_out"
        with np.errstate(all="ignore"):
            code = run_cli(["train", "--config", str(config), "--out-dir", str(out)])
        assert code == 3
        # results are still written before the failure is reported
        assert (out / "intra_results.csv").is_file()

    def test_cross_eval(self, corpus_dir, tmp_path):
        other = tmp_path / "other"
        run_cli(["synth", "--out-dir", str(other), "--name", "other",
                 "--recordings", "2,1,1", "--frames", "150", "--seed", "4"])
        config = write_config(
            tmp_path / "c.json", corpus_dir,
            test_manifest=str(other / "manifest.json"),
        )
        out = tmp_path / "cross_out"
        code = run_cli(["cross-eval", "--config", str(config), "--out-dir", str(out)])
        assert code == 0
        assert (out / "cross_results.csv").is_file()
        assert (out / "cross_results.md").is_file()
        assert list(out.glob("cross_model_*.json"))

    def test_missing_config_exit_1(self, tmp_path):
        code = run_cli(["sweep", "--config", str(tmp_path / "nope.json")])
        assert code == 1

    def test_non_numeric_field_exit_1(self, corpus_dir, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", corpus_dir, training={"max_epochs": "ten"})
        code = run_cli(["train", "--config", str(config), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert "'training.max_epochs'" in capsys.readouterr().err

    def test_top_level_list_exit_1(self, corpus_dir, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps([{"train_manifest": str(corpus_dir / "manifest.json")}]))
        code = run_cli(["sweep", "--config", str(config), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert "config must be a JSON object" in capsys.readouterr().err


class TestReport:
    def test_rerender(self, corpus_dir, tmp_path):
        config = write_config(tmp_path / "c.json", corpus_dir)
        out = tmp_path / "out"
        run_cli(["train", "--config", str(config), "--out-dir", str(out)])
        md = tmp_path / "again.md"
        code = run_cli(["report", "--results", str(out / "intra_results.csv"),
                        "--format", "markdown", "--out", str(md)])
        assert code == 0
        assert md.read_text().startswith("| dimension |")

    def test_missing_results_exit_2(self, tmp_path):
        code = run_cli(["report", "--results", str(tmp_path / "nope.csv"),
                        "--out", str(tmp_path / "o.md")])
        assert code == 2
