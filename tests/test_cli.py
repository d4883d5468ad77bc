import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import gazeaffect
from gazeaffect import experiments
from gazeaffect.cli import main
from gazeaffect.synthetic import SyntheticCorpusSpec, generate_synthetic_corpus
from gazeaffect.timeline import FrameRate, load_feature_csv


RESULTS_HEADER = (
    "dimension,modality,network,shift_frames,seed,learning_rate,"
    "val_ccc,test_ccc,train_corpus,test_corpus,status"
)


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

    @pytest.mark.parametrize("columns, expected", [("v=v", 0), ("bogus=z", 1)])
    def test_partial_or_unknown_column_mapping(self, corpus_dir, tmp_path, columns, expected):
        # Unmapped logical columns are read by their own names; an unknown
        # key is a usage fault.
        code = run_cli([
            "extract-gaze", "--in", str(corpus_dir / "train00_gaze.csv"), "--fps", "25",
            "--gaze-columns", columns, "--out", str(tmp_path / "o.csv"),
        ])
        assert code == expected


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

    def test_evaluate_non_numeric_exit_2(self, corpus_dir, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        pred.write_text("value\n0.1\nhigh\n")
        code = run_cli([
            "evaluate", "--pred", str(pred),
            "--truth", str(corpus_dir / "train00_arousal.csv"),
        ])
        assert code == 2
        assert "non-numeric cell 'high' at data row 1, column 0" in capsys.readouterr().err

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


class TestFlagFaults:
    # Faults in values built from flags are usage faults: exit 1, before any
    # input file is read (the inputs named here do not exist).
    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--frames", "1"],
            ["synth", "--noise", "-1"],
            ["synth", "--fps", "0"],
            ["synth", "--fps", "nan"],
            ["synth", "--frames", "10", "--lag", "10"],
            ["extract-gaze", "--fps", "25", "--window-seconds", "0"],
            ["extract-gaze", "--fps", "25", "--window-seconds", "inf"],
            ["extract-gaze", "--fps", "25", "--window-seconds", "1e308"],
            ["extract-gaze", "--fps", "25", "--window-seconds", "1e300"],
            ["extract-gaze", "--fps", "0"],
            ["extract-gaze", "--fps", "25", "--gaze-columns", "h:gx"],
            ["fuse", "--speech", "s.csv", "--gaze", "g.csv", "--fps", "0"],
            ["shift", "--annotations", "a.csv", "--frames", "3", "--fps", "0"],
            ["shift", "--annotations", "a.csv", "--frames", "-1"],
            ["synth", "--recordings", "-1,2,2"],
        ],
        ids=" ".join,
    )
    def test_flag_fault_exit_1(self, tmp_path, capsys, argv):
        if argv[0] == "extract-gaze":
            argv = [*argv, "--in", str(tmp_path / "log.csv")]
        out = "--out-dir" if argv[0] == "synth" else "--out"
        code = run_cli([*argv, out, str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()


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

    def test_divergence_prints_no_numpy_warnings(self, corpus_dir, tmp_path):
        # a subprocess, so stderr is what a user sees: pytest records warnings itself
        def run(command, max_epochs, patience_epochs):
            config = write_config(
                tmp_path / f"{command}.json", corpus_dir,
                training={"learning_rates": [1e30, 1e-3], "seeds": [7],
                          "max_epochs": max_epochs, "patience_epochs": patience_epochs},
            )
            return subprocess.run(
                [sys.executable, "-m", "gazeaffect.cli", command, "--config", str(config),
                 "--out-dir", str(tmp_path / command)],
                capture_output=True, text=True, timeout=300,
                env={**os.environ, "PYTHONPATH": str(Path(gazeaffect.__file__).parents[1])},
            )

        done = run("train", 3, 2)
        assert done.returncode == 3
        assert "training diverged: 1 of 2" in done.stderr
        assert "RuntimeWarning" not in done.stderr
        # Two epochs end before the 1e30 runs overflow, so they are scored
        # through saturated gates: exp(-z) overflows inside the logistic.
        done = run("sweep", 2, 1)
        assert done.returncode == 0
        rows = (tmp_path / "sweep" / "sweep_results.csv").read_text().splitlines()
        assert any(",1e+30,0.0000,,synth,,ok" in row for row in rows)
        assert "RuntimeWarning" not in done.stderr

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

    def test_undecodable_config_exit_1(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_bytes(b'{"train_manifest": "\xff"}')
        code = run_cli(["train", "--config", str(config), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: config is not valid JSON") and "Traceback" not in err

    def test_undecodable_manifest_exit_2(self, corpus_dir, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(b'{"recordings": [], "corpus": "\xff"}')
        config = write_config(tmp_path / "c.json", corpus_dir, train_manifest=str(manifest))
        code = run_cli(["train", "--config", str(config), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("data error: manifest is not valid JSON")

    @pytest.mark.parametrize("command", ["sweep", "train", "cross-eval"])
    def test_jobs_below_1_exit_1(self, corpus_dir, tmp_path, capsys, command):
        config = write_config(tmp_path / "c.json", corpus_dir)
        code = run_cli([command, "--config", str(config), "--out-dir", str(tmp_path / "out"),
                        "--jobs", "0"])
        assert code == 1
        assert capsys.readouterr().err == "config error: --jobs needs N >= 1, got 0\n"

    def test_non_integer_shift_exit_1(self, corpus_dir, tmp_path, capsys):
        config = write_config(
            tmp_path / "c.json", corpus_dir, shift={"chosen_frames": {"arousal": "3"}}
        )
        code = run_cli(["train", "--config", str(config), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "'shift.chosen_frames.arousal'" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"networks": [{"kind": "gru", "sizes": [8]}]}, "unknown layer kind"),
            ({"training": {"max_epochs": 3, "patience_epochs": 3}}, "patience_epochs"),
            pytest.param({"shift": {"chosen_frames": {"arousal": -3}}},
                         "'shift.chosen_frames.arousal' is invalid: expected at least 0, got -3",
                         id="extra2-'shift.chosen_frames'"),
            pytest.param({"shift": {"cross_overrides": {"arousal": -3}}},
                         "'shift.cross_overrides.arousal' is invalid: expected at least 0, got -3",
                         id="extra3-'shift.cross_overrides'"),
            ({"cross_both_directions": "false"}, "'cross_both_directions'"),
            pytest.param({"window_seconds": {"arousal": -1.0}},
                         "'window_seconds.arousal' is invalid: "
                         "expected a positive number, got -1.0",
                         id="extra5-'window_seconds'"),
            ({"shift": {"range_seconds": -0.5}}, "'shift.range_seconds'"),
            ({"modalities": "speech"}, "expected a list, got 'speech'"),
            ({"shift": {"stride_frames": 0}}, "'shift.stride_frames'"),
            ({"training": {"max_epochs": 3, "patience_epochs": 2, "noise_sigma": float("nan")}},
             "noise_sigma"),
            ({"shift": {"chosen_frames": {"arousl": 3}}}, "'shift.chosen_frames.arousl'"),
            ({"window_seconds": {"valance": 6.0}}, "'window_seconds.valance'"),
            ({"networks": [{"kind": "lstm", "sizes": [4]}, {"kind": "lstm", "sizes": [6]}]},
             "'networks' needs distinct kinds"),
            pytest.param({"jobs": 0}, "'jobs' is invalid: expected at least 1, got 0",
                         id="extra13-'jobs' needs jobs >= 1"),
            pytest.param({"training": {"max_epochs": 3, "patience_epochs": 2, "seeds": [7, 7]}},
                         "'training.seeds' is invalid: expected distinct values, got [7, 7]",
                         id="extra14-'training.seeds' needs distinct values"),
        ],
    )
    def test_grid_value_exit_1_before_data(self, corpus_dir, tmp_path, capsys, extra, message):
        # the manifest does not exist: reading data first would exit 2
        config = write_config(
            tmp_path / "c.json", corpus_dir,
            train_manifest=str(tmp_path / "missing.json"), **extra,
        )
        code = run_cli(["train", "--config", str(config), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert message in capsys.readouterr().err

    def test_unknown_key_exit_1_before_data(self, corpus_dir, tmp_path, capsys):
        # a removed setting; the manifest does not exist, so reading data would exit 2
        config = write_config(
            tmp_path / "c.json", corpus_dir, train_manifest=str(tmp_path / "missing.json"),
            training={"max_epochs": 3, "patience_epochs": 2, "momentum": 0.9},
        )
        code = run_cli(["train", "--config", str(config), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == "config error: unknown config field(s) 'training.momentum'\n"

    def test_window_frame_overflow_exit_2(self, corpus_dir, tmp_path, capsys):
        # finite and positive, so the config accepts it; the frame count
        # overflows once the corpus's frame rate is known
        config = write_config(
            tmp_path / "c.json", corpus_dir, modalities=["gaze"],
            window_seconds={"arousal": 1e308},
        )
        code = run_cli(["train", "--config", str(config), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            "data error: duration 1e+308 s at 25 fps overflows the frame count\n"
        )

    def test_window_frame_count_beyond_int64_exit_2(self, corpus_dir, tmp_path, capsys):
        # a finite frame count (2.5e301) that no int64 frame index holds
        config = write_config(
            tmp_path / "c.json", corpus_dir, modalities=["gaze"],
            window_seconds={"arousal": 1e300},
        )
        code = run_cli(["train", "--config", str(config), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            "data error: duration 1e+300 s at 25 fps overflows the frame count\n"
        )

    def test_mixed_frame_rates_exit_2(self, corpus_dir, tmp_path, capsys):
        corpus = tmp_path / "mixed"
        shutil.copytree(corpus_dir, corpus)
        doc = json.loads((corpus / "manifest.json").read_text())
        doc["recordings"][2]["fps"] = 30.0
        (corpus / "manifest.json").write_text(json.dumps(doc))
        config = write_config(tmp_path / "c.json", corpus)
        code = run_cli(["sweep", "--config", str(config), "--out-dir", str(tmp_path / "out"),
                        "--modality", "speech"])
        assert code == 2
        assert "mixes frame rates 25 and 30 fps" in capsys.readouterr().err


    def test_huge_sweep_range_exit_2(self, corpus_dir, tmp_path, capsys):
        # the grid is checked against the 150-frame traces before it is built
        config = write_config(
            tmp_path / "c.json", corpus_dir,
            shift={"anchor_frames": {"arousal": 5}, "range_seconds": 1e300},
        )
        start = time.monotonic()
        code = run_cli(["sweep", "--config", str(config), "--out-dir", str(tmp_path / "out"),
                        "--modality", "speech"])
        assert time.monotonic() - start < 5
        assert code == 2
        assert capsys.readouterr().err == "data error: shift of 152 frames >= trace length 150\n"

    def test_cross_eval_shift_too_large_for_a_float_exit_2(self, corpus_dir, tmp_path, capsys):
        # train exits 2 on the same config; cross-eval must not convert the shift first
        config = write_config(
            tmp_path / "c.json", corpus_dir,
            test_manifest=str(corpus_dir / "manifest.json"),
            shift={"chosen_frames": {"arousal": 10**400}},
        )
        for command in ("train", "cross-eval"):
            code = run_cli([command, "--config", str(config), "--out-dir", str(tmp_path / "out")])
            assert code == 2
            err = capsys.readouterr().err
            assert err == f"data error: shift of {10**400} frames >= trace length 150\n"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.update(recordings=5), "'recordings' must be a JSON list"),
            (lambda doc: doc["recordings"][0].update(fps="abc"), "'recordings.0.fps'"),
            (lambda doc: doc["recordings"][0].update(fps=None), "'recordings.0.fps'"),
            (lambda doc: doc["recordings"][0].update(fps=True), "'recordings.0.fps'"),
            (lambda doc: doc["recordings"][1].update(fps=10**400), "'recordings.1.fps'"),
            (lambda doc: doc["recordings"][0].update(annotations=["x"]),
             "'recordings.0.annotations'"),
            (lambda doc: doc["recordings"][0].update(annotations={"arousal": 5}),
             "'recordings.0.annotations.arousal'"),
            (lambda doc: doc["recordings"][0].update(id=[1]), "'recordings.0.id'"),
            (lambda doc: doc["recordings"][2].update(speech=5), "'recordings.2.speech'"),
            (lambda doc: doc["recordings"][0].update(gaze=None), "'recordings.0.gaze'"),
            (lambda doc: doc["recordings"][0].update(gaze="a\0b.csv"), "'recordings.0.gaze'"),
            (lambda doc: doc["recordings"][3]["annotations"].update(arousal="a\0b.csv"),
             "'recordings.3.annotations.arousal'"),
            (lambda doc: doc["recordings"].__setitem__(
                0, "id partition fps speech gaze annotations"), "'recordings.0' must be a JSON object"),
            (lambda doc: doc.update(corpus=None),
             "manifest field 'corpus' is invalid: expected a string, got None"),
            (lambda doc: doc.update(corpus=["x"]), "'corpus' is invalid: expected a string"),
            (lambda doc: doc.update(corpsu="x"), "unknown manifest field(s) 'corpsu'"),
            (lambda doc: doc["recordings"][0].update(fsp=30),
             "unknown manifest field(s) 'recordings.0.fsp'"),
            (lambda doc: doc["recordings"][1]["annotations"].update(arousl="a.csv"),
             "unknown manifest field(s) 'recordings.1.annotations.arousl'"),
            (lambda doc: doc["recordings"][0].update(partition="tran"),
             "'recordings.0.partition' is invalid"),
            (lambda doc: doc["recordings"][0].pop("fps"),
             "manifest field 'recordings.0' missing required field 'fps'"),
            (lambda doc: doc["recordings"][0].update(annotations=None),
             "'recordings.0.annotations' must be a JSON object, not NoneType"),
            (lambda doc: doc["recordings"][0].update(speech="a\nb.csv"), "a\\nb.csv"),
            (lambda doc: doc["recordings"][0].update(gaze="a\udd00b.csv"), "'recordings.0.gaze'"),
        ],
        ids=["recordings", "fps-str", "fps-null", "fps-bool", "fps-huge", "annotations-list",
             "annotation-path", "id", "speech", "gaze", "gaze-nul", "annotation-nul",
             "recording-str", "corpus-null", "corpus-list", "unknown-key", "unknown-recording-key",
             "unknown-dimension", "partition", "fps-missing", "annotations-null",
             "speech-newline", "gaze-surrogate"],
    )
    def test_malformed_manifest_exit_2(self, corpus_dir, tmp_path, capsys, edit, message):
        doc = json.loads((corpus_dir / "manifest.json").read_text())
        for rec in doc["recordings"]:  # absolute paths, so the manifest can move
            for key in ("speech", "gaze"):
                rec[key] = str(corpus_dir / rec[key])
            rec["annotations"] = {d: str(corpus_dir / p) for d, p in rec["annotations"].items()}
        edit(doc)
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        config = write_config(
            tmp_path / "c.json", corpus_dir, train_manifest=str(tmp_path / "manifest.json")
        )
        code = run_cli(["train", "--config", str(config), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "Traceback" not in err
        assert message in err and err.count("\n") == 1 and err.endswith("\n")


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

    @pytest.mark.parametrize(
        "header, bad_row, message",
        [
            (RESULTS_HEADER, "arousal,speech,lstm,3.5,7,0.001,0.5,,c,,ok",
             "bad 'shift_frames' cell '3.5' at data row 2"),
            (RESULTS_HEADER, "arousal,speech,lstm,3,seven,0.001,0.5,,c,,ok",
             "bad 'seed' cell 'seven' at data row 2"),
            (RESULTS_HEADER, "arousal,speech,lstm,3,7,fast,0.5,,c,,ok",
             "bad 'learning_rate' cell 'fast' at data row 2"),
            (RESULTS_HEADER, "arousal,speech,lstm,3,7,0.001,high,,c,,ok",
             "bad 'val_ccc' cell 'high' at data row 2"),
            (RESULTS_HEADER, "arousal,speech,lstm,3,7,0.001",
             "data row 2 has no 'val_ccc' cell"),
            (RESULTS_HEADER.replace("dimension,", ""), "speech,lstm,3,7,0.001,0.5,,c,,ok",
             "data row 1 has no 'dimension' cell"),
        ],
        ids=["shift_frames", "seed", "learning_rate", "val_ccc", "short_row", "no_dimension"],
    )
    def test_malformed_results_exit_2(self, tmp_path, capsys, header, bad_row, message):
        good_row = "arousal,speech,lstm,0,7,0.001,0.4,,c,,ok"
        results = tmp_path / "r.csv"
        results.write_text(f"{header}\n{good_row}\n{bad_row}\n")
        code = run_cli(["report", "--results", str(results), "--out", str(tmp_path / "o.md")])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


def line_break_cases(corpus_dir, tmp_path):
    """Per case, (argv, exit code, the path as the message shows it) for a
    command given a path that holds a line break."""
    config = write_config(tmp_path / "c.json", corpus_dir, train_manifest="x\ny.json")
    out = str(tmp_path / "o.csv")
    return {
        "config-train-manifest": (["train", "--config", str(config)], 2, "x\\ny.json"),
        "evaluate-pred": (["evaluate", "--pred", "x\ny.csv", "--truth",
                           str(corpus_dir / "train00_arousal.csv")], 2, "x\\ny.csv"),
        "train-config": (["train", "--config", str(tmp_path / "c\nd.json")], 1, "c\\nd.json"),
        "sweep-config": (["sweep", "--config", str(tmp_path / "c\rd.json")], 1, "c\\rd.json"),
        "cross-eval-config": (["cross-eval", "--config", "c\r\nd.json"], 1, "c\\r\\nd.json"),
        "train-out-dir": (["train", "--config", str(config), "--out-dir", f"{config}/o\nut"],
                          2, "o\\nut"),
        "synth-out-dir": (["synth", "--out-dir", f"{config}/o\rut"], 2, "o\\rut"),
        "extract-gaze-in": (["extract-gaze", "--in", "g\nz.csv", "--fps", "25", "--out", out],
                            2, "g\\nz.csv"),
        "fuse-speech": (["fuse", "--speech", "s\nz.csv", "--gaze",
                         str(corpus_dir / "train00_speech.csv"), "--out", out], 2, "s\\nz.csv"),
        "shift-annotations": (["shift", "--annotations", "a\x85z.csv", "--frames", "1",
                               "--out", out], 2, "a\\x85z.csv"),
        "report-results": (["report", "--results", "r\nz.csv", "--out", out], 2, "r\\nz.csv"),
    }


class TestOneLineErrors:
    @pytest.mark.parametrize("name", [
        "config-train-manifest", "evaluate-pred", "train-config",
        "sweep-config", "cross-eval-config", "train-out-dir", "synth-out-dir",
        "extract-gaze-in", "fuse-speech", "shift-annotations", "report-results",
    ])
    def test_path_with_line_break(self, corpus_dir, tmp_path, capsys, name):
        # The message quotes the path with its control characters escaped, so
        # it stays on one line; an output directory that cannot be made (here
        # beneath a regular file) is a data error, not a traceback.
        argv, code, shown = line_break_cases(corpus_dir, tmp_path)[name]
        assert run_cli(argv) == code
        err = capsys.readouterr().err
        prefix = "config error: " if code == 1 else "data error: "
        assert err.startswith(prefix) and shown in err, err
        assert err.endswith("\n") and err.count("\n") == 1 and "\r" not in err, err
        assert "Traceback" not in err


def unwritable_output_cases(corpus_dir, tmp_path):
    """Per case, (argv, the output the message names) for a command whose
    output file cannot be written: it lies beneath a regular file, or a
    directory holds its name."""
    blocker = tmp_path / "ok.json"
    blocker.write_text("{}")
    beneath = str(blocker / "x.csv")
    gaze = tmp_path / "gaze.csv"
    assert run_cli(["extract-gaze", "--in", str(corpus_dir / "train00_gaze.csv"),
                    "--fps", "25", "--out", str(gaze)]) == 0
    results = tmp_path / "r.csv"
    results.write_text(f"{RESULTS_HEADER}\narousal,speech,lstm,0,7,0.001,0.4,,c,,ok\n")
    config = str(write_config(tmp_path / "c.json", corpus_dir))
    cross = str(write_config(tmp_path / "x.json", corpus_dir,
                             test_manifest=str(corpus_dir / "manifest.json")))

    def occupied(name):  # an out-dir holding a directory named like an output file
        (tmp_path / f"out-{name}" / name).mkdir(parents=True)
        return str(tmp_path / f"out-{name}")

    return {
        "shift": (["shift", "--annotations", str(corpus_dir / "train00_arousal.csv"),
                   "--frames", "1", "--out", beneath], beneath),
        "extract-gaze": (["extract-gaze", "--in", str(corpus_dir / "train00_gaze.csv"),
                          "--fps", "25", "--out", beneath], beneath),
        "fuse": (["fuse", "--speech", str(corpus_dir / "train00_speech.csv"),
                  "--gaze", str(gaze), "--out", beneath], beneath),
        "report-markdown": (["report", "--results", str(results), "--out", beneath], beneath),
        "report-csv": (["report", "--results", str(results), "--format", "csv",
                        "--out", beneath], beneath),
        "train-results": (["train", "--config", config, "--out-dir",
                           occupied("intra_results.csv")], "intra_results.csv"),
        "train-report": (["train", "--config", config, "--out-dir",
                          occupied("intra_results.md")], "intra_results.md"),
        "train-improvements": (["train", "--config", config, "--out-dir",
                                occupied("improvements.json")], "improvements.json"),
        "cross-eval-results": (["cross-eval", "--config", cross, "--out-dir",
                                occupied("cross_results.csv")], "cross_results.csv"),
        "cross-eval-report": (["cross-eval", "--config", cross, "--out-dir",
                               occupied("cross_results.md")], "cross_results.md"),
        "sweep-results": (["sweep", "--config", config, "--out-dir",
                           occupied("sweep_results.csv")], "sweep_results.csv"),
        "sweep-best-shifts": (["sweep", "--config", config, "--out-dir",
                               occupied("best_shifts.json")], "best_shifts.json"),
        "synth-manifest": (["synth", "--out-dir", occupied("manifest.json"), "--frames", "60",
                            "--recordings", "1,1,1"], "manifest.json"),
    }


def no_training(monkeypatch):
    """Make any training run fail the test: an output check must come first."""
    def train_network(*args, **kwargs):
        raise AssertionError("trained before the output check")

    monkeypatch.setattr(experiments, "train_network", train_network)


class TestUnwritableOutput:
    @pytest.mark.parametrize("name", [
        "shift", "extract-gaze", "fuse", "report-markdown", "report-csv",
        "train-results", "train-report", "train-improvements", "sweep-results",
        "sweep-best-shifts", "cross-eval-results", "cross-eval-report", "synth-manifest",
    ])
    def test_exit_2_on_one_line(self, corpus_dir, tmp_path, capsys, monkeypatch, name):
        argv, shown = unwritable_output_cases(corpus_dir, tmp_path)[name]
        no_training(monkeypatch)
        capsys.readouterr()
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: cannot write output ") and shown in err, err
        assert err.count("\n") == 1 and "Traceback" not in err, err
        if argv[0] in ("train", "sweep", "cross-eval"):  # the check leaves no output behind
            assert [p.name for p in Path(argv[-1]).iterdir()] == [shown]

    def test_check_leaves_an_existing_output_as_it_was(self, corpus_dir, tmp_path, monkeypatch):
        config = write_config(tmp_path / "c.json", corpus_dir)
        out = tmp_path / "out"
        (out / "intra_results.md").mkdir(parents=True)
        (out / "intra_results.csv").write_text("kept\n")
        no_training(monkeypatch)
        assert run_cli(["train", "--config", str(config), "--out-dir", str(out)]) == 2
        assert (out / "intra_results.csv").read_text() == "kept\n"


class TestResourceFailures:
    def test_failed_allocation_exit_4_on_one_line(self, corpus_dir, tmp_path, capsys):
        # The config sets no size limit, so 10,000,000 units pass it; their
        # weights would take 2.84 PiB, so the allocation fails at once and
        # takes no memory.
        config = write_config(tmp_path / "c.json", corpus_dir,
                              networks=[{"kind": "lstm", "sizes": [10_000_000]}])
        capsys.readouterr()
        assert run_cli(["train", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("resource error: Unable to allocate"), err
        assert err.count("\n") == 1 and "Traceback" not in err, err

    def test_dead_worker_exit_4_on_one_line(self, corpus_dir, tmp_path, capsys, monkeypatch):
        # A pool worker that exits mid-task, as one killed for lack of memory
        # does: forked workers inherit the patched run_task. Two workers.
        def exit_at_once(task):
            os._exit(9)

        monkeypatch.setattr(experiments, "run_task", exit_at_once)
        monkeypatch.setattr(experiments, "ProcessPoolExecutor",
                            partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
        config = write_config(tmp_path / "c.json", corpus_dir)
        capsys.readouterr()
        assert run_cli(["sweep", "--config", str(config), "--out-dir", str(tmp_path / "o"),
                        "--jobs", "2", "--modality", "speech"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("resource error: "), err
        assert err.count("\n") == 1 and "Traceback" not in err, err
