import functools
import hashlib
import json
import math
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazeaffect import (
    ccc,
    experiments,
    load_corpus_manifest,
    load_model,
    predict_trace,
    save_model,
    shift_annotations,
)
from gazeaffect.errors import ConfigError, DataError
from gazeaffect.experiments import (
    DEFAULT_ANCHOR_FRAMES,
    DEFAULT_CHOSEN_FRAMES,
    ExperimentConfig,
    NetworkChoice,
    ResultRow,
    ResultsTable,
    load_results_csv,
    relative_improvement,
    render_report,
    run_cross_corpus,
    run_intra_corpus,
    run_shift_sweep,
    save_results_csv,
    sweep_shifts,
)
from gazeaffect.network import NOISE_SIGMA
from gazeaffect.synthetic import SyntheticCorpusSpec, generate_synthetic_corpus

from conftest import cross_shift_conversion

SMALL_NETWORKS = (NetworkChoice("lstm", (8, 6)), NetworkChoice("blstm", (8, 6)))


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    generate_synthetic_corpus(
        SyntheticCorpusSpec(seed=11, frames=200, train_recordings=2,
                            validation_recordings=1, test_recordings=1),
        root,
    )
    return root


def small_config(corpus_dir, **overrides):
    base = dict(
        train_manifest=corpus_dir / "manifest.json",
        dimension="arousal",
        networks=SMALL_NETWORKS,
        learning_rates=(1e-3,),
        seeds=(7,),
        max_epochs=3,
        patience_epochs=2,
        anchor_frames={"arousal": 6, "valence": 6},
        chosen_frames={"arousal": 0, "valence": 0},
        range_seconds=0.12,
        stride_frames=3,
        window_seconds={"arousal": 1.0, "valence": 1.0},
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_from_json_defaults(self, tmp_path, corpus_dir):
        p = tmp_path / "config.json"
        p.write_text(json.dumps({"train_manifest": str(corpus_dir / "manifest.json")}))
        config = ExperimentConfig.from_json(p)
        assert config.anchor_frames == {"arousal": 59, "valence": 78}
        assert config.chosen_frames == {"arousal": 69, "valence": 78}
        assert config.window_seconds == {"arousal": 4.0, "valence": 6.0}
        assert [(n.kind, n.sizes) for n in config.networks] == [
            ("blstm", (40, 30)),
            ("lstm", (80, 60)),
        ]
        assert config.seeds == (1787452436,)
        assert config.max_epochs == 100 and config.patience_epochs == 20
        assert NOISE_SIGMA == 0.1

    def test_partial_overrides_merge(self, tmp_path, corpus_dir):
        p = tmp_path / "config.json"
        p.write_text(json.dumps({
            "train_manifest": str(corpus_dir / "manifest.json"),
            "shift": {"anchor_frames": {"arousal": 40}},
            "window_seconds": {"valence": 2.0},
        }))
        config = ExperimentConfig.from_json(p)
        assert config.anchor_frames == {"arousal": 40, "valence": 78}
        assert config.window_seconds == {"arousal": 4.0, "valence": 2.0}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            ExperimentConfig.from_json(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            ExperimentConfig.from_json(p)

    def test_undecodable_bytes(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_bytes(b'{"train_manifest": "\xff"}')
        with pytest.raises(ConfigError, match="not valid JSON"):
            ExperimentConfig.from_json(p)

    def test_too_deeply_nested(self, tmp_path):
        # valid JSON that the parser cannot hold on its stack
        p = tmp_path / "deep.json"
        p.write_text('{"train_manifest": ' + "[" * 100_000 + "]" * 100_000 + "}")
        with pytest.raises(ConfigError, match="config is not valid JSON: maximum recursion"):
            ExperimentConfig.from_json(p)

    def test_missing_required_field(self, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text("{}")
        with pytest.raises(ConfigError, match="train_manifest"):
            ExperimentConfig.from_json(p)

    @pytest.mark.parametrize(
        "extra, field",
        [
            ({"shift": 5}, "shift"),
            ({"shift": {"stride_frames": [3]}}, "shift.stride_frames"),
            pytest.param({"networks": [{"kind": "lstm", "sizes": ["x"]}]}, "networks.0.sizes",
                         id="extra2-networks"),
            ({"training": {"seeds": 7}}, "training.seeds"),
            pytest.param({"window_seconds": {"arousal": "long"}}, "window_seconds.arousal",
                         id="extra4-window_seconds"),
            ({"jobs": None}, "jobs"),
            ({"train_manifest": 3}, "train_manifest"),
            ({"training": {"max_epochs": 2.9}}, "training.max_epochs"),
            ({"training": {"patience_epochs": True}}, "training.patience_epochs"),
            ({"training": {"batch_sequences": 1.0}}, "training.batch_sequences"),
            ({"training": {"seeds": [1.5]}}, "training.seeds"),
            ({"jobs": True}, "jobs"),
            ({"shift": {"stride_frames": 3.5}}, "shift.stride_frames"),
            pytest.param({"networks": [{"kind": "lstm", "sizes": [8.0]}]}, "networks.0.sizes",
                         id="extra13-networks"),
            pytest.param({"shift": {"anchor_frames": {"arousal": 2.5}}},
                         "shift.anchor_frames.arousal", id="extra14-shift.anchor_frames"),
            pytest.param({"shift": {"chosen_frames": {"arousal": "3"}}},
                         "shift.chosen_frames.arousal", id="extra15-shift.chosen_frames"),
            pytest.param({"shift": {"cross_overrides": {"arousal": False}}},
                         "shift.cross_overrides.arousal", id="extra16-shift.cross_overrides"),
            pytest.param({"shift": {"chosen_frames": {"arousal": -3}}},
                         "shift.chosen_frames.arousal", id="extra17-shift.chosen_frames"),
            pytest.param({"shift": {"cross_overrides": {"arousal": -1}}},
                         "shift.cross_overrides.arousal", id="extra18-shift.cross_overrides"),
            ({"cross_both_directions": "false"}, "cross_both_directions"),
            ({"cross_both_directions": 1}, "cross_both_directions"),
            pytest.param({"window_seconds": {"arousal": 0}}, "window_seconds.arousal",
                         id="extra21-window_seconds"),
            pytest.param({"window_seconds": {"valence": float("nan")}}, "window_seconds.valence",
                         id="extra22-window_seconds"),
            ({"shift": {"range_seconds": -0.5}}, "shift.range_seconds"),
            ({"modalities": "speech"}, "modalities"),
            ({"shift": {"stride_frames": 0}}, "shift.stride_frames"),
            ({"shift": {"stride_frames": -3}}, "shift.stride_frames"),
            ({"training": {"learning_rate": [1e-3]}}, "training.learning_rate"),
            ({"max_epochs": 2}, "max_epochs"),
            ({"shfit": {"stride_frames": 3}}, "shfit"),
            ({"training": {"momentum": 0.9}}, "training.momentum"),
            pytest.param({"networks": [{"sizes": [8]}]}, "networks.0", id="extra31-networks"),
            ({"shift": {"chosen_frames": {"arousl": 3}}}, "shift.chosen_frames.arousl"),
            ({"shift": {"anchor_frames": {"Arousal": 3}}}, "shift.anchor_frames.Arousal"),
            ({"shift": {"cross_overrides": {"valance": None}}}, "shift.cross_overrides.valance"),
            ({"window_seconds": {"arousal": 4.0, "dominance": 2.0}}, "window_seconds.dominance"),
            ({"out_dir": "o\u0000"}, "out_dir"),
            ({"training": {"seeds": [-1]}}, "training.seeds"),
            ({"training": {"seeds": [1, -1]}}, "training.seeds"),
            pytest.param({"gaze_columns": {"h": ["x"]}}, "gaze_columns.h",
                         id="extra39-gaze_columns"),
            ({"gaze_columns": {"h": "h", "bogus": "z"}}, "gaze_columns.bogus"),
            pytest.param({"window_seconds": {"arousal": 10**400}}, "window_seconds.arousal",
                         id="extra41-window_seconds"),
            ({"training": {"learning_rates": [10**400]}}, "training.learning_rates"),
            ({"shift": {"range_seconds": True}}, "shift.range_seconds"),
            pytest.param({"window_seconds": {"arousal": "4"}}, "window_seconds.arousal",
                         id="extra44-window_seconds"),
            ({"training": {"learning_rates": [False]}}, "training.learning_rates"),
            ({"test_manifest": False}, "test_manifest"),
            ({"networks": [{"kind": "lstm", "sizes": [4], "dropout": 0.5}]},
             "networks.0.dropout"),
            ({"networks": [{"kind": 4, "sizes": [4]}]}, "networks.0.kind"),
            ({"train_manifest": "m\udd00.json"}, "train_manifest"),
            pytest.param({"shift": {"anchor_frames": {"arousal": -50}}},
                         "shift.anchor_frames.arousal", id="extra50-shift.anchor_frames"),
        ],
    )
    def test_malformed_field_names_it(self, tmp_path, corpus_dir, extra, field):
        doc = {"train_manifest": str(corpus_dir / "manifest.json"), **extra}
        with pytest.raises(ConfigError, match=f"'{field}'"):
            ExperimentConfig.from_dict(doc, base=tmp_path)

    @pytest.mark.parametrize("section, value", [("shift", 5), ("training", None), ("shift", [1])])
    def test_section_not_an_object(self, tmp_path, corpus_dir, section, value):
        doc = {"train_manifest": str(corpus_dir / "manifest.json"), section: value}
        with pytest.raises(ConfigError) as excinfo:
            ExperimentConfig.from_dict(doc, base=tmp_path)
        assert str(excinfo.value) == (
            f"config field '{section}' must be a JSON object, not {type(value).__name__}"
        )

    def test_unknown_keys_reported_together(self, tmp_path, corpus_dir):
        doc = {
            "train_manifest": str(corpus_dir / "manifest.json"),
            "shfit": {}, "training": {"momentum": 0.9, "max_epochs": 3, "patience_epochs": 2},
            "shift": {"chosen_frames": {"arousl": 3}}, "gaze_columns": {"bogus": "z"},
        }
        with pytest.raises(ConfigError) as excinfo:
            ExperimentConfig.from_dict(doc, base=tmp_path)
        assert str(excinfo.value) == (
            "unknown config field(s) 'shfit', 'training.momentum', "
            "'shift.chosen_frames.arousl', 'gaze_columns.bogus'"
        )

    def test_partial_maps_merge_over_defaults_in_dimension_order(self, tmp_path, corpus_dir):
        doc = {
            "train_manifest": str(corpus_dir / "manifest.json"),
            "window_seconds": {"valence": 2.0},
            "shift": {"anchor_frames": {"valence": 40, "arousal": 3},
                      "cross_overrides": {"valence": 1, "arousal": None}},
        }
        config = ExperimentConfig.from_dict(doc, base=tmp_path)
        assert list(config.window_seconds.items()) == [("arousal", 4.0), ("valence", 2.0)]
        assert list(config.anchor_frames.items()) == [("arousal", 3), ("valence", 40)]
        assert list(config.chosen_frames.items()) == [("arousal", 69), ("valence", 78)]
        assert list(config.cross_overrides.items()) == [("valence", 1), ("arousal", None)]

    def test_code_built_config_round_trips(self, tmp_path, corpus_dir):
        # to_dict is the document a config file would hold, and from_dict reads it back
        config = small_config(
            corpus_dir, test_manifest=corpus_dir / "manifest.json", out_dir=tmp_path / "out",
            modalities=["gaze", "speech"], cross_overrides={"valence": 4, "arousal": None},
            gaze_columns={"h": "gx"}, learning_rates=(1e-3, 1), jobs=2,
            cross_both_directions=True,
        )
        doc = json.loads(json.dumps(config.to_dict()))
        assert doc["shift"]["chosen_frames"] == {"arousal": 0, "valence": 0}
        assert doc["networks"] == [{"kind": "lstm", "sizes": [8, 6]},
                                   {"kind": "blstm", "sizes": [8, 6]}]
        assert ExperimentConfig.from_dict(doc, base=tmp_path / "elsewhere") == config
        assert config.modalities == ("gaze", "speech") and config.learning_rates == (1e-3, 1.0)

    @pytest.mark.parametrize("columns", [None, {"h": "gx"}])
    def test_gaze_columns_null_or_partial(self, tmp_path, corpus_dir, columns):
        doc = {"train_manifest": str(corpus_dir / "manifest.json"), "gaze_columns": columns}
        assert ExperimentConfig.from_dict(doc, base=tmp_path).gaze_columns == columns

    def test_cross_overrides_int_or_null(self, tmp_path, corpus_dir):
        doc = {
            "train_manifest": str(corpus_dir / "manifest.json"),
            "shift": {"cross_overrides": {"arousal": None, "valence": 4}},
        }
        config = ExperimentConfig.from_dict(doc, base=tmp_path)
        assert config.cross_overrides == {"arousal": None, "valence": 4}

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(networks=(NetworkChoice("gru", (8,)),)), "unknown layer kind"),
            (dict(networks=(NetworkChoice("blstm", (7,)),)), "even"),
            (dict(patience_epochs=3), "patience_epochs"),
            (dict(learning_rates=(1e-3, 0.0)), "learning rate"),
            (dict(networks=(NetworkChoice("lstm", (4,)), NetworkChoice("lstm", (6,)))),
             "'networks' needs distinct kinds"),
            pytest.param(dict(jobs=0), r"'jobs' is invalid: expected at least 1, got 0$",
                         id="overrides5-'jobs' needs jobs >= 1"),
            pytest.param(dict(modalities=("speech", "fused", "speech")),
                         r"'modalities' is invalid: expected distinct values, "
                         r"got \('speech', 'fused', 'speech'\)",
                         id="overrides6-'modalities' needs distinct values"),
            pytest.param(dict(learning_rates=(1e-3, 0.001)),
                         r"'training.learning_rates' is invalid: expected distinct values, "
                         r"got \(0.001, 0.001\)",
                         id="overrides7-'training.learning_rates' needs distinct values"),
            pytest.param(dict(seeds=(7, 7)),
                         r"'training.seeds' is invalid: expected distinct values, got \(7, 7\)",
                         id=r"overrides8-'training.seeds' needs distinct values, got \[7, 7\]"),
            pytest.param(dict(chosen_frames={"arousal": -3, "valence": 78}),
                         r"'shift.chosen_frames.arousal' is invalid: expected at least 0, got -3$",
                         id="overrides9-'shift.chosen_frames' needs frames >= 0"),
            pytest.param(dict(cross_overrides={"arousal": None, "valence": -1}),
                         r"'shift.cross_overrides.valence' is invalid: expected at least 0, "
                         r"got -1$", id="overrides10-'shift.cross_overrides' needs frames >= 0"),
            pytest.param(dict(anchor_frames={"arousal": -50}),
                         r"'shift.anchor_frames.arousal' is invalid: expected at least 0, got -50$",
                         id="overrides11-'shift.anchor_frames' needs frames >= 0"),
            (dict(window_seconds={"Arousal": 4.0}),
             r"^unknown config field\(s\) 'window_seconds.Arousal'$"),
            (dict(gaze_columns={"h": "x", "bogus": "z"}),
             r"^unknown config field\(s\) 'gaze_columns.bogus'$"),
            (dict(chosen_frames={"valance": 3}, cross_overrides={"arousl": 1}),
             r"^unknown config field\(s\) 'shift.chosen_frames.valance', "
             r"'shift.cross_overrides.arousl'$"),
            # a value built in code is read as a config file's: only its JSON types pass
            (dict(stride_frames=2.5), r"'shift.stride_frames' is invalid: .* got 2.5$"),
            (dict(jobs=1.5), r"'jobs' is invalid: .* got 1.5$"),
            (dict(gaze_columns={"h": 3}), r"'gaze_columns.h' is invalid: .* got 3$"),
            (dict(cross_overrides={"arousal": 3.7}),
             r"'shift.cross_overrides.arousal' is invalid: .* got 3.7$"),
            (dict(window_seconds={"arousal": "4"}),
             r"'window_seconds.arousal' is invalid: .* got '4'$"),
            (dict(learning_rates=(np.float64(1e-3),)),  # numpy 2 writes np.float64(0.001)
             r"'training.learning_rates' is invalid: expected a number, got \S*0.001\)?$"),
            (dict(seeds=(np.int64(7),)),
             r"'training.seeds' is invalid: expected an integer, got \S*7\)?$"),
            (dict(window_seconds=4.0), r"^config field 'window_seconds' must be a JSON object"),
            (dict(train_manifest=3), r"'train_manifest' is invalid: expected a string, got 3$"),
        ],
    )
    def test_grid_values_are_config_errors(self, corpus_dir, overrides, message):
        with pytest.raises(ConfigError, match=message):
            small_config(corpus_dir, **overrides)

    def test_bad_dimension(self, corpus_dir):
        with pytest.raises(ConfigError, match=r"'dimension' is invalid: .* got 'anger'$"):
            small_config(corpus_dir, dimension="anger")

    def test_bad_modality(self, corpus_dir):
        with pytest.raises(ConfigError, match=r"'modalities' is invalid: .* got 'video'$"):
            small_config(corpus_dir, modalities=("speech", "video"))

    def test_empty_grid(self, corpus_dir):
        with pytest.raises(ConfigError):
            small_config(corpus_dir, learning_rates=())


class TestSweepGrid:
    def test_default_grid_covers_anchor_band(self, corpus_dir):
        config = ExperimentConfig(train_manifest=corpus_dir / "manifest.json")
        shifts = sweep_shifts(config, 25.0, 200)
        # the grid reaches within one stride of both edges of the 59 +/- 25 band
        assert 59 - 25 <= min(shifts) < 59 - 25 + 3
        assert 59 + 25 - 3 < max(shifts) <= 59 + 25
        assert 59 in shifts
        assert all(b - a == 3 for a, b in zip(shifts, shifts[1:]))

    def test_clamped_at_zero(self, corpus_dir):
        config = small_config(
            corpus_dir,
            anchor_frames={"arousal": 2, "valence": 2},
            range_seconds=1.0,
            stride_frames=5,
        )
        shifts = sweep_shifts(config, 25.0, 200)
        assert shifts[0] == 0
        assert all(s >= 0 for s in shifts)

    def test_stride_beyond_range_single_anchor(self, corpus_dir):
        config = small_config(
            corpus_dir,
            anchor_frames={"arousal": 50, "valence": 50},
            range_seconds=0.2,
            stride_frames=6,
        )
        assert sweep_shifts(config, 25.0, 200) == [50]

    def test_anchor_always_in_grid(self, corpus_dir):
        for stride in (1, 2, 3, 7, 100):
            config = ExperimentConfig(train_manifest=corpus_dir / "manifest.json",
                                      stride_frames=stride)
            assert 59 in sweep_shifts(config, 25.0, 200)

    def test_default_grid(self, corpus_dir):
        config = ExperimentConfig(train_manifest=corpus_dir / "manifest.json")
        assert sweep_shifts(config, 25.0, 7500) == list(range(35, 84, 3))

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 120), st.integers(1, 12), st.floats(0, 3), st.sampled_from([25.0, 30.0]),
        st.integers(1, 200),
    )
    def test_matches_enumerated_grid(self, anchor, stride, range_seconds, fps, trace_frames):
        config = ExperimentConfig(
            train_manifest=Path("manifest.json"),
            anchor_frames={"arousal": anchor}, range_seconds=range_seconds, stride_frames=stride,
        )
        steps = int(round(range_seconds * fps)) // stride
        grid = sorted({max(0, anchor + k * stride) for k in range(-steps, steps + 1)})
        if grid[-1] < trace_frames:
            assert sweep_shifts(config, fps, trace_frames) == grid
        else:
            first = min(s for s in grid if s >= trace_frames)
            with pytest.raises(DataError) as excinfo:
                sweep_shifts(config, fps, trace_frames)
            assert str(excinfo.value) == f"shift of {first} frames >= trace length {trace_frames}"

    def test_code_built_map_fills_missing_dimensions(self):
        # a valence config whose anchors name only arousal sweeps the protocol's valence band
        config = ExperimentConfig(
            train_manifest=Path("manifest.json"), dimension="valence",
            anchor_frames={"arousal": 5}, range_seconds=0.12,
        )
        assert config.anchor_frames == {"arousal": 5, "valence": 78}
        assert sweep_shifts(config, 25.0, 200) == [75, 78, 81]

    @pytest.mark.parametrize("range_seconds", [1e5, 1e300, 1.7e308])
    def test_huge_range_rejected_before_the_grid_is_built(self, corpus_dir, range_seconds):
        # 1.7e308 s is finite, but not in frames: range_seconds * fps overflows to inf
        config = small_config(
            corpus_dir,
            anchor_frames={"arousal": 5}, range_seconds=range_seconds,
        )
        with pytest.raises(DataError, match=r"^shift of 62 frames >= trace length 60$"):
            sweep_shifts(config, 25.0, 60)


class TestRelativeImprovement:
    def test_arousal_published_cells(self):
        assert round(100 * relative_improvement(0.754, 0.742), 2) == 1.62

    def test_valence_published_cells(self):
        assert round(100 * relative_improvement(0.277, 0.261), 2) == 6.13

    def test_zero_baseline(self):
        assert math.isnan(relative_improvement(0.5, 0.0))


class TestShiftSweep:
    def test_sweep_runs_and_picks_best(self, corpus_dir):
        config = small_config(corpus_dir, modalities=("speech",))
        table, best = run_shift_sweep(config, modality="speech")
        shifts = sweep_shifts(config, 25.0, 200)
        assert len(table.rows) == len(shifts) * len(SMALL_NETWORKS)
        assert set(best) == {"lstm", "blstm"}
        for kind, shift in best.items():
            candidates = [r for r in table.rows if r.network == kind]
            top = max(candidates, key=lambda r: r.val_ccc)
            assert shift == top.shift_frames

    def test_best_shift_from_each_cells_lowest_sse_run(self, corpus_dir, monkeypatch):
        # A runaway run (huge SSE) whose CCC rounds to 0 must not beat the
        # cell's real runs, whose CCC is slightly negative.
        def fake_row(task):
            row = task.row
            if row.learning_rate > 1:
                row.val_sse, row.val_ccc = 1e60, 0.0
            else:
                row.val_sse, row.val_ccc = 10.0, -0.001 * (1 + abs(row.shift_frames - 6))
            return row

        monkeypatch.setattr(experiments, "_task_row", fake_row)
        config = small_config(corpus_dir, networks=(NetworkChoice("lstm", (4,)),),
                              learning_rates=(1e30, 1e-3))
        table, best = run_shift_sweep(config, modality="speech")
        assert [r.shift_frames for r in table.rows] == [3, 3, 6, 6, 9, 9]
        assert best == {"lstm": 6}

    def test_best_shift_keeps_the_first_row_on_ties(self, corpus_dir, monkeypatch):
        # seed 7 wins every cell on SSE; among tied CCCs the first shift in grid
        # order wins, and seed 8's higher CCC is never its cell's run
        config = small_config(corpus_dir, networks=(NetworkChoice("lstm", (4,)),), seeds=(7, 8))
        for cccs, shift in (({3: 0.5, 6: 0.5, 9: 0.5}, 3), ({3: 0.4, 6: 0.5, 9: 0.5}, 6)):
            def fake_row(task, cccs=cccs):
                row = task.row
                row.val_sse = 10.0 + row.seed
                row.val_ccc = 0.9 if row.seed == 8 else cccs[row.shift_frames]
                return row

            monkeypatch.setattr(experiments, "_task_row", fake_row)
            _, best = run_shift_sweep(config, modality="speech")
            assert best == {"lstm": shift}


class TestIntraCorpus:
    def test_table_structure_and_improvements(self, corpus_dir):
        config = small_config(corpus_dir)
        table, improvements = run_intra_corpus(config)
        # one row per (modality x network) cell with a single-point grid
        assert len(table.rows) == 6
        cells = {(r.modality, r.network) for r in table.rows}
        assert cells == {
            (m, k) for m in ("speech", "gaze", "fused") for k in ("lstm", "blstm")
        }
        assert all(r.test_ccc is not None for r in table.rows if r.status == "ok")
        for kind in ("lstm", "blstm"):
            entry = improvements[kind]
            expected = relative_improvement(
                entry["fused_ccc"], entry["best_unimodal_ccc"]
            )
            assert entry["relative_improvement"] == pytest.approx(expected)

    def test_deterministic_rerun(self, corpus_dir):
        config = small_config(corpus_dir, modalities=("speech",))
        a, _ = run_intra_corpus(config)
        b, _ = run_intra_corpus(config)
        assert a.sorted_rows() == b.sorted_rows()

    def test_divergent_runs_marked(self, corpus_dir):
        config = small_config(
            corpus_dir,
            modalities=("speech",),
            networks=(NetworkChoice("lstm", (8,)),),
            learning_rates=(1e30,),
            max_epochs=10,
        )
        with np.errstate(all="ignore"):
            table, improvements = run_intra_corpus(config)
        assert [r.status for r in table.rows] == ["div"]
        assert improvements == {}

    def test_inputs_not_mutated(self, corpus_dir):
        def digest():
            return {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(corpus_dir.iterdir())
            }

        before = digest()
        run_intra_corpus(small_config(corpus_dir, modalities=("speech",)))
        assert digest() == before


class TestCrossCorpus:
    def test_requires_test_manifest(self, corpus_dir):
        with pytest.raises(ConfigError, match="test manifest"):
            run_cross_corpus(small_config(corpus_dir))

    def test_same_fps_direction(self, corpus_dir, tmp_path):
        other = tmp_path / "other"
        generate_synthetic_corpus(
            SyntheticCorpusSpec(name="other", seed=12, frames=200,
                                train_recordings=2, validation_recordings=1,
                                test_recordings=1),
            other,
        )
        config = small_config(
            corpus_dir,
            test_manifest=other / "manifest.json",
            modalities=("speech",),
            networks=(NetworkChoice("lstm", (8,)),),
        )
        table, models = run_cross_corpus(config)
        assert len(table.rows) == 1
        row = table.rows[0]
        assert row.train_corpus == "synth" and row.test_corpus == "other"
        assert row.test_ccc is not None
        conv = models[0].metadata["shift_conversion"]
        assert conv["train_shift_frames"] == conv["test_shift_frames"] == 0
        # run_task sets what train_network leaves unset
        assert (models[0].dimension, models[0].shift_used) == (row.dimension, row.shift_frames)
        assert models[0].norm_stats is not None
        assert list(models[0].metadata) == [
            "seed", "learning_rate", "best_epoch", "best_val_sse",
            "modality", "network", "shift_conversion",
        ]

    def test_both_directions(self, corpus_dir, tmp_path):
        other = tmp_path / "other2"
        generate_synthetic_corpus(
            SyntheticCorpusSpec(name="other2", seed=13, frames=200,
                                train_recordings=2, validation_recordings=1,
                                test_recordings=1),
            other,
        )
        config = small_config(
            corpus_dir,
            test_manifest=other / "manifest.json",
            modalities=("speech",),
            networks=(NetworkChoice("lstm", (8,)),),
            cross_both_directions=True,
        )
        table, _ = run_cross_corpus(config)
        assert {(r.train_corpus, r.test_corpus) for r in table.rows} == {
            ("synth", "other2"),
            ("other2", "synth"),
        }

    @pytest.mark.parametrize("override", [None, 13])
    def test_shift_conversion_metadata(self, corpus_dir, corpus_30fps, monkeypatch, override):
        # 7 frames at 25 fps are 8.4 at 30 fps; an override replaces the 8 on the test side
        conv, applied = cross_shift_conversion(
            monkeypatch, corpus_dir / "manifest.json", corpus_30fps / "manifest.json",
            "arousal", 7, override,
        )
        test_shift = 8 if override is None else override
        assert conv == {
            "train_shift_frames": 7,
            "test_shift_frames": test_shift,
            "computed_frames": 8,
            "override_frames": override,
        }
        # the 25 fps train and validation traces move by 7, the 30 fps test traces by test_shift
        assert applied == [(25.0, 7), (30.0, test_shift)]

    def test_saved_models_give_back_their_test_ccc(self, corpus_dir, corpus_30fps, tmp_path):
        # 7 frames at 25 fps are 8 at 30 fps, and 7 at 30 fps are 6 at 25 fps
        config = small_config(
            corpus_dir,
            test_manifest=corpus_30fps / "manifest.json",
            modalities=("speech", "gaze"),
            networks=(NetworkChoice("lstm", (4,)),),
            chosen_frames={"arousal": 7},
            cross_both_directions=True,
        )
        table, models = run_cross_corpus(config)
        assert [r.status for r in table.rows] == ["ok"] * 4
        test_recordings = {}
        for root in (corpus_dir, corpus_30fps):
            manifest = load_corpus_manifest(root / "manifest.json")
            recs = experiments.load_corpus_data(manifest, "arousal", 1.0, None, config.modalities)
            test_recordings[manifest.corpus_name] = [r for r in recs if r.partition == "test"]
        shifts = set()
        for i, (row, model) in enumerate(zip(table.rows, models)):
            save_model(model, tmp_path / f"model{i}.json")
            loaded = load_model(tmp_path / f"model{i}.json")
            assert list(model.metadata) == list(loaded.metadata) == [
                "seed", "learning_rate", "best_epoch", "best_val_sse", "modality", "network",
                "shift_conversion",
            ]
            assert loaded.metadata["modality"] == row.modality
            frames = loaded.metadata["shift_conversion"]["test_shift_frames"]
            shifts.add(frames)
            test = test_recordings[row.test_corpus]
            preds = [predict_trace(loaded, r.features[row.modality]) for r in test]
            truth = [shift_annotations(r.annotation, frames).values for r in test]
            assert ccc(np.concatenate(preds), np.concatenate(truth)) == row.test_ccc
        assert shifts == {6, 8}

    def test_shift_too_large_for_a_float(self, corpus_dir, corpus_30fps):
        # rejected against the training traces before it is converted to 30 fps
        config = small_config(
            corpus_dir,
            test_manifest=corpus_30fps / "manifest.json",
            modalities=("speech",),
            chosen_frames={"arousal": 10**400},
        )
        with pytest.raises(DataError, match=r"^shift of 10{400} frames >= trace length 200$"):
            run_cross_corpus(config)

    def test_feature_name_mismatch(self, corpus_dir, tmp_path):
        other = tmp_path / "narrow"
        generate_synthetic_corpus(
            SyntheticCorpusSpec(name="narrow", seed=14, frames=200, speech_dim=4,
                                train_recordings=2, validation_recordings=1,
                                test_recordings=1),
            other,
        )
        config = small_config(
            corpus_dir,
            test_manifest=other / "manifest.json",
            modalities=("speech",),
            networks=(NetworkChoice("lstm", (8,)),),
        )
        with pytest.raises(DataError, match="feature-name mismatch"):
            run_cross_corpus(config)


@pytest.fixture(scope="module")
def corpus_30fps(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus30")
    generate_synthetic_corpus(
        SyntheticCorpusSpec(name="thirty", seed=15, frames=240, fps=30.0,
                            train_recordings=2, validation_recordings=1,
                            test_recordings=1),
        root,
    )
    return root


class TestGridExecution:
    @pytest.mark.parametrize("run", [run_intra_corpus, run_shift_sweep], ids=lambda f: f.__name__)
    def test_jobs_2_matches_jobs_1(self, corpus_dir, run):
        # the intra-corpus improvements or the sweep's best shifts
        config = small_config(corpus_dir, seeds=(7, 8))
        serial, serial_summary = run(config)
        config.jobs = 2
        pooled, pooled_summary = run(config)
        assert pooled.rows == serial.rows
        assert pooled_summary == serial_summary

    def test_pool_no_larger_than_the_task_list(self, monkeypatch):
        sizes = []

        class RecordingPool:  # runs in this process; records the size it was asked for
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(experiments, "_worker", [])
        assert experiments._execute(abs, [-1, -2, -3], 8) == [1, 2, 3]
        assert experiments._execute(abs, [-4], 8) == [4]
        assert experiments._execute(abs, [], 8) == []
        assert sizes == [3]

    def test_spawned_workers_match_jobs_1(self, corpus_dir, monkeypatch):
        # Workers that start from a fresh interpreter receive the task list
        # pickled, as under spawn or forkserver, instead of inherited by fork.
        spawn = functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")
        )
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", spawn)
        config = small_config(
            corpus_dir, modalities=("speech",), networks=(NetworkChoice("lstm", (4,)),),
            seeds=(7, 8),
        )
        serial, serial_imp = run_intra_corpus(config)
        config.jobs = 2
        pooled, pooled_imp = run_intra_corpus(config)
        assert pooled.rows == serial.rows
        assert pooled_imp == serial_imp

    def test_bytes_sent_per_task_do_not_grow_with_recording_length(
        self, tmp_path, monkeypatch
    ):
        sent = []

        class MeasuredPool(ProcessPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                sent.append(len(pickle.dumps((fn, args, kwargs))))
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", MeasuredPool)
        per_length = []
        for frames in (100, 800):
            root = tmp_path / str(frames)
            generate_synthetic_corpus(SyntheticCorpusSpec(seed=3, frames=frames), root)
            config = small_config(
                root, modalities=("speech",), networks=(NetworkChoice("lstm", (4,)),),
                seeds=(7, 8), max_epochs=2, patience_epochs=1, jobs=2,
            )
            sent.clear()
            table, _ = run_intra_corpus(config)
            assert len(sent) == len(table.rows) == 2
            per_length.append(list(sent))
        assert per_length[0] == per_length[1]

    def test_result_returned_per_sweep_task_does_not_grow_with_network_width(
        self, corpus_dir, monkeypatch
    ):
        # a sweep keeps only rows, so its workers send back no trained model
        returned = []

        class MeasuredPool(ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                for result in super().map(fn, *iterables, **kwargs):
                    returned.append(len(pickle.dumps(result)))
                    yield result

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", MeasuredPool)
        per_width = []
        for width in (4, 64):
            config = small_config(
                corpus_dir, networks=(NetworkChoice("lstm", (width,)),),
                max_epochs=2, patience_epochs=1, jobs=2,
            )
            returned.clear()
            table, _ = run_shift_sweep(config)
            assert len(returned) == len(table.rows) == 3
            per_width.append(max(returned))
        assert per_width[1] <= per_width[0] + 8  # "ok" and "div" rows differ by a byte

    def test_jobs_2_matches_jobs_1_cross(self, corpus_dir, corpus_30fps):
        config = small_config(
            corpus_dir,
            test_manifest=corpus_30fps / "manifest.json",
            modalities=("speech", "fused"),
            seeds=(7, 8),
            cross_both_directions=True,
        )
        serial, serial_models = run_cross_corpus(config)
        config.jobs = 2
        pooled, pooled_models = run_cross_corpus(config)
        assert pooled.rows == serial.rows
        assert len(pooled_models) == len(serial_models) == len(serial.rows)
        for a, b in zip(pooled_models, serial_models):
            assert a.metadata == b.metadata
            assert np.array_equal(a.params.theta, b.params.theta)

    def test_cross_both_directions_featurize_each_corpus_once(
        self, corpus_dir, corpus_30fps, monkeypatch
    ):
        calls = []
        load = experiments.load_corpus_data

        def counting(manifest, *args, **kwargs):
            calls.append(manifest.corpus_name)
            return load(manifest, *args, **kwargs)

        monkeypatch.setattr(experiments, "load_corpus_data", counting)
        config = small_config(
            corpus_dir,
            test_manifest=corpus_30fps / "manifest.json",
            modalities=("speech",),
            networks=(NetworkChoice("lstm", (8,)),),
            chosen_frames={"arousal": 5, "valence": 5},
            cross_both_directions=True,
        )
        table, models = run_cross_corpus(config)
        assert calls == ["synth", "thirty"]
        assert [(r.train_corpus, r.test_corpus) for r in table.rows] == [
            ("synth", "thirty"),
            ("thirty", "synth"),
        ]
        # 5 frames: 6 at 30 fps, and 5 * 25 / 30 rounds to 4 at 25 fps
        conv = [m.metadata["shift_conversion"]["test_shift_frames"] for m in models]
        assert conv == [6, 4]


def toy_table():
    rows = [
        ResultRow("arousal", m, k, 69, 1, 1e-5, val_sse=1.0,
                  val_ccc=0.1 * i, train_corpus="toy")
        for i, (m, k) in enumerate(
            (m, k) for m in ("speech", "gaze", "fused") for k in ("lstm", "blstm")
        )
    ]
    return ResultsTable(rows=rows)


class TestReports:
    def test_markdown_shape_and_bolding(self, tmp_path):
        path = tmp_path / "report.md"
        render_report(toy_table(), "markdown", path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2 + 6
        bold = [ln for ln in lines[2:] if "**" in ln]
        assert len(bold) == 1
        assert "**0.5000**" in bold[0]

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "report.csv"
        table = toy_table()
        save_results_csv(table, path)
        back = load_results_csv(path)
        assert len(back.rows) == 6
        for a, b in zip(table.sorted_rows(), back.sorted_rows()):
            assert (a.modality, a.network, a.shift_frames, a.seed) == (
                b.modality, b.network, b.shift_frames, b.seed
            )
            assert b.val_ccc == pytest.approx(a.val_ccc, abs=5e-5)

    def test_csv_round_trip_keeps_every_cell(self, tmp_path):
        table = ResultsTable(rows=[
            ResultRow("arousal", "fused", "blstm", 69, 8, 1e30, status="div",
                      train_corpus="a", test_corpus="b"),
            ResultRow("arousal", "speech", "lstm", 69, 7, 1e-3, val_ccc=0.25,
                      train_corpus="a"),
            ResultRow("valence", "gaze", "lstm", 78, 7, 1e-5, val_ccc=-0.125, test_ccc=0.5,
                      train_corpus="a", test_corpus="b"),
        ])
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        save_results_csv(table, first)
        save_results_csv(load_results_csv(first), second)
        assert first.read_bytes() == second.read_bytes() == (
            "dimension,modality,network,shift_frames,seed,learning_rate,"
            "val_ccc,test_ccc,train_corpus,test_corpus,status\r\n"
            "arousal,fused,blstm,69,8,1e+30,div,,a,b,div\r\n"
            "arousal,speech,lstm,69,7,0.001,0.2500,,a,,ok\r\n"
            "valence,gaze,lstm,78,7,1e-05,-0.1250,0.5000,a,b,ok\r\n"
        ).encode()

    def test_older_csv_reads_with_column_defaults(self, tmp_path):
        path = tmp_path / "old.csv"
        path.write_text("dimension,modality,network,shift_frames,seed,learning_rate,"
                        "val_ccc,test_ccc\narousal,speech,lstm,69,7,0.001,0.2500,\n")
        [row] = load_results_csv(path).rows
        assert row == ResultRow("arousal", "speech", "lstm", 69, 7, 1e-3, val_ccc=0.25)
        assert (row.test_ccc, row.status, row.train_corpus, row.test_corpus) == (None, "ok", "", "")

    @pytest.mark.parametrize(
        "cccs, statuses, bold",
        [
            ((0.5, 0.5, 0.1), ("ok", "ok", "ok"), 0),  # the first of two equal best rows
            ((math.nan, 0.1, 0.2), ("div", "ok", "ok"), 2),
            ((math.nan, 0.1, 0.2), ("ok", "ok", "ok"), 2),  # an ok row read back with no CCC
            ((0.9, 0.1, 0.2), ("div", "ok", "ok"), 2),
        ],
    )
    def test_markdown_bolds_the_first_best_ok_row(self, tmp_path, cccs, statuses, bold):
        table = ResultsTable(rows=[
            ResultRow("arousal", "speech", "lstm", 0, seed, 1e-3, val_ccc=c, status=status)
            for seed, c, status in zip((1, 2, 3), cccs, statuses)
        ])
        path = tmp_path / "report.md"
        render_report(table, "markdown", path)
        rows = path.read_text().splitlines()[2:]
        assert ["**" in line for line in rows] == [i == bold for i in range(3)]

    def test_nan_ccc_rendered_as_div(self, tmp_path):
        table = ResultsTable(rows=[
            ResultRow("arousal", "speech", "lstm", 0, 1, 1e-5, status="div")
        ])
        path = tmp_path / "div.csv"
        save_results_csv(table, path)
        assert ",div," in path.read_text()
        assert math.isnan(load_results_csv(path).rows[0].val_ccc)

    def test_empty_table_error(self, tmp_path):
        with pytest.raises(DataError, match="empty"):
            render_report(ResultsTable(), "csv", tmp_path / "x.csv")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError, match="format"):
            render_report(toy_table(), "yaml", tmp_path / "x.yaml")
