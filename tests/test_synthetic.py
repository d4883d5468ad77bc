import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from gazeaffect.errors import DataError
from gazeaffect.metrics import ccc
from gazeaffect.synthetic import (
    SPEECH_SIGNAL_COLUMN,
    SyntheticCorpusSpec,
    generate_synthetic_corpus,
)
from gazeaffect.timeline import (
    FrameRate,
    load_annotation_csv,
    load_corpus_manifest,
    load_feature_csv,
    load_gaze_log_csv,
)


def tree_digest(root: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.iterdir())
        if p.is_file()
    }


class TestDeterminism:
    def test_byte_identical_regeneration(self, tmp_path):
        spec = SyntheticCorpusSpec(seed=17, frames=120)
        generate_synthetic_corpus(spec, tmp_path / "a")
        generate_synthetic_corpus(spec, tmp_path / "b")
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_seed_changes_content(self, tmp_path):
        generate_synthetic_corpus(SyntheticCorpusSpec(seed=1, frames=120), tmp_path / "a")
        generate_synthetic_corpus(SyntheticCorpusSpec(seed=2, frames=120), tmp_path / "b")
        assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "b")

    def test_recordings_differ_within_corpus(self, tmp_path):
        generate_synthetic_corpus(SyntheticCorpusSpec(seed=3, frames=120), tmp_path)
        a = (tmp_path / "train00_speech.csv").read_bytes()
        b = (tmp_path / "train01_speech.csv").read_bytes()
        assert a != b


class TestStructure:
    def test_manifest_loads_and_partitions(self, tmp_path):
        path = generate_synthetic_corpus(SyntheticCorpusSpec(seed=5, frames=100), tmp_path)
        manifest = load_corpus_manifest(path)
        counts = tuple(
            len(manifest.partition(name)) for name in ("train", "validation", "test")
        )
        assert counts == (3, 2, 2)
        assert manifest.corpus_name == "synth"

    def test_files_parse_with_standard_loaders(self, tmp_path):
        generate_synthetic_corpus(SyntheticCorpusSpec(seed=6, frames=150), tmp_path)
        fps = FrameRate(25.0)
        speech = load_feature_csv(tmp_path / "test01_speech.csv", fps)
        assert speech.n_frames == 150
        assert speech.names[0] == SPEECH_SIGNAL_COLUMN
        log = load_gaze_log_csv(tmp_path / "test01_gaze.csv", fps)
        assert len(log) == 150
        for dim in ("arousal", "valence"):
            trace = load_annotation_csv(tmp_path / f"test01_{dim}.csv", dim, fps)
            assert len(trace) == 150
            assert np.abs(trace.values).max() <= 1.0

    def test_gaze_coordinates_bounded(self, tmp_path):
        generate_synthetic_corpus(SyntheticCorpusSpec(seed=7, frames=200), tmp_path)
        log = load_gaze_log_csv(tmp_path / "train00_gaze.csv", FrameRate(25.0))
        assert np.abs(log.h).max() <= 1.0
        assert np.abs(log.v).max() <= 1.0

    def test_invalid_specs_rejected(self):
        with pytest.raises(DataError):
            SyntheticCorpusSpec(frames=50, lag_frames=50)
        with pytest.raises(DataError):
            SyntheticCorpusSpec(noise_level=-0.1)


class TestSignalContent:
    def test_noise_free_zero_lag_annotation_predictable(self, tmp_path):
        # With no noise and no lag, arousal should be well explained by the
        # clean speech channel alone when speech dominates the mixture.
        spec = SyntheticCorpusSpec(
            seed=8, frames=300, noise_level=0.0, lag_frames=0,
            speech_weight=1.0, gaze_weight=0.0,
        )
        generate_synthetic_corpus(spec, tmp_path)
        fps = FrameRate(25.0)
        speech = load_feature_csv(tmp_path / "train00_speech.csv", fps)
        trace = load_annotation_csv(tmp_path / "train00_arousal.csv", "arousal", fps)
        assert ccc(speech.values[:, 0], 2.0 * trace.values) > 0.98

    def test_lag_moves_annotation(self, tmp_path):
        base = dict(seed=8, frames=300, noise_level=0.0, speech_weight=1.0, gaze_weight=0.0)
        generate_synthetic_corpus(SyntheticCorpusSpec(lag_frames=0, **base), tmp_path / "a")
        generate_synthetic_corpus(SyntheticCorpusSpec(lag_frames=25, **base), tmp_path / "b")
        fps = FrameRate(25.0)
        t0 = load_annotation_csv(tmp_path / "a" / "train00_arousal.csv", "arousal", fps)
        t1 = load_annotation_csv(tmp_path / "b" / "train00_arousal.csv", "arousal", fps)
        assert t0.values[:275] == pytest.approx(t1.values[25:])

    def test_dimensions_swap_mixture_weights(self, tmp_path):
        spec = SyntheticCorpusSpec(
            seed=10, frames=300, noise_level=0.0,
            speech_weight=1.0, gaze_weight=0.0,
        )
        generate_synthetic_corpus(spec, tmp_path)
        fps = FrameRate(25.0)
        speech = load_feature_csv(tmp_path / "train00_speech.csv", fps)
        arousal = load_annotation_csv(tmp_path / "train00_arousal.csv", "arousal", fps)
        valence = load_annotation_csv(tmp_path / "train00_valence.csv", "valence", fps)
        assert ccc(speech.values[:, 0], 2.0 * arousal.values) > 0.9
        # valence uses the gaze latent under these weights
        assert ccc(speech.values[:, 0], 2.0 * valence.values) < 0.5

    def test_manifest_json_is_stable(self, tmp_path):
        path = generate_synthetic_corpus(SyntheticCorpusSpec(seed=11, frames=100), tmp_path)
        doc = json.loads(path.read_text())
        assert {r["partition"] for r in doc["recordings"]} == {
            "train", "validation", "test"
        }
        assert all(set(r["annotations"]) == {"arousal", "valence"} for r in doc["recordings"])
