import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazeaffect.errors import DataError
from gazeaffect.fusion import (
    convert_shift,
    denormalize_target,
    fit_norm_stats,
    fuse_features,
    normalize_features,
    normalize_target,
    shift_annotations,
)
from gazeaffect.timeline import AnnotationTrace, FeatureMatrix, FrameRate

FPS25 = FrameRate(25.0)
FPS30 = FrameRate(30.0)


def trace(values, fps=FPS25, dimension="arousal"):
    return AnnotationTrace(dimension=dimension, values=np.asarray(values, float), fps=fps)


def matrix(values, names=None, fps=FPS25):
    values = np.asarray(values, float)
    names = tuple(names or [f"f{i}" for i in range(values.shape[1])])
    return FeatureMatrix(names=names, values=values, fps=fps)


class TestShiftAnnotations:
    def test_shift_by_two(self):
        out = shift_annotations(trace([0.1, 0.2, 0.3, 0.4, 0.5]), 2)
        assert out.values == pytest.approx([0.3, 0.4, 0.5, 0.0, 0.0])

    def test_zero_shift_identity(self):
        t = trace([0.4, -0.2, 0.6])
        out = shift_annotations(t, 0)
        assert np.array_equal(out.values, t.values)

    def test_max_shift(self):
        out = shift_annotations(trace([0.4, -0.2, 0.6]), 2)
        assert out.values == pytest.approx([0.6, 0.0, 0.0])

    def test_shift_too_large(self):
        with pytest.raises(DataError, match="shift of 2 frames >= trace length 2"):
            shift_annotations(trace([0.1, 0.2]), 2)

    def test_negative_shift(self):
        with pytest.raises(DataError, match="shift frames must be non-negative"):
            shift_annotations(trace([0.1, 0.2]), -1)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(-1, 1), min_size=2, max_size=60),
        st.integers(0, 20),
        st.integers(0, 20),
    )
    def test_composition_property(self, values, j, k):
        n = len(values)
        if j + k >= n:
            return
        t = trace(values)
        lhs = shift_annotations(shift_annotations(t, j), k)
        rhs = shift_annotations(t, j + k)
        assert len(lhs) == n
        assert lhs.values == pytest.approx(rhs.values)


class TestConvertShift:
    def test_arousal_paper_conversion(self):
        assert convert_shift(69, FPS25, FPS30) == 83  # 82.8 rounded

    def test_valence_paper_conversion(self):
        assert convert_shift(78, FPS25, FPS30) == 94  # 93.6 rounded

    def test_identity_fps(self):
        frames = convert_shift(42, FPS25, FPS25)
        assert frames == 42 and type(frames) is int


class TestFuseFeatures:
    def test_119_feature_fusion(self):
        rng = np.random.default_rng(0)
        speech = matrix(rng.normal(size=(100, 88)), [f"s{i}" for i in range(88)])
        gaze = matrix(rng.normal(size=(100, 31)), [f"g{i}" for i in range(31)])
        fused = fuse_features(speech, gaze)
        assert fused.values.shape == (100, 119)
        assert fused.names[:88] == speech.names
        assert fused.names[88:] == gaze.names

    def test_restriction_to_first_modality(self):
        rng = np.random.default_rng(1)
        a = matrix(rng.normal(size=(10, 4)))
        b = matrix(rng.normal(size=(10, 2)), ["x", "y"])
        fused = fuse_features(a, b)
        assert np.array_equal(fused.values[:, :4], a.values)

    def test_frame_count_mismatch(self):
        a = matrix(np.zeros((1000, 2)))
        b = matrix(np.zeros((999, 2)), ["x", "y"])
        with pytest.raises(DataError, match="1000 vs 999"):
            fuse_features(a, b)

    def test_fps_mismatch(self):
        a = matrix(np.zeros((5, 1)))
        b = matrix(np.zeros((5, 1)), ["x"], fps=FPS30)
        with pytest.raises(DataError, match="fps"):
            fuse_features(a, b)

    def test_name_collision_suffixed(self):
        a = matrix(np.zeros((5, 1)), ["mean"])
        b = matrix(np.ones((5, 1)), ["mean"])
        fused = fuse_features(a, b)
        assert fused.names == ("mean_speech", "mean_gaze")


class TestNormStats:
    def test_single_feature_two_values(self):
        stats = fit_norm_stats(
            [matrix([[1.0], [3.0]])], [trace([0.5, 0.5])]
        )
        assert stats.feature_means[0] == pytest.approx(2.0)
        assert stats.feature_stds[0] == pytest.approx(1.0)

    def test_constant_feature_guard(self):
        stats = fit_norm_stats([matrix([[7.0], [7.0]])], [trace([0.1, 0.2])])
        assert stats.feature_stds[0] == 1.0

    def test_pooled_over_recordings(self):
        stats = fit_norm_stats(
            [matrix([[0.0], [0.0]]), matrix([[2.0], [2.0]])],
            [trace([0.0, 0.0]), trace([0.5, 0.5])],
        )
        assert stats.feature_means[0] == pytest.approx(1.0)
        assert stats.feature_stds[0] == pytest.approx(1.0)

    def test_empty_training_set(self):
        with pytest.raises(DataError):
            fit_norm_stats([], [])

    def test_forward_then_inverse_identity(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(-1, 1, 100)
        stats = fit_norm_stats([matrix(rng.normal(size=(100, 3)))], [trace(values)])
        back = denormalize_target(normalize_target(values, stats), stats)
        assert back == pytest.approx(values, abs=1e-12)

    def test_forward_normalizes_training_pool(self):
        rng = np.random.default_rng(3)
        mats = [matrix(rng.normal(2, 3, size=(50, 4))) for _ in range(3)]
        traces = [trace(rng.uniform(-1, 1, 50)) for _ in range(3)]
        stats = fit_norm_stats(mats, traces)
        pooled = np.concatenate([normalize_features(m, stats) for m in mats])
        assert pooled.mean(axis=0) == pytest.approx(np.zeros(4), abs=1e-12)
        assert pooled.std(axis=0) == pytest.approx(np.ones(4), abs=1e-12)

    def test_known_zscore(self):
        stats = fit_norm_stats([matrix([[2.0], [4.0]])], [trace([0.0, 0.0])])
        out = normalize_features(matrix([[2.0], [4.0]]), stats)
        assert out[:, 0] == pytest.approx([-1.0, 1.0])

    def test_name_mismatch(self):
        stats = fit_norm_stats([matrix(np.zeros((3, 2)))], [trace([0.0, 0.0, 0.0])])
        with pytest.raises(DataError):
            normalize_features(matrix(np.zeros((3, 2)), ["other", "names"]), stats)

    def test_validation_data_never_influences_stats(self):
        rng = np.random.default_rng(4)
        train_m = [matrix(rng.normal(size=(20, 2)))]
        train_t = [trace(rng.uniform(-1, 1, 20))]
        val_values = rng.normal(size=(20, 2))
        stats_before = fit_norm_stats(train_m, train_t)
        val_values *= 100.0  # mutate validation data
        stats_after = fit_norm_stats(train_m, train_t)
        assert np.array_equal(stats_before.feature_means, stats_after.feature_means)
        assert np.array_equal(stats_before.feature_stds, stats_after.feature_stds)

    def test_round_trip_dict(self, tmp_path):
        # to_dict is read back through the model file, the one place stats are stored
        from gazeaffect.network import (
            LayerSpec, NetworkSpec, TrainedModel, init_network, load_model, save_model,
        )

        stats = fit_norm_stats(
            [matrix(np.array([[1.0, 2.0], [3.0, 4.0]]))], [trace([0.1, 0.3])]
        )
        spec = NetworkSpec((LayerSpec("lstm", 2),), input_dim=2)
        save_model(TrainedModel(spec, init_network(spec, 0), stats), tmp_path / "m.json")
        back = load_model(tmp_path / "m.json").norm_stats
        assert back.to_dict() == stats.to_dict()
        assert back.feature_names == stats.feature_names
        assert back.target_mean == stats.target_mean
