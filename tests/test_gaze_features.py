import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gazeaffect.gaze_features as gf
from gazeaffect.gaze_features import (
    GAZE_FEATURE_NAMES,
    WindowSpec,
    approach_stats,
    coordinate_functionals,
    extract_gaze_features,
    eye_closure_stats,
    fixation_zone_spread,
    psd_band_powers,
    scan_path_stats,
    segment_fixations,
    window_features,
)
from gazeaffect.timeline import FrameRate, GazeLog, frames_for_duration

from conftest import random_gaze_log
from oracles import psd_bands_direct, window_features_direct

FPS = FrameRate(25.0)
DEFAULT_GRID_BOUNDS = (-1.0, 1.0, -1.0, 1.0)


def test_feature_name_count_and_uniqueness():
    assert len(GAZE_FEATURE_NAMES) == 31
    assert len(set(GAZE_FEATURE_NAMES)) == 31


class TestApproachStats:
    def test_strictly_decreasing(self):
        ratio, time_ms = approach_stats(np.linspace(10, 1, 100), FPS)
        assert ratio == 1.0
        assert time_ms == pytest.approx(99 * 40.0)

    def test_strictly_increasing(self):
        ratio, time_ms = approach_stats(np.linspace(1, 10, 100), FPS)
        assert ratio == 0.0 and time_ms == 0.0

    def test_hand_enumeration(self):
        # approach frames {1,3,4}: ratio 3/5; runs [1],[2] -> mean 1.5 -> 60 ms
        ratio, time_ms = approach_stats(np.array([3, 2, 3, 2, 1, 2.0]), FPS)
        assert ratio == pytest.approx(0.6)
        assert time_ms == pytest.approx(60.0)

    def test_single_frame(self):
        assert approach_stats(np.array([1.0]), FPS) == (0.0, 0.0)


class TestFixations:
    def test_constant_coordinates_single_fixation(self):
        h = np.full(10, 0.3)
        v = np.full(10, -0.2)
        fx = segment_fixations(h, v, 0.05, 3)
        assert len(fx) == 1
        assert (fx[0].start_frame, fx[0].end_frame) == (0, 9)
        assert fx[0].centroid_h == pytest.approx(0.3)

    def test_alternating_far_points_no_fixation(self):
        h = np.array([0.0, 1.0] * 5)
        v = np.zeros(10)
        assert segment_fixations(h, v, 0.05, 3) == []

    def test_two_clusters(self):
        h = np.array([0.0, 0.01, 0.0, 0.01, 0.5, 0.51, 0.5, 0.51])
        v = np.zeros(8)
        fx = segment_fixations(h, v, 0.05, 3)
        assert len(fx) == 2
        assert fx[0].centroid_h == pytest.approx(0.005)
        assert fx[1].centroid_h == pytest.approx(0.505)


class TestScanPath:
    def test_single_segment(self):
        fx = segment_fixations(
            np.array([0.0] * 4 + [3.0] * 4), np.array([0.0] * 4 + [4.0] * 4), 0.05, 3
        )
        mean, std = scan_path_stats(fx)
        assert mean == pytest.approx(5.0)
        assert std == 0.0

    def test_fewer_than_two_fixations(self):
        assert scan_path_stats([]) == (0.0, 0.0)

    def test_two_segments(self):
        fx = segment_fixations(
            np.array([0.0] * 3 + [3.0] * 3 + [3.0] * 3),
            np.array([0.0] * 3 + [4.0] * 3 + [16.0] * 3),
            0.05,
            3,
        )
        # centroids (0,0),(3,4),(3,16): segments 5 and 12
        mean, std = scan_path_stats(fx)
        assert mean == pytest.approx(8.5)
        assert std == pytest.approx(3.5)


class TestCoordinateFunctionals:
    def test_linear_series(self):
        mean, iqr12, iqr23, std, skew = coordinate_functionals(
            np.array([1.0, 2, 3, 4, 5])
        )
        assert mean == pytest.approx(3.0)
        assert iqr12 == pytest.approx(1.0)
        assert iqr23 == pytest.approx(1.0)
        assert std == pytest.approx(np.sqrt(2.0))
        assert skew == pytest.approx(0.0)

    def test_constant(self):
        assert coordinate_functionals(np.full(7, 4.2)) == (4.2, 0.0, 0.0, 0.0, 0.0)

    def test_symmetric_zero_skew(self):
        assert coordinate_functionals(np.array([1.0, 2, 3]))[4] == pytest.approx(0.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=40)
        shuffled = rng.permutation(x)
        assert coordinate_functionals(x) == pytest.approx(
            coordinate_functionals(shuffled)
        )


class TestPsdBands:
    def test_constant_all_zero(self):
        assert not psd_band_powers(np.full(100, 3.3)).any()  # exact 0

    def test_pure_bin2_cosine(self):
        t = np.arange(100)
        series = np.cos(2 * np.pi * 2 * t / 100)
        bands = psd_band_powers(series)
        assert bands[1] > 0.99 * bands.sum()

    def test_offset_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=80)
        assert psd_band_powers(x) == pytest.approx(psd_band_powers(x + 17.0))

    def test_non_negative(self):
        rng = np.random.default_rng(6)
        for n in (2, 3, 5, 10, 64, 150):
            assert (psd_band_powers(rng.normal(size=n)) >= 0).all()

    @pytest.mark.parametrize("n", [*range(1, 41), 150])
    def test_matches_direct_oracle(self, n):
        # Below 24 samples the real FFT has fewer than 12 bins past DC; at 1
        # and 2 samples it has none and one.
        series = np.random.default_rng(n).normal(size=n)
        assert np.abs(psd_band_powers(series) - psd_bands_direct(series.tolist())).max() < 1e-9


class TestZoneSpread:
    def test_single_constant_cell(self):
        h = np.full(5, 0.1)
        v = np.full(5, 0.1)
        assert fixation_zone_spread(h, v) == ((0.0, 0.0), (0.0, 0.0))

    def test_two_cells_known_stds(self):
        # Cell A: h in {0.0 +/- 0.1} -> std 0.1; cell B: {0.5 +/- 0.3}... place
        # clusters in distinct cells of the default 3x3 grid on [-1,1]^2.
        h = np.array([-0.6, -0.8, 0.5, 0.5 + 0.6])
        v = np.array([-0.5, -0.5, 0.5, 0.5])
        (h_mean, h_std), _ = fixation_zone_spread(h, v)
        assert h_mean == pytest.approx((0.1 + 0.3) / 2)
        assert h_std == pytest.approx(0.1)

    def test_no_cell_with_two_samples(self):
        h = np.array([-0.9, 0.0, 0.9])
        v = np.array([-0.9, 0.0, 0.9])
        assert fixation_zone_spread(h, v) == ((0.0, 0.0), (0.0, 0.0))


class TestEyeClosure:
    def test_hand_enumeration(self):
        mean, std, skew = eye_closure_stats(
            np.array([0, 0, 1, 1, 1, 0, 1, 0], dtype=bool)
        )
        assert mean == pytest.approx(2.0)
        assert std == pytest.approx(1.0)
        assert skew == pytest.approx(0.0)

    def test_all_open(self):
        assert eye_closure_stats(np.zeros(10, dtype=bool)) == (0.0, 0.0, 0.0)

    def test_all_closed(self):
        assert eye_closure_stats(np.ones(10, dtype=bool)) == (10.0, 0.0, 0.0)


def _with_track_loss(log: GazeLog, rng: np.random.Generator) -> GazeLog:
    """log with runs of 1-20 invalid frames (NaN coordinates) at random starts."""
    valid = log.valid.copy()
    for start in rng.choice(len(log), size=len(log) // 50, replace=False):
        valid[start : start + rng.integers(1, 21)] = False
    h, v = np.where(valid, log.h, np.nan), np.where(valid, log.v, np.nan)
    return GazeLog(h=h, v=v, eye_closed=log.eye_closed, valid=valid, fps=log.fps)


class TestExtraction:
    def test_output_shape(self):
        rng = np.random.default_rng(1)
        log = random_gaze_log(rng, 1000)
        matrix = extract_gaze_features(log, WindowSpec(4.0))
        assert matrix.values.shape == (1000, 31)
        assert matrix.names == GAZE_FEATURE_NAMES

    def test_constant_open_gaze_degenerate(self):
        n = 300
        log = GazeLog(
            h=np.full(n, 0.2),
            v=np.full(n, -0.1),
            eye_closed=np.zeros(n, dtype=bool),
            valid=np.ones(n, dtype=bool),
            fps=FPS,
        )
        matrix = extract_gaze_features(log, WindowSpec(4.0))
        assert np.isfinite(matrix.values).all()
        by_name = dict(zip(matrix.names, matrix.values[-1]))
        assert by_name["approach_ratio"] == 0.0
        assert by_name["scanpath_mean"] == 0.0
        assert all(by_name[f"h_psd_band{i}"] == 0.0 for i in range(1, 6))
        assert by_name["closure_runlen_mean"] == 0.0

    def test_all_invalid_window_is_zero(self):
        n = 50
        log = GazeLog(
            h=np.full(n, np.nan),
            v=np.full(n, np.nan),
            eye_closed=np.zeros(n, dtype=bool),
            valid=np.zeros(n, dtype=bool),
            fps=FPS,
        )
        matrix = extract_gaze_features(log, WindowSpec(4.0))
        assert np.array_equal(matrix.values, np.zeros((n, 31)))

    def test_all_closed_eyes_finite(self):
        n = 120
        log = GazeLog(
            h=np.zeros(n),
            v=np.zeros(n),
            eye_closed=np.ones(n, dtype=bool),
            valid=np.ones(n, dtype=bool),
            fps=FPS,
        )
        matrix = extract_gaze_features(log, WindowSpec(4.0))
        assert np.isfinite(matrix.values).all()

    def test_matches_brute_force_windows(self):
        rng = np.random.default_rng(42)
        log = random_gaze_log(rng, 600)
        matrix = extract_gaze_features(log, WindowSpec(4.0))
        w = frames_for_duration(4.0, FPS)
        min_dur = frames_for_duration(0.1, FPS)
        worst = 0.0
        for t in rng.choice(600, size=50, replace=False):
            lo = max(0, t - w + 1)
            expected = window_features_direct(
                log.h[lo : t + 1],
                log.v[lo : t + 1],
                log.eye_closed[lo : t + 1],
                log.valid[lo : t + 1],
                25.0,
                0.05,
                min_dur,
                3,
                3,
                DEFAULT_GRID_BOUNDS,
            )
            worst = max(worst, np.abs(matrix.values[t] - np.array(expected)).max())
        assert worst < 1e-9

    def test_approach_ratio_bounds_property(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            log = random_gaze_log(rng, 150)
            matrix = extract_gaze_features(log, WindowSpec(2.0))
            ratios = matrix.values[:, 0]
            assert ((ratios >= 0.0) & (ratios <= 1.0)).all()

    def test_order_sensitivity_split(self):
        # Permuting frames inside a window leaves the distribution functionals
        # unchanged but generally changes the order-sensitive features.
        rng = np.random.default_rng(8)
        n = 100
        h = np.cumsum(rng.normal(0, 0.05, n))
        v = np.cumsum(rng.normal(0, 0.05, n))
        perm = rng.permutation(n)
        ones = np.ones(n, dtype=bool)
        zeros = np.zeros(n, dtype=bool)
        a = window_features(h, v, zeros, ones, FPS)
        b = window_features(h[perm], v[perm], zeros, ones, FPS)
        for axis_base in (4, 16):
            assert a[axis_base : axis_base + 5] == pytest.approx(
                b[axis_base : axis_base + 5]
            )
        # approach stats differ for a generic permutation
        assert not np.allclose(a[:2], b[:2])

    def test_no_nan_inf_over_random_inputs(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            log = random_gaze_log(rng, 200, p_invalid=0.5, p_closed=0.5)
            matrix = extract_gaze_features(log, WindowSpec(1.0))
            assert np.isfinite(matrix.values).all()

    @pytest.mark.parametrize("block", [64, 8, 2048])
    def test_block_split_matches_one_block(self, monkeypatch, block):
        # Windows are gathered, sorted by valid length and padded, in blocks
        # of at most _BLOCK_SAMPLES samples; a budget of 8 is shorter than
        # one window, 2048 holds tens of windows of several lengths. With
        # bursts of track loss the full windows differ in valid length too,
        # so blocks mix lengths beyond the truncated early windows.
        rng = np.random.default_rng(11)
        steady = random_gaze_log(rng, 300, p_invalid=0.0)
        for log in (steady, _with_track_loss(steady, rng)):
            whole = extract_gaze_features(log, WindowSpec(2.0)).values
            with monkeypatch.context() as patch:
                patch.setattr(gf, "_BLOCK_SAMPLES", block)
                split = extract_gaze_features(log, WindowSpec(2.0)).values
            assert np.abs(split - whole).max() < 1e-12

    def test_one_row_per_frame(self):
        rng = np.random.default_rng(10)
        log = random_gaze_log(rng, 100)
        # 10 s covers 250 frames, longer than the 100-frame log.
        for seconds in (0.04, 0.5, 2.0, 4.0, 10.0):
            matrix = extract_gaze_features(log, WindowSpec(seconds))
            assert matrix.values.shape == (100, 31)


# Coordinates on a 1/64 grid: sums and differences are exact, and no
# bounding-box diagonal sqrt(i^2 + j^2) / 64 can fall within rounding of the
# 0.05 dispersion threshold (3.2 / 64), so the I-DT decisions are unambiguous.
_coordinates = st.integers(-160, 160).map(lambda i: i / 64.0)


@st.composite
def gaze_logs(draw):
    n = draw(st.integers(1, 40))
    style = draw(st.sampled_from(["random", "constant", "clusters", "bursts"]))
    if style == "constant":
        h = np.full(n, draw(_coordinates))
        v = np.full(n, draw(_coordinates))
    elif style in ("clusters", "bursts"):
        # Runs around one point, jittered by at most 1/64 per axis (diagonal
        # under 0.05): fixations that start before a window, or run past its
        # trailing edge.
        points = draw(st.lists(st.tuples(_coordinates, _coordinates), min_size=1, max_size=4))
        lengths = draw(st.lists(st.integers(1, 12), min_size=len(points), max_size=len(points)))
        n = sum(lengths)
        jitter = st.lists(st.integers(-1, 1), min_size=n, max_size=n)
        h = np.repeat([p[0] for p in points], lengths) + np.array(draw(jitter)) / 64.0
        v = np.repeat([p[1] for p in points], lengths) + np.array(draw(jitter)) / 64.0
    else:
        h = np.array(draw(st.lists(_coordinates, min_size=n, max_size=n)))
        v = np.array(draw(st.lists(_coordinates, min_size=n, max_size=n)))
    closed = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    if draw(st.booleans()):
        closed[:] = True
    if style == "bursts":
        # Track loss: runs of invalid frames, some cutting a fixation, so
        # windows of one trailing length differ in valid length.
        valid = np.ones(n, dtype=bool)
        runs = st.tuples(st.integers(0, n - 1), st.integers(1, 10))
        for start, length in draw(st.lists(runs, min_size=1, max_size=4)):
            valid[start : start + length] = False
    else:
        valid = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        if draw(st.booleans()):
            valid[:] = True
    h[~valid] = np.nan
    v[~valid] = np.nan
    return GazeLog(h=h, v=v, eye_closed=closed, valid=valid, fps=FPS)


@settings(max_examples=150, deadline=None)
@given(
    log=gaze_logs(),
    seconds=st.sampled_from([0.04, 0.12, 0.2, 0.4, 1.0, 2.0]),
    fps=st.sampled_from([10.0, 20.0, 25.0, 40.0, 50.0]),
)
def test_every_row_matches_oracle(log, seconds, fps):
    """Every frame's row equals the brute-force oracle on its own window.

    The log's frame rate sets the 0.1 s minimum fixation to 1-5 frames.
    Windows of 1-100 frames against those cover windows shorter than a
    fixation, fixations cut by the trailing edge and window starts inside a
    fixation; NaN runs, all-closed and constant logs, and coordinates
    outside (or below) the zone grid are drawn too.
    """
    log = dataclasses.replace(log, fps=FrameRate(fps))
    matrix = extract_gaze_features(log, WindowSpec(seconds))
    w = frames_for_duration(seconds, log.fps)
    min_dur = frames_for_duration(0.1, log.fps)
    for t in range(len(log)):
        lo = max(0, t - w + 1)
        expected = window_features_direct(
            log.h[lo : t + 1],
            log.v[lo : t + 1],
            log.eye_closed[lo : t + 1],
            log.valid[lo : t + 1],
            fps,
            0.05,
            min_dur,
            3,
            3,
            DEFAULT_GRID_BOUNDS,
        )
        assert np.abs(matrix.values[t] - np.array(expected)).max() < 1e-9, t
