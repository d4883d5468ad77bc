"""Eye-gaze affective feature extraction over sliding windows.

Produces a 31-dimensional feature vector per frame from raw gaze logs:
approach statistics on gaze distance, scan-path statistics over fixations,
per-axis distribution functionals and periodogram band powers, fixation-zone
coordinate spread, and eye-closure run-length statistics.

Invalid frames are excluded from all statistics; a window with zero valid
frames emits an all-zero vector so frame alignment is never broken.

All windows of a recording are computed together. The log is compacted to its
valid frames, so each frame's trailing window is a range [a, b) of the
compacted arrays. Run-length statistics clip one run table of the recording
to each range and sum run-length powers exactly in integers. Moments,
quantiles, band powers (a product with the cos/sin basis of DFT bins 1-12)
and zone spreads run on (windows, length) blocks of the windows of equal
length; spreads are two-pass grouped sums. I-DT uses a jump table: ext[s]
ends the longest run from s within the dispersion threshold (dispersion only
grows with the end), so a window's fixations are the chain s -> ext[s], or
s + 1 when that run is too short, from a, the last one cut at b; all chains
step together. The single-window functions call the same code with one range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .timeline import FeatureMatrix, FrameRate, GazeLog, frames_for_duration

# Fixed output order of the 31 gaze features.
_AXIS_STATS = ("mean", "iqr12", "iqr23", "std", "skew", *(f"psd_band{b}" for b in range(1, 6)))
GAZE_FEATURE_NAMES: tuple[str, ...] = (
    *("approach_ratio", "approach_time_ms", "scanpath_mean", "scanpath_std"),
    *(f"{a}_{s}" for a in "hv" for s in (*_AXIS_STATS, "zone_std_mean", "zone_std_std")),
    *("closure_runlen_mean", "closure_runlen_std", "closure_runlen_skew"),
)

# Periodogram bin groups for the five band-power features.
PSD_BIN_GROUPS: tuple[tuple[int, ...], ...] = ((1,), (2,), (3, 4), (5, 6), (7, 8, 9, 10, 11, 12))
_BANDS = np.array([[k in g for g in PSD_BIN_GROUPS] for k in range(1, 13)], dtype=float)
# Windows of one length are gathered in blocks of at most this many samples
# per axis, so memory does not grow with the recording's length.
_BLOCK_SAMPLES = 1 << 15


@dataclass(frozen=True)
class WindowSpec:
    """Sliding-window geometry: 4 s for arousal, 6 s for valence, 1-frame step."""

    size_seconds: float

    def __post_init__(self):
        if not self.size_seconds > 0:
            raise DataError("window size must be positive")


@dataclass(frozen=True)
class Fixation:
    start_frame: int
    end_frame: int
    centroid_h: float
    centroid_v: float


@dataclass(frozen=True)
class ZoneGrid:
    """Grid of fixation zones over a coordinate rectangle (default 3x3 on [-1,1]^2)."""

    rows: int = 3
    cols: int = 3
    h_min: float = -1.0
    h_max: float = 1.0
    v_min: float = -1.0
    v_max: float = 1.0

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise DataError("zone grid must have at least one row and column")
        if not (self.h_max > self.h_min and self.v_max > self.v_min):
            raise DataError("zone grid bounds are degenerate")

    def cells(self, h: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Cell index row * cols + col of each sample; the position on each
        axis is truncated toward zero, then clamped into the grid."""
        col = np.trunc((h - self.h_min) / (self.h_max - self.h_min) * self.cols)
        row = np.trunc((v - self.v_min) / (self.v_max - self.v_min) * self.rows)
        col = np.clip(col, 0, self.cols - 1).astype(np.intp)
        return np.clip(row, 0, self.rows - 1).astype(np.intp) * self.cols + col


@dataclass(frozen=True)
class FixationParams:
    """I-DT segmentation parameters (dispersion units, duration in seconds)."""

    dispersion_threshold: float = 0.05
    min_duration_seconds: float = 0.1


def _whole(n: int) -> tuple[np.ndarray, np.ndarray]:  # the single range [0, n)
    return np.array([0]), np.array([n])


def _run_sums(flags: np.ndarray, a: np.ndarray, b: np.ndarray):
    """(count, sum L, sum L^2, sum L^3) of the True runs of flags[a:b] per
    range, exact in int64; a run cut by a range end counts only inside it."""
    edges = np.diff(np.asarray(flags, dtype=np.int8), prepend=0, append=0)
    past = max(len(edges), np.max(b) + 1)  # an empty run after every range ends the table
    starts = np.append(np.flatnonzero(edges > 0), past)
    ends = np.append(np.flatnonzero(edges < 0), past)
    i = np.searchsorted(ends, a, side="right")  # first run ending after a
    last = np.searchsorted(starts, b) - 1  # last run starting before b
    count, j = np.maximum(last - i + 1, 0), np.maximum(last, 0)
    full = ends - starts
    cut_i = np.minimum(ends[i], b) - np.maximum(starts[i], a)
    cut_j = np.minimum(ends[j], b) - np.maximum(starts[j], a)
    sums = []
    for p in (1, 2, 3):
        prefix = np.concatenate(([0], np.cumsum(full**p)))
        total = prefix[j + 1] - prefix[i] - full[i] ** p + cut_i**p
        total += np.where(j > i, cut_j**p - full[j] ** p, 0)
        sums.append(np.where(count > 0, total, 0))
    return count, *sums


def _approach(distances: np.ndarray, a, b, frame_ms: float) -> np.ndarray:
    """(ratio, mean run time in ms) of approach frames per range."""
    runs, steps, _, _ = _run_sums(distances[1:] < distances[:-1], a, np.maximum(b - 1, a))
    return np.stack([steps / np.maximum(b - a - 1, 1), steps / np.maximum(runs, 1) * frame_ms], -1)


def _closure(closed: np.ndarray, a, b) -> np.ndarray:
    """(mean, population std, skew) of closed-eye run lengths per range, from
    the exact c^2 m2 = c S2 - S1^2 and c^3 m3 = c^2 S3 - 3c S1 S2 + 2 S1^3."""
    runs, s1, s2, s3 = _run_sums(closed, a, b)
    c = np.maximum(runs, 1)
    n2 = c * s2 - s1**2  # 0 when all runs have equal length, and then n3 is 0 too
    n3 = c * c * s3 - 3 * c * s1 * s2 + 2 * s1**3
    return np.stack([s1 / c, np.sqrt(n2) / c, n3 / np.maximum(n2, 1) ** 1.5], -1)


def _extents(h: np.ndarray, v: np.ndarray, threshold: float, limit: int) -> np.ndarray:
    """ext[s]: the largest e <= s + limit for which frames [s, e) have a
    bounding-box diagonal within threshold (at least s + 1)."""
    n = len(h)
    ext, s = np.arange(1, n + 1), np.arange(n)
    box = signed = np.stack([h, -h, v, -v])  # box: running max of each over [s, s + k]
    for k in range(1, limit):
        s = s[s + k < n]
        box = np.maximum(box[:, : len(s)], signed[:, s + k])
        inside = np.hypot(box[0] + box[1], box[2] + box[3]) <= threshold
        s, box = s[inside], box[:, inside]
        if not len(s):
            break
        ext[s] = s + k + 1
    return ext


def _fixations(ext: np.ndarray, a, b, min_frames: int):
    """I-DT fixations [start, end) of every range [a, b) as (range, start,
    end) arrays, sorted by range and in time order within it."""
    found = [(np.zeros(0, dtype=np.intp),) * 3]
    r, s = np.arange(len(a)), np.asarray(a)
    while True:
        live = s + min_frames <= b[r]
        r, s = r[live], s[live]
        if not len(r):
            break
        end = np.minimum(ext[s], b[r])
        hit = end >= s + min_frames
        found.append((r[hit], s[hit], end[hit]))
        s = np.where(hit, end, s + 1)
    r, start, end = (np.concatenate(parts) for parts in zip(*found))
    order = np.argsort(r, kind="stable")
    return r[order], start[order], end[order]


def _run_means(x: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Mean of x[start:end] for each pair, start < end."""
    sums = np.add.reduceat(np.append(x, 0.0), np.stack([start, end], -1).ravel())[::2]
    return sums / (end - start)


def _group_mean_std(keys: np.ndarray, x: np.ndarray, groups: int):
    """Per group: sample count, mean and population std (two-pass) of x."""
    count = np.bincount(keys, minlength=groups)
    n = np.maximum(count, 1)
    mean = np.bincount(keys, x, groups) / n
    return count, mean, np.sqrt(np.bincount(keys, (x - mean[keys]) ** 2, groups) / n)


def _path_stats(r: np.ndarray, ch: np.ndarray, cv: np.ndarray, ranges: int) -> np.ndarray:
    """(mean, population std) per range of the distances between consecutive
    fixation centroids; r holds each fixation's range, sorted."""
    same = r[1:] == r[:-1]
    segments = np.hypot(np.diff(ch), np.diff(cv))[same]
    return np.stack(_group_mean_std(r[1:][same], segments, ranges)[1:], -1)


def _functionals(x: np.ndarray) -> np.ndarray:
    """(mean, iqr12, iqr23, population std, skew) along the last axis, with
    linear quantiles; std and skew are 0 when the variance is below 1e-12."""
    q1, q2, q3 = np.quantile(x, [0.25, 0.5, 0.75], axis=-1)
    mean = x.mean(-1)
    centered = x - mean[..., None]
    squares = centered**2
    m2 = squares.mean(-1)
    live = m2 >= 1e-12
    skew = np.where(live, np.mean(squares * centered, -1) / np.where(live, m2, 1.0) ** 1.5, 0.0)
    return np.stack([mean, q2 - q1, q3 - q2, np.where(live, np.sqrt(m2), 0.0), skew], -1)


def _band_powers(x: np.ndarray) -> np.ndarray:
    """Five band powers along the last axis (length n) from the periodogram
    P_k = |DFT_k|^2 / n, k = 1..12, as a product with the cos/sin basis;
    bins k > n/2 give 0. Bins k >= 1 ignore a constant offset, so the series
    is taken relative to its first sample: a constant window gives exact 0."""
    n = x.shape[-1]
    k = np.arange(1, 13)
    angle = 2 * np.pi / n * (np.outer(np.arange(n), k) % n)
    shifted = x - x[..., :1]
    power = ((shifted @ np.cos(angle)) ** 2 + (shifted @ np.sin(angle)) ** 2) / n
    return (power * (2 * k <= n)) @ _BANDS


def _zone_spread(x: np.ndarray, cells: np.ndarray, n_cells: int) -> np.ndarray:
    """(mean, population std) along the last axis of the per-cell stds of x,
    over the cells (given per sample) that hold at least 2 samples."""
    series = np.arange(np.prod(x.shape[:-1])).reshape(*x.shape[:-1], 1)
    keys = (cells + n_cells * series).ravel()
    count, _, std = _group_mean_std(keys, x.ravel(), series.size * n_cells)
    kept = np.flatnonzero(count >= 2)
    spread = _group_mean_std(kept // n_cells, std[kept], series.size)[1:]
    return np.stack(spread, -1).reshape(*x.shape[:-1], 2)


def _features(h, v, closed, valid, lo, hi, limit, fps, fixation: FixationParams, grid: ZoneGrid):
    """All 31 features of every window [lo, hi) (at most `limit` frames) of
    a raw log, computed over its valid frames."""
    mask = np.asarray(valid, dtype=bool)
    before = np.concatenate(([0], np.cumsum(mask)))  # valid frames before each frame
    a, b = before[lo], before[hi]  # the windows as ranges of the valid frames
    h, v, closed = h[mask], v[mask], np.asarray(closed, dtype=bool)[mask]
    out = np.zeros((len(a), len(GAZE_FEATURE_NAMES)))
    out[:, :2] = _approach(np.hypot(h, v), a, b, fps.frame_ms)
    ext = _extents(h, v, fixation.dispersion_threshold, limit)
    r, start, end = _fixations(ext, a, b, frames_for_duration(fixation.min_duration_seconds, fps))
    out[:, 2:4] = _path_stats(r, _run_means(h, start, end), _run_means(v, start, end), len(a))
    lengths = b - a
    for n in np.unique(lengths[lengths > 0]):
        group = np.flatnonzero(lengths == n)
        for rows in np.array_split(group, -(-len(group) * n // _BLOCK_SAMPLES)):
            frames = a[rows, None] + np.arange(n)
            x = np.stack([h[frames], v[frames]])  # (axis, window, frame)
            zones = _zone_spread(x, grid.cells(*x), grid.rows * grid.cols)
            stats = np.concatenate([_functionals(x), _band_powers(x), zones], -1)
            out[rows, 4:28] = np.concatenate(stats, -1)  # h's 12 features, then v's
    out[:, 28:31] = _closure(closed, a, b)
    return out


def approach_stats(distances: np.ndarray, fps: FrameRate) -> tuple[float, float]:
    """Gaze-approach ratio and mean approach-run time in milliseconds.

    An approach frame is one whose gaze distance decreased from the previous
    frame; runs are maximal consecutive approach-frame sequences.
    """
    distances = np.asarray(distances, dtype=float)
    return tuple(_approach(distances, *_whole(len(distances)), fps.frame_ms)[0].tolist())


def segment_fixations(
    h: np.ndarray, v: np.ndarray, dispersion_threshold: float, min_duration_frames: int
) -> list[Fixation]:
    """Dispersion-threshold (I-DT) fixation segmentation.

    A fixation is a maximal run of at least `min_duration_frames` frames whose
    bounding-box diagonal stays within `dispersion_threshold`.
    """
    h, v = np.asarray(h, dtype=float), np.asarray(v, dtype=float)
    ext = _extents(h, v, dispersion_threshold, len(h))
    _, start, end = _fixations(ext, *_whole(len(h)), max(1, min_duration_frames))
    centroids = zip(_run_means(h, start, end).tolist(), _run_means(v, start, end).tolist())
    return [Fixation(s, e - 1, *c) for s, e, c in zip(start.tolist(), end.tolist(), centroids)]


def scan_path_stats(fixations: list[Fixation]) -> tuple[float, float]:
    """Mean and population std of distances between consecutive fixation centroids."""
    ch = np.array([f.centroid_h for f in fixations])
    cv = np.array([f.centroid_v for f in fixations])
    return tuple(_path_stats(np.zeros(len(fixations), dtype=np.intp), ch, cv, 1)[0].tolist())


def coordinate_functionals(series: np.ndarray) -> tuple[float, float, float, float, float]:
    """(mean, iqr12, iqr23, population std, skew) of a coordinate series.

    Quantiles use linear interpolation at index p*(N-1).
    """
    if len(series) == 0:
        raise DataError("coordinate series is empty")
    return tuple(_functionals(np.asarray(series, dtype=float)[None])[0].tolist())


def psd_band_powers(series: np.ndarray) -> np.ndarray:
    """Five periodogram band powers over low-frequency DFT bin groups.

    The series is mean-removed; P_k = |DFT_k|^2 / N. Bins above N/2 or beyond
    the available resolution contribute 0.
    """
    return _band_powers(np.asarray(series, dtype=float)[None])[0]


def fixation_zone_spread(
    h: np.ndarray, v: np.ndarray, grid: ZoneGrid
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Per-axis (mean, population std) of per-zone coordinate stds.

    Each sample is binned into its grid cell; cells with fewer than 2 samples
    are skipped. Returns ((h_mean, h_std), (v_mean, v_std)), zeros when no
    cell qualifies.
    """
    h, v = np.asarray(h, dtype=float), np.asarray(v, dtype=float)
    zones = _zone_spread(np.stack([h, v]), grid.cells(h, v), grid.rows * grid.cols)
    return tuple(tuple(zone) for zone in zones.tolist())


def eye_closure_stats(closed: np.ndarray) -> tuple[float, float, float]:
    """(mean, population std, skew) of closed-eye run lengths; zeros if none."""
    return tuple(_closure(np.asarray(closed, dtype=bool), *_whole(len(closed)))[0].tolist())


def window_features(
    h: np.ndarray,
    v: np.ndarray,
    closed: np.ndarray,
    valid: np.ndarray,
    fps: FrameRate,
    fixation: FixationParams,
    grid: ZoneGrid,
) -> np.ndarray:
    """Compute all 31 features for one window of raw gaze frames."""
    return _features(h, v, closed, valid, *_whole(len(h)), len(h), fps, fixation, grid)[0]


def extract_gaze_features(
    log: GazeLog,
    window: WindowSpec,
    fixation: FixationParams | None = None,
    grid: ZoneGrid | None = None,
) -> FeatureMatrix:
    """Windowed gaze features: one 31-dim row per frame (causal trailing window).

    Frame t uses the window [max(0, t-W+1), t] where W covers
    `window.size_seconds` at the log's frame rate; early frames use the
    truncated window.
    """
    fixation = fixation or FixationParams()
    grid = grid or ZoneGrid()
    w = frames_for_duration(window.size_seconds, log.fps)
    t = np.arange(len(log))
    lo, hi = np.maximum(t - w + 1, 0), t + 1
    rows = _features(log.h, log.v, log.eye_closed, log.valid, lo, hi, w, log.fps, fixation, grid)
    return FeatureMatrix(names=GAZE_FEATURE_NAMES, values=rows, fps=log.fps)
