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
quantiles, band powers and zone spreads run on (windows, length) blocks: the
windows, sorted by length, are gathered into rows padded to the block's
longest, and each statistic reads the first n samples of its row (quantiles
from a sort with the padding last, masked moments and spreads, and one real
FFT per distinct length for periodogram bins 1-12); spreads are two-pass
grouped sums. I-DT uses a jump table: ext[s] ends the longest run from s
within the dispersion threshold (dispersion only grows with the end), so a
window's fixations are the chain s -> ext[s], or s + 1 when that run is too
short, from a, the last one cut at b; all chains step together. The
single-window functions call the same code with one range.
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
# Windows are gathered in blocks of at most this many padded samples per axis
# (windows of any lengths, padded to the block's longest), so memory does not
# grow with the recording's length.
_BLOCK_SAMPLES = 1 << 15
# I-DT fixations: bounding-box diagonal within the threshold (coordinate
# units) for at least the minimum duration.
DISPERSION_THRESHOLD = 0.05
MIN_FIXATION_SECONDS = 0.1
# Fixation zones: a ZONE_GRID x ZONE_GRID grid of equal cells on [-1, 1]^2.
ZONE_GRID = 3


@dataclass(frozen=True)
class WindowSpec:
    """Sliding-window geometry: 4 s for arousal, 6 s for valence, 1-frame step."""

    size_seconds: float

    def __post_init__(self):
        if not 0 < self.size_seconds < np.inf:
            raise DataError(f"window size must be positive and finite, got {self.size_seconds}")


@dataclass(frozen=True)
class Fixation:
    start_frame: int
    end_frame: int
    centroid_h: float
    centroid_v: float


def _zone_cells(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Zone-grid cell index row * ZONE_GRID + col of each sample; the position
    on each axis is truncated toward zero, then clamped into the grid."""
    col, row = (np.clip(np.trunc((x - -1.0) / 2.0 * ZONE_GRID), 0, ZONE_GRID - 1).astype(np.intp)
                for x in (h, v))
    return row * ZONE_GRID + col


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


def _group_mean_std(keys: np.ndarray, x: np.ndarray, count: np.ndarray):
    """Per group (keys index count, the groups' sample counts): mean and
    population std (two-pass) of x."""
    n = np.maximum(count, 1)
    mean = np.bincount(keys, x, len(count)) / n
    return mean, np.sqrt(np.bincount(keys, (x - mean[keys]) ** 2, len(count)) / n)


def _path_stats(r: np.ndarray, ch: np.ndarray, cv: np.ndarray, ranges: int) -> np.ndarray:
    """(mean, population std) per range of the distances between consecutive
    fixation centroids; r holds each fixation's range, sorted."""
    same = r[1:] == r[:-1]
    segments, keys = np.hypot(np.diff(ch), np.diff(cv))[same], r[1:][same]
    return np.stack(_group_mean_std(keys, segments, np.bincount(keys, minlength=ranges)), -1)


def _mask(x: np.ndarray, n: np.ndarray) -> np.ndarray:
    """(rows, L) mask of the first n[row] samples of each padded row of x."""
    return np.arange(x.shape[-1]) < n[:, None]


def _functionals(x: np.ndarray, n: np.ndarray) -> np.ndarray:
    """(mean, iqr12, iqr23, population std, skew) of the first n samples of
    each row (last axis), with linear quantiles at p(n - 1); std and skew are
    0 when the variance is below 1e-12."""
    mask = _mask(x, n)
    ordered = np.where(mask, x, np.inf)  # padding sorts last
    ordered.sort(-1)
    at = np.multiply.outer(n - 1, [0.25, 0.5, 0.75])
    below = np.floor(at).astype(np.intp)
    lo, hi = (
        np.take_along_axis(ordered, np.broadcast_to(i, x.shape[:-1] + (3,)), -1)
        for i in (below, np.minimum(below + 1, n[:, None] - 1))
    )
    q1, q2, q3 = np.moveaxis(lo + (hi - lo) * (at - below), -1, 0)
    mean = np.where(mask, x, 0.0).sum(-1) / n
    centered = x - mean[..., None]
    centered *= mask
    powers = centered**2
    m2 = powers.sum(-1) / n
    live = m2 >= 1e-12
    m3 = np.multiply(powers, centered, out=powers).sum(-1) / n
    skew = np.where(live, m3 / np.where(live, m2, 1.0) ** 1.5, 0.0)
    return np.stack([mean, q2 - q1, q3 - q2, np.where(live, np.sqrt(m2), 0.0), skew], -1)


def _band_powers(x: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Five band powers of the first n samples of each row (last axis; n
    ascending) from the periodogram P_k = |DFT_k|^2 / n, k = 1..12: one real
    FFT per distinct length over that length's rows, whose bins stop at
    n // 2, so higher bins give 0. Bins k >= 1 ignore a constant offset, so
    each series is taken relative to its first sample: a constant window
    gives exact 0."""
    power = np.zeros(x.shape[:-1] + (12,))
    lengths, starts, counts = np.unique(n, return_index=True, return_counts=True)
    for length, s, c in zip(lengths.tolist(), starts.tolist(), counts.tolist()):
        rows = x[..., s : s + c, :length]
        dft = np.fft.rfft(rows - rows[..., :1])[..., 1:13]
        power[..., s : s + c, : dft.shape[-1]] = (dft.real**2 + dft.imag**2) / length
    return power @ _BANDS


def _zone_spread(x: np.ndarray, n: np.ndarray, cells: np.ndarray, n_cells: int) -> np.ndarray:
    """Per axis and row of x (axis, row, sample): (mean, population std) of
    the per-cell stds of the row's first n samples, over the cells that hold
    at least 2 of them; the axes share the cells (row, sample)."""
    mask = _mask(x, n)
    keys = (cells + n_cells * np.arange(len(n))[:, None])[mask]
    count = np.bincount(keys, minlength=len(n) * n_cells)
    full = np.flatnonzero(count >= 2)
    owner = full // n_cells
    owned = np.bincount(owner, minlength=len(n))
    spread = []
    for axis in x:
        std = _group_mean_std(keys, axis[mask], count)[1][full]
        spread.append(np.stack(_group_mean_std(owner, std, owned), -1))
    return np.stack(spread)


def _blocks(n: np.ndarray, budget: int):
    """[s, e) blocks of the ascending lengths n: one row, or at most `budget`
    padded samples per axis (rows times the block's longest length)."""
    s = 0
    while s < len(n):
        end = min(len(n), s + max(1, budget // n[s]))
        cost = np.arange(1, end - s + 1) * n[s:end]
        e = s + max(1, np.searchsorted(cost, budget, side="right"))
        yield s, e
        s = e


def _features(h, v, closed, valid, lo, hi, limit, fps):
    """All 31 features of every window [lo, hi) (at most `limit` frames) of
    a raw log, computed over its valid frames."""
    mask = np.asarray(valid, dtype=bool)
    before = np.concatenate(([0], np.cumsum(mask)))  # valid frames before each frame
    a, b = before[lo], before[hi]  # the windows as ranges of the valid frames
    h, v, closed = h[mask], v[mask], np.asarray(closed, dtype=bool)[mask]
    hv = np.stack([h, v])
    out = np.zeros((len(a), len(GAZE_FEATURE_NAMES)))
    out[:, :2] = _approach(np.hypot(h, v), a, b, fps.frame_ms)
    ext = _extents(h, v, DISPERSION_THRESHOLD, limit)
    r, start, end = _fixations(ext, a, b, frames_for_duration(MIN_FIXATION_SECONDS, fps))
    out[:, 2:4] = _path_stats(r, _run_means(h, start, end), _run_means(v, start, end), len(a))
    order = np.argsort(b - a, kind="stable")
    order = order[b[order] > a[order]]  # non-empty windows, shortest first
    lengths = (b - a)[order]
    for s, e in _blocks(lengths, _BLOCK_SAMPLES):
        rows, n = order[s:e], lengths[s:e]
        x = np.take(hv, a[rows, None] + np.arange(n[-1]), 1, mode="clip")  # (axis, window, frame)
        zones = _zone_spread(x, n, _zone_cells(*x), ZONE_GRID**2)
        stats = np.concatenate([_functionals(x, n), _band_powers(x, n), zones], -1)
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
    return tuple(_functionals(np.asarray(series, dtype=float)[None], np.array([len(series)]))[0].tolist())


def psd_band_powers(series: np.ndarray) -> np.ndarray:
    """Five periodogram band powers over low-frequency DFT bin groups.

    The series is mean-removed; P_k = |DFT_k|^2 / N. Bins above N/2 or beyond
    the available resolution contribute 0.
    """
    if len(series) == 0:
        raise DataError("coordinate series is empty")
    return _band_powers(np.asarray(series, dtype=float)[None], np.array([len(series)]))[0]


def fixation_zone_spread(
    h: np.ndarray, v: np.ndarray
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Per-axis (mean, population std) of per-zone coordinate stds.

    Each sample is binned into its zone-grid cell; cells with fewer than 2
    samples are skipped. Returns ((h_mean, h_std), (v_mean, v_std)), zeros when no
    cell qualifies.
    """
    h, v = np.asarray(h, dtype=float), np.asarray(v, dtype=float)
    x = np.stack([h, v])[:, None]
    zones = _zone_spread(x, np.array([len(h)]), _zone_cells(h, v), ZONE_GRID**2)[:, 0]
    return tuple(tuple(zone) for zone in zones.tolist())


def eye_closure_stats(closed: np.ndarray) -> tuple[float, float, float]:
    """(mean, population std, skew) of closed-eye run lengths; zeros if none."""
    return tuple(_closure(np.asarray(closed, dtype=bool), *_whole(len(closed)))[0].tolist())


def window_features(
    h: np.ndarray, v: np.ndarray, closed: np.ndarray, valid: np.ndarray, fps: FrameRate
) -> np.ndarray:
    """Compute all 31 features for one window of raw gaze frames."""
    return _features(h, v, closed, valid, *_whole(len(h)), len(h), fps)[0]


def extract_gaze_features(log: GazeLog, window: WindowSpec) -> FeatureMatrix:
    """Windowed gaze features: one 31-dim row per frame (causal trailing window).

    Frame t uses the window [max(0, t-W+1), t] where W covers
    `window.size_seconds` at the log's frame rate; early frames use the
    truncated window.
    """
    w = frames_for_duration(window.size_seconds, log.fps)
    t = np.arange(len(log))
    lo, hi = np.maximum(t - w + 1, 0), t + 1
    rows = _features(log.h, log.v, log.eye_closed, log.valid, lo, hi, w, log.fps)
    return FeatureMatrix(names=GAZE_FEATURE_NAMES, values=rows, fps=log.fps)
