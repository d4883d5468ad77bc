"""Ground-truth time-shift, frame-rate shift conversion, feature fusion,
and z-normalization fitted on the training partition."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .timeline import AnnotationTrace, FeatureMatrix, FrameRate

_STD_FLOOR = 1e-12


def shift_annotations(trace: AnnotationTrace, frames: int) -> AnnotationTrace:
    """Shift annotations back in time by `frames`, zero-padding the tail."""
    n = len(trace)
    if frames < 0:
        raise DataError("shift frames must be non-negative")
    if frames >= n:
        raise DataError(f"shift of {frames} frames >= trace length {n}")
    shifted = np.zeros(n)
    shifted[: n - frames] = trace.values[frames:]
    return AnnotationTrace(dimension=trace.dimension, values=shifted, fps=trace.fps)


def convert_shift(frames: int, source_fps: FrameRate, target_fps: FrameRate) -> int:
    """A shift of `frames` at `source_fps` in frames at `target_fps`, rounded to nearest."""
    return int(round(frames / source_fps.fps * target_fps.fps))


def fuse_features(speech: FeatureMatrix, gaze: FeatureMatrix) -> FeatureMatrix:
    """Per-frame concatenation of the speech and gaze feature matrices.

    A name both hold is suffixed with "_speech" or "_gaze".
    """
    if speech.n_frames != gaze.n_frames:
        raise DataError(f"frame count mismatch {speech.n_frames} vs {gaze.n_frames}")
    if speech.fps != gaze.fps:
        raise DataError(f"fps mismatch {speech.fps.fps} vs {gaze.fps.fps}")
    collisions = set(speech.names) & set(gaze.names)
    return FeatureMatrix(
        names=tuple(f"{n}_{tag}" if n in collisions else n
                    for tag, m in (("speech", speech), ("gaze", gaze)) for n in m.names),
        values=np.concatenate([speech.values, gaze.values], axis=1),
        fps=speech.fps,
    )


@dataclass(frozen=True)
class NormStats:
    """Zero-mean/unit-variance statistics fitted on the training partition only."""

    feature_names: tuple[str, ...]
    feature_means: np.ndarray
    feature_stds: np.ndarray
    target_mean: float
    target_std: float

    def to_dict(self) -> dict:
        return {
            "feature_names": list(self.feature_names),
            "feature_means": [float(x) for x in self.feature_means],
            "feature_stds": [float(x) for x in self.feature_stds],
            "target_mean": self.target_mean,
            "target_std": self.target_std,
        }


def _guard_std(std: np.ndarray | float):
    return np.where(np.asarray(std) < _STD_FLOOR, 1.0, std)


def fit_norm_stats(
    train_features: list[FeatureMatrix],
    train_targets: list[AnnotationTrace],
) -> NormStats:
    """Pooled per-feature and target mean/std over all training frames.

    Constant features (std < 1e-12) store std 1 so normalization is a no-op
    for them.
    """
    if not train_features or not train_targets:
        raise DataError("training set is empty")
    names = train_features[0].names
    for m in train_features[1:]:
        if m.names != names:
            raise DataError("training feature matrices have mismatched names")
    stacked = np.concatenate([m.values for m in train_features], axis=0)
    targets = np.concatenate([t.values for t in train_targets])
    f_means = stacked.mean(axis=0)
    f_stds = _guard_std(stacked.std(axis=0))
    t_std = float(_guard_std(targets.std()))
    return NormStats(
        feature_names=names,
        feature_means=f_means,
        feature_stds=f_stds,
        target_mean=float(targets.mean()),
        target_std=t_std,
    )


def normalize_features(matrix: FeatureMatrix, stats: NormStats) -> np.ndarray:
    """Forward z-normalization of a feature matrix; returns the raw array."""
    if matrix.names != stats.feature_names:
        raise DataError(
            "feature names do not match normalization stats "
            f"({len(matrix.names)} vs {len(stats.feature_names)} features)"
        )
    return (matrix.values - stats.feature_means) / stats.feature_stds


def normalize_target(values: np.ndarray, stats: NormStats) -> np.ndarray:
    """Forward z-normalization of a target trace."""
    return (np.asarray(values, dtype=float) - stats.target_mean) / stats.target_std


def denormalize_target(values: np.ndarray, stats: NormStats) -> np.ndarray:
    """Inverse target normalization, back to annotation units."""
    return np.asarray(values, dtype=float) * stats.target_std + stats.target_mean
