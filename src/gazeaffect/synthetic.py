"""Deterministic synthetic corpus generation for desk-scale experiments.

Each recording carries two latent channels: a fast speech-like channel
(embedded in the speech feature CSV) and a slow gaze-like channel (driving the
horizontal gaze coordinate). Annotations are a lagged, clipped mixture of the
two latents plus noise, so annotator-lag recovery and fusion-benefit
experiments are both testable from one corpus family.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .timeline import (
    DIMENSIONS, GAZE_COLUMNS, FeatureMatrix, FrameRate, open_output, output_error,
    save_feature_csv, save_numeric_csv,
)

SPEECH_SIGNAL_COLUMN = "speech_env"


@dataclass(frozen=True)
class SyntheticCorpusSpec:
    name: str = "synth"
    train_recordings: int = 3
    validation_recordings: int = 2
    test_recordings: int = 2
    frames: int = 400
    fps: float = 25.0
    lag_frames: int = 0
    noise_level: float = 0.05
    speech_weight: float = 0.6
    gaze_weight: float = 0.4
    speech_dim: int = 8
    seed: int = 0

    def __post_init__(self):
        FrameRate(self.fps)  # rejects a rate that is not positive and finite
        if self.lag_frames >= self.frames:
            raise DataError("injected lag must be smaller than the recording length")
        if not 0 <= self.noise_level < np.inf:
            raise DataError(f"noise level must be finite and >= 0, got {self.noise_level}")
        if self.frames < 2 or self.speech_dim < 1:
            raise DataError("need at least 2 frames and 1 speech feature")


def _standardize(x: np.ndarray) -> np.ndarray:
    """Each series (last axis) of the C-contiguous x, in place and one at a
    time (no full-size centred copy), to zero mean and unit population std."""
    for series in x.reshape(-1, x.shape[-1]):
        std = series.std()
        series -= series.mean()
        series /= std if std > 1e-12 else 1.0
    return x


def _ar1(rng: np.random.Generator, x: np.ndarray, coeff: float) -> np.ndarray:
    """Fill x with standardized AR(1) series along its last axis, stepped
    together in place over one normal draw, which fills them row by row."""
    rng.standard_normal(out=x)
    steps = x.T  # time-major view
    for t in range(1, len(steps)):
        steps[t] += coeff * steps[t - 1]
    return _standardize(x)


def _slow_wave(rng: np.random.Generator, n: int) -> np.ndarray:
    """Smooth low-frequency latent: a few sinusoids with random phase."""
    t = np.arange(n)
    out = np.zeros(n)
    for cycles in (1.3, 2.7, 4.1):
        phase = rng.uniform(0, 2 * np.pi)
        out += rng.uniform(0.5, 1.0) * np.sin(2 * np.pi * cycles * t / n + phase)
    return _standardize(out)


def _closure_flags(rng: np.random.Generator, n: int) -> np.ndarray:
    closed = np.zeros(n, dtype=int)
    t = 0
    while t < n:
        if rng.random() < 0.01:
            length = 1 + rng.geometric(0.4)
            closed[t : t + length] = 1
            t += length
        else:
            t += 1
    return closed


def _generate_recording(spec: SyntheticCorpusSpec, out_dir: Path, rec_id: str, rec_seed: int) -> dict:
    rng = np.random.default_rng([spec.seed, rec_seed])
    n = spec.frames
    fps = FrameRate(spec.fps)
    speech_latent = _ar1(rng, np.empty(n), 0.9)
    gaze_latent = _slow_wave(rng, n)

    # Speech features: the latent plus distractor channels, (channel, frame).
    speech = np.empty((spec.speech_dim, n))
    np.add(speech_latent, 0.05 * rng.normal(size=n), out=speech[0])
    np.add(_ar1(rng, speech[1:], 0.8), 0.3 * speech_latent, out=speech[1:])
    speech_names = (SPEECH_SIGNAL_COLUMN,) + tuple(
        f"speech_aux{j}" for j in range(1, spec.speech_dim)
    )

    # Gaze log: horizontal coordinate tracks the slow latent.
    h = np.clip(0.5 * gaze_latent + 0.02 * rng.normal(size=n), -1.0, 1.0)
    v = np.clip(0.3 * _ar1(rng, np.empty(n), 0.95), -1.0, 1.0)
    closed = _closure_flags(rng, n)
    valid = (rng.random(n) >= 0.02).astype(int)

    speech_path = out_dir / f"{rec_id}_speech.csv"
    gaze_path = out_dir / f"{rec_id}_gaze.csv"
    save_feature_csv(FeatureMatrix(speech_names, speech.T, fps), speech_path)
    columns = (h.tolist(), v.tolist(), closed.tolist(), valid.tolist())
    save_numeric_csv(gaze_path, GAZE_COLUMNS, zip(range(n), *columns))

    # Annotations: lagged mixture of the two latents, per dimension.
    ann_paths = {}
    for dim in DIMENSIONS:
        if dim == "arousal":
            w_s, w_g = spec.speech_weight, spec.gaze_weight
        else:
            w_s, w_g = spec.gaze_weight, spec.speech_weight
        core = np.zeros(n)
        k = spec.lag_frames
        core[k:] = w_s * speech_latent[: n - k] + w_g * gaze_latent[: n - k]
        trace = np.clip(0.5 * core + spec.noise_level * rng.normal(size=n), -1.0, 1.0)
        ann_paths[dim] = f"{rec_id}_{dim}.csv"
        save_feature_csv(FeatureMatrix(("value",), trace[:, None], fps), out_dir / ann_paths[dim])
    return {
        "id": rec_id,
        "fps": spec.fps,
        "speech": speech_path.name,
        "gaze": gaze_path.name,
        "annotations": ann_paths,
    }


def generate_synthetic_corpus(spec: SyntheticCorpusSpec, out_dir: str | Path) -> Path:
    """Write a full synthetic corpus (manifest + CSVs); returns the manifest path.

    Byte-identical output for identical (spec, seed).
    """
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise output_error(out_dir, exc) from exc
    counts = {
        "train": spec.train_recordings,
        "validation": spec.validation_recordings,
        "test": spec.test_recordings,
    }
    recordings = []
    rec_seed = 0
    for partition, count in counts.items():
        for i in range(count):
            rec_id = f"{partition}{i:02d}"
            entry = _generate_recording(spec, out_dir, rec_id, rec_seed)
            entry["partition"] = partition
            recordings.append(entry)
            rec_seed += 1
    manifest = {"corpus": spec.name, "recordings": recordings}
    manifest_path = out_dir / "manifest.json"
    with open_output(manifest_path) as fh:
        fh.write(json.dumps(manifest, indent=2))
    return manifest_path
