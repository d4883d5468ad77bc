import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gazeaffect import experiments, fusion
from gazeaffect.timeline import FrameRate, GazeLog


@pytest.fixture
def fps25():
    return FrameRate(25.0)


def random_gaze_log(rng: np.random.Generator, n: int, fps: float = 25.0,
                    p_invalid: float = 0.05, p_closed: float = 0.1) -> GazeLog:
    h = np.cumsum(rng.normal(0, 0.02, n))
    v = np.cumsum(rng.normal(0, 0.02, n))
    np.clip(h, -1, 1, out=h)
    np.clip(v, -1, 1, out=v)
    return GazeLog(
        h=h,
        v=v,
        eye_closed=rng.random(n) < p_closed,
        valid=rng.random(n) >= p_invalid,
        fps=FrameRate(fps),
    )


def cross_shift_conversion(monkeypatch, train_manifest, test_manifest, dimension, chosen,
                           override):
    """Run a one-model, speech-only cross-corpus experiment at the chosen shift and
    cross override; return the model's `shift_conversion` metadata and the
    sorted (fps, frames) pairs of every annotation shift the run applied."""
    applied = set()

    def recording(trace, frames):
        applied.add((trace.fps.fps, frames))
        return fusion.shift_annotations(trace, frames)

    monkeypatch.setattr(experiments, "shift_annotations", recording)
    config = experiments.ExperimentConfig(
        train_manifest=train_manifest,
        test_manifest=test_manifest,
        dimension=dimension,
        modalities=("speech",),
        networks=(experiments.NetworkChoice("lstm", (2,)),),
        learning_rates=(1e-3,),
        seeds=(7,),
        max_epochs=2,
        patience_epochs=1,
        chosen_frames={dimension: chosen},
        cross_overrides={dimension: override},
    )
    _, [model] = experiments.run_cross_corpus(config)
    return model.metadata["shift_conversion"], sorted(applied)
