"""Trained outputs pinned against stored values.

A small fixed grid runs through the CLI at --jobs 1: a sweep over three
shifts, an intra-corpus train on all three modalities with a test partition,
and a cross-eval both ways between a 25 fps and a 30 fps corpus, each with an
lstm [4] and a blstm [4, 2] network at learning rates 1e-3 and 1e30 (the
1e30 runs diverge in `train` and end `ok` at CCC 0.0000 in `sweep`). Every
rendered file and every saved model is compared with `pinned_outputs.json`,
and so is each training run as `run_task` returns it: its row at full
precision, its SSE history and its best epoch.

Statuses, texts, integers (shifts, best epochs, exit codes) and the bold
selected rows compare exactly; every other number compares at REL_TOL, the
tolerance of perfbench's reference.json, since BLAS kernels round differently
across machines. `write_pinned_outputs.py` writes the reference.
"""

import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from gazeaffect import experiments
from gazeaffect.cli import main
from gazeaffect.synthetic import SyntheticCorpusSpec, generate_synthetic_corpus

REFERENCE = Path(__file__).with_name("pinned_outputs.json")
REL_TOL = 1e-9
GRID = {
    "networks": [{"kind": "lstm", "sizes": [4]}, {"kind": "blstm", "sizes": [4, 2]}],
    "shift": {"anchor_frames": {"arousal": 5}, "chosen_frames": {"arousal": 3},
              "range_seconds": 0.12, "stride_frames": 3},
    "window_seconds": {"arousal": 1.0},
}
# Per command: its config's own keys. train's longer runs let its 1e30 runs
# diverge at epoch 3, and stop a run whose first epoch is its best at epoch 3,
# two epochs short of the cap, which pins the patience rule.
COMMANDS = {
    "sweep": {"modalities": ["fused"], "training": {"max_epochs": 2, "patience_epochs": 1}},
    "train": {"modalities": ["speech", "gaze", "fused"],
              "training": {"max_epochs": 5, "patience_epochs": 2}},
    "cross-eval": {"modalities": ["speech"], "test_manifest": "corpus30/manifest.json",
                   "cross_both_directions": True,
                   "training": {"max_epochs": 2, "patience_epochs": 1}},
}


def _cell(text: str):
    """A rendered cell as an int, a float or the text itself; a bold cell
    keeps its marks around the number."""
    inner = text[2:-2] if text.startswith("**") and text.endswith("**") else text
    for kind in (int, float):
        try:
            value = kind(inner)
        except ValueError:
            continue
        return value if inner == text else ["**", value]
    return text


def _read(path: Path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            return [[_cell(c) for c in row] for row in csv.reader(fh)]
    return [[_cell(c.strip()) for c in line.split("|")] for line in path.read_text().splitlines()]


def pinned_outputs(root: Path) -> dict:
    """Run the pinned grid in `root`; per command, its exit code, its runs in
    grid order and every file it wrote, read back."""
    generate_synthetic_corpus(SyntheticCorpusSpec(seed=21, frames=150, train_recordings=2,
                                                  validation_recordings=1, test_recordings=1),
                              root / "corpus25")
    generate_synthetic_corpus(SyntheticCorpusSpec(name="thirty", fps=30.0, seed=4, frames=180,
                                                  train_recordings=2, validation_recordings=1,
                                                  test_recordings=1),
                              root / "corpus30")
    real, runs = experiments.run_task, []

    def recording(task):
        row, model = real(task)
        runs.append({**dataclasses.asdict(row),
                     "history": model and [list(pair) for pair in model.history],
                     "best_epoch": model and model.metadata["best_epoch"]})
        return row, model

    outputs = {}
    experiments.run_task = recording
    try:
        for command, extra in COMMANDS.items():
            config = root / f"{command}.json"
            doc = {"train_manifest": "corpus25/manifest.json", **GRID, **extra}
            doc["training"] = {"learning_rates": [1e-3, 1e30], "seeds": [7], **doc["training"]}
            config.write_text(json.dumps(doc))
            out = root / command
            runs.clear()
            try:
                with np.errstate(all="ignore"):
                    main([command, "--config", str(config), "--out-dir", str(out), "--jobs", "1"])
            except SystemExit as exc:
                code = exc.code
            outputs[command] = {"exit_code": code, "runs": list(runs),
                                "files": {p.name: _read(p) for p in sorted(out.iterdir())}}
    finally:
        experiments.run_task = real
    return outputs


def mismatches(got, want, path: str = "") -> list[str]:
    """The paths at which got differs from want: containers by their keys
    and lengths, floats beyond REL_TOL, everything else by value and type."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or list(got) != list(want):
            return [path]
        return [m for k in want for m in mismatches(got[k], want[k], f"{path}/{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [path]
        return [m for i, pair in enumerate(zip(got, want)) for m in mismatches(*pair, f"{path}/{i}")]
    if type(got) is not type(want):
        return [path]
    if isinstance(want, float):
        both_nan = math.isnan(got) and math.isnan(want)
        close = abs(got - want) <= REL_TOL * max(1.0, abs(got), abs(want))
        return [] if both_nan or close else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def test_outputs_match_reference(tmp_path):
    want = json.loads(REFERENCE.read_text())
    got = json.loads(json.dumps(pinned_outputs(tmp_path)))  # as the writer stores it
    assert mismatches(got, want) == []
    # the grid holds what it exists to pin: a diverged run, and a 1e30 run
    # that ends ok with a zero CCC
    runs = [run for command in got.values() for run in command["runs"]]
    assert any(run["status"] == "div" for run in runs)
    assert any(run["status"] == "ok" and run["learning_rate"] == 1e30
               and f"{run['val_ccc']:.4f}" == "0.0000" for run in runs)
