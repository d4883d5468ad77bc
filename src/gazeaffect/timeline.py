"""Data model and ingestion: recordings, features, gaze logs, annotations, manifests.

All loaders are pure functions of the file contents and the loaded objects are
treated as immutable, so they are safe to share across threads.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError

PARTITIONS = ("train", "validation", "test")
DIMENSIONS = ("arousal", "valence")

# Default logical-column mapping for gaze CSVs written by this package.
DEFAULT_GAZE_COLUMNS = {
    "h": "h",
    "v": "v",
    "eye_closed": "eye_closed",
    "valid": "valid",
}


@dataclass(frozen=True)
class FrameRate:
    """Frames per second of a recording (25 for RECOLA-style, 30 for AVEC-style)."""

    fps: float

    def __post_init__(self):
        if not (self.fps > 0 and math.isfinite(self.fps)):
            raise DataError(f"fps must be positive and finite, got {self.fps}")

    @property
    def frame_ms(self) -> float:
        return 1000.0 / self.fps


def frames_for_duration(seconds: float, fps: FrameRate) -> int:
    """Number of frames covering `seconds` at `fps`.

    Rounds half away from zero and never returns less than 1 frame.
    """
    if not (seconds > 0 and math.isfinite(seconds)):
        raise DataError(f"duration must be positive, got {seconds}")
    exact = seconds * fps.fps
    if not math.isfinite(exact):
        raise DataError(f"duration {seconds} s at {fps.fps:g} fps overflows the frame count")
    return max(1, int(math.floor(exact + 0.5)))


@dataclass(frozen=True)
class GazeLog:
    """Per-frame raw gaze data for one recording.

    Invalid frames are retained (valid=False) so frame alignment with
    annotations is preserved; feature extraction decides how to treat them.
    """

    h: np.ndarray
    v: np.ndarray
    eye_closed: np.ndarray
    valid: np.ndarray
    fps: FrameRate

    def __post_init__(self):
        n = len(self.h)
        if not (len(self.v) == len(self.eye_closed) == len(self.valid) == n):
            raise DataError("gaze log columns have mismatched lengths")
        if n == 0:
            raise DataError("gaze log is empty")
        mask = self.valid.astype(bool)
        if not (np.isfinite(self.h[mask]).all() and np.isfinite(self.v[mask]).all()):
            raise DataError("non-finite gaze coordinate on a valid frame")

    def __len__(self) -> int:
        return len(self.h)


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-frame feature vectors for one recording (frames x named features)."""

    names: tuple[str, ...]
    values: np.ndarray  # (frames, len(names))
    fps: FrameRate

    def __post_init__(self):
        if self.values.ndim != 2:
            raise DataError("feature values must be a 2-D array")
        if self.values.shape[0] < 1:
            raise DataError("feature matrix has no frames")
        if self.values.shape[1] != len(self.names):
            raise DataError(
                f"feature matrix width {self.values.shape[1]} != "
                f"{len(self.names)} names"
            )
        if not np.isfinite(self.values).all():
            raise DataError("feature matrix contains non-finite values")

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class AnnotationTrace:
    """Per-frame gold-standard value in [-1, 1] for one emotion dimension."""

    dimension: str
    values: np.ndarray
    fps: FrameRate

    def __post_init__(self):
        if self.dimension not in DIMENSIONS:
            raise DataError(f"unknown dimension {self.dimension!r}")
        if len(self.values) < 1:
            raise DataError("annotation trace is empty")
        bad = np.flatnonzero(~((self.values >= -1.0) & (self.values <= 1.0)))  # nan too
        if bad.size:
            raise DataError(
                f"annotation value {self.values[bad[0]]} out of [-1, 1] "
                f"at frame {bad[0]}"
            )

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class RecordingEntry:
    id: str
    partition: str
    fps: FrameRate
    speech_path: Path
    gaze_path: Path
    annotation_paths: dict[str, Path] = field(default_factory=dict)


@dataclass(frozen=True)
class CorpusManifest:
    corpus_name: str
    recordings: tuple[RecordingEntry, ...]

    def partition(self, name: str) -> list[RecordingEntry]:
        return [r for r in self.recordings if r.partition == name]


def load_corpus_manifest(path: str | Path) -> CorpusManifest:
    """Load and validate a corpus manifest JSON file.

    Relative data paths are resolved against the manifest's directory.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"manifest file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "recordings" not in doc:
        raise DataError("manifest must be an object with a 'recordings' list")
    base = path.parent
    entries = []
    seen_ids: set[str] = set()
    for i, rec in enumerate(doc["recordings"]):
        for key in ("id", "partition", "fps", "speech", "gaze", "annotations"):
            if key not in rec:
                raise DataError(f"recording #{i} missing field {key!r}")
        rid = rec["id"]
        if rid in seen_ids:
            raise DataError(f"duplicate recording id {rid!r}")
        seen_ids.add(rid)
        if rec["partition"] not in PARTITIONS:
            raise DataError(
                f"recording {rid!r}: unknown partition {rec['partition']!r}"
            )
        ann_paths = {}
        for dim, p in rec["annotations"].items():
            if dim not in DIMENSIONS:
                raise DataError(f"recording {rid!r}: unknown dimension {dim!r}")
            ann_paths[dim] = (base / p).resolve()
        entry = RecordingEntry(
            id=rid,
            partition=rec["partition"],
            fps=FrameRate(float(rec["fps"])),
            speech_path=(base / rec["speech"]).resolve(),
            gaze_path=(base / rec["gaze"]).resolve(),
            annotation_paths=ann_paths,
        )
        for p in (entry.speech_path, entry.gaze_path, *ann_paths.values()):
            if not p.is_file():
                raise DataError(f"recording {rid!r}: data file not found: {p}")
        entries.append(entry)
    return CorpusManifest(
        corpus_name=str(doc.get("corpus", path.stem)),
        recordings=tuple(entries),
    )


def _read_numeric_csv(path: Path, usecols=None) -> tuple[list[str], np.ndarray]:
    """Read a CSV of one header row and numeric rows, skipping blank lines.

    `usecols(header)` gives the indices of the columns to parse, in order
    (all columns when None). Every row must have one cell per header name;
    cells of the other columns may hold anything. Returns the header and a
    (rows, columns) float64 matrix.
    """
    if not path.is_file():
        raise DataError(f"file not found: {path}")
    with open(path, errors="replace") as fh:  # an undecodable byte fails as a cell
        header = next(csv.reader(fh), None)
        if header is None:
            raise DataError(f"empty file: {path}")
        cols = range(len(header)) if usecols is None else usecols(header)
        # cells outside `cols` are read as 0 and dropped, so only the width is checked
        skipped = {j: lambda cell: 0.0 for j in range(len(header)) if j not in cols}
        try:
            with warnings.catch_warnings():  # a body with no rows is reported below
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"',
                                  ndmin=2, converters=skipped)
            if len(data) and data.shape[1] != len(header):
                raise ValueError(f"{data.shape[1]} cells per row")
        except ValueError as exc:
            raise _parse_error(path, header, cols, str(exc)) from None
    if not len(data):
        raise DataError(f"{path}: no frames (header-only file)")
    return header, data if usecols is None else data[:, cols]


def _parse_error(path: Path, header: list[str], cols, reason: str) -> DataError:
    """The first ragged row or non-numeric cell of a file the parser rejected."""
    with open(path, errors="replace") as fh:
        rows = list(csv.reader(fh))[1:]
    for i, row in enumerate(filter(None, rows)):
        if len(row) != len(header):
            return DataError(f"{path}: ragged row {i}: {len(row)} cells, expected {len(header)}")
        for j in cols:
            if not _is_number(row[j]):
                return DataError(
                    f"{path}: non-numeric cell {row[j]!r} at data row {i}, column {j}"
                )
    return DataError(f"{path}: {reason}")


def _is_number(cell: str) -> bool:
    """Whether np.loadtxt reads `cell`: what float() reads, less '_' and non-ASCII digits."""
    try:
        float(cell)
    except ValueError:
        return False
    return cell.strip().isascii() and "_" not in cell


def load_feature_csv(path: str | Path, fps: FrameRate) -> FeatureMatrix:
    """Load a feature CSV (header of feature names, one row per frame)."""
    header, data = _read_numeric_csv(Path(path))
    return FeatureMatrix(names=tuple(header), values=data, fps=fps)


def save_feature_csv(matrix: FeatureMatrix, path: str | Path) -> None:
    """Write a FeatureMatrix as CSV with round-trip-exact decimal formatting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(matrix.names)
        writer.writerows(map(repr, row.tolist()) for row in matrix.values)  # one row in memory


def load_gaze_log_csv(
    path: str | Path,
    fps: FrameRate,
    column_map: dict[str, str] | None = None,
) -> GazeLog:
    """Load a gaze log CSV using a logical-to-physical column mapping.

    A 'frame' column, when present, must count contiguously from 0.
    """
    path = Path(path)
    column_map = dict(DEFAULT_GAZE_COLUMNS if column_map is None else column_map)

    def columns(header):
        col_index = {name: i for i, name in enumerate(header)}
        frame = col_index.get(column_map.get("frame", "frame"))
        cols = [] if frame is None else [frame]
        for logical in ("h", "v", "eye_closed", "valid"):
            physical = column_map.get(logical)
            if physical not in col_index:
                raise DataError(
                    f"{path}: cannot map required gaze column {logical!r} "
                    f"(looked for {physical!r} in {header})"
                )
            cols.append(col_index[physical])
        return cols

    _, data = _read_numeric_csv(path, columns)
    *frame, h, v, closed, valid = np.ascontiguousarray(data.T)
    if frame:
        index = np.trunc(frame[0])
        bad = np.flatnonzero(index != np.arange(len(index)))
        if bad.size:
            raise DataError(
                f"{path}: non-contiguous frame index at frame {bad[0]} (got {index[bad[0]]:.0f})"
            )
    return GazeLog(h=h, v=v, eye_closed=closed != 0, valid=valid != 0, fps=fps)


def load_annotation_values(path: str | Path) -> np.ndarray:
    """Read the values of a 'value' or 'frame,value' CSV, with no range check."""
    path = Path(path)

    def value_column(header):
        if [c.strip().lower() for c in header] not in (["value"], ["frame", "value"]):
            raise DataError(
                f"{path}: annotation header must be 'value' or 'frame,value', got {header}"
            )
        return [len(header) - 1]

    return _read_numeric_csv(path, value_column)[1][:, 0]


def load_annotation_csv(path: str | Path, dimension: str, fps: FrameRate) -> AnnotationTrace:
    """Load an annotation CSV: single 'value' column, or 'frame,value'."""
    values = load_annotation_values(path)
    try:
        return AnnotationTrace(dimension, values, fps)
    except DataError as exc:  # a value outside [-1, 1], named by its frame
        raise DataError(f"{path}: {exc}") from None


def parse_gaze_columns_flag(flag: str) -> dict[str, str]:
    """Parse the CLI mapping flag 'h=<col>,v=<col>,closed=<col>,valid=<col>'."""
    aliases = {"closed": "eye_closed"}
    mapping = {}
    for part in flag.split(","):
        if "=" not in part:
            raise DataError(f"bad --gaze-columns entry {part!r} (expected key=col)")
        key, _, col = part.partition("=")
        key = key.strip()
        mapping[aliases.get(key, key)] = col.strip()
    return mapping
