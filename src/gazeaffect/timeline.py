"""Data model and ingestion: recordings, features, gaze logs, annotations, manifests.

All loaders are pure functions of the file contents and the loaded objects are
treated as immutable, so they are safe to share across threads.
"""

from __future__ import annotations

import csv
import json
import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError

PARTITIONS = ("train", "validation", "test")
DIMENSIONS = ("arousal", "valence")

# Logical gaze-log columns; an unmapped one is read from the CSV column of its
# own name ('frame' is optional).
GAZE_COLUMNS = ("frame", "h", "v", "eye_closed", "valid")


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
    if not exact + 0.5 < 2.0**63:  # the count must fit an int64 frame index
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


def read_json(path: Path, error: type, what: str):
    """The JSON document in the UTF-8 file at `path`; a missing file or one
    that is not valid JSON raises `error`."""
    if not path.is_file():
        raise error(f"{what} file not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # undecodable, malformed or too deeply nested
        raise error(f"{what} is not valid JSON: {exc}") from exc


def output_error(path, exc: OSError) -> DataError:
    """An output file or directory that cannot be written, as a data error naming it."""
    return DataError(f"cannot write output {path}: {exc.strerror or exc}")


@contextmanager
def open_output(path: str | Path, newline: str | None = None):
    """The text file at `path` opened for writing; an OSError while opening or
    writing it raises output_error."""
    try:
        with open(path, "w", newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise output_error(path, exc) from exc


@dataclass(frozen=True)
class Required:  # a schema rule whose key every document must hold
    rule: object


@dataclass(frozen=True)
class Nullable:  # a schema rule that also reads null, as None
    rule: object


def read_fields(doc, schema: dict, error: type, what: str):
    """`doc` read by `schema`, which maps each key to its rule: a converter
    (raising TypeError or ValueError on a bad value); a schema dict for an
    object read by it (a section); [schema dict] for a list of sections;
    Required(rule) or Nullable(rule). An absent key is absent from the result.
    A malformed value raises `error` naming its dotted path (as in
    `recordings.0.fps`); so do the keys that no rule names, all at once."""
    unknown: list[str] = []
    fields = _walk(doc, schema, error, what, "", unknown)
    if unknown:
        raise error(f"unknown {what} field(s) " + ", ".join(map(repr, unknown)))
    return fields


def _walk(value, rule, error: type, what: str, where: str, unknown: list[str]):
    named = f"{what} field {where!r}" if where else what
    rule = rule.rule if isinstance(rule, Required) else rule  # its section checks its absence
    if isinstance(rule, Nullable):
        if value is None:
            return None
        rule = rule.rule
    if isinstance(rule, list):
        if not isinstance(value, (list, tuple)):
            raise error(f"{named} must be a JSON list, not {type(value).__name__}")
        return [_walk(item, rule[0], error, what, f"{where}.{i}", unknown)
                for i, item in enumerate(value)]
    if isinstance(rule, dict):
        if not isinstance(value, dict):
            raise error(f"{named} must be a JSON object, not {type(value).__name__}")
        for key, r in rule.items():
            if isinstance(r, Required) and key not in value:
                raise error(f"{named} missing required field {key!r}")
        prefix = f"{where}." if where else ""
        unknown += [prefix + k for k in value if k not in rule]
        return {k: _walk(v, rule[k], error, what, prefix + k, unknown)
                for k, v in value.items() if k in rule}
    try:
        return rule(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{named} is invalid: {exc}") from exc


def _where(convert, test, expected: str):
    """convert, accepting only values whose result passes test (`expected` names them)."""
    def check(value):
        result = convert(value)
        if not test(result):
            raise ValueError(f"expected {expected}, got {value!r:.80}")
        return result
    return check


def _typed(expected: str, *types):
    """A converter that accepts only values of exactly `types`: true is not 1, nor 3.0 an int."""
    return _where(lambda v: v, lambda v: type(v) in types, expected)


_int = _typed("an integer", int)
_str = _typed("a string", str)
_bool = _typed("true or false", bool)
_object = _typed("a JSON object", dict)
_number = _typed("a number", int, float)


def _float(value) -> float:
    if not math.isfinite(_number(value)):  # a huge int raises OverflowError
        raise ValueError(f"expected a finite number, got {value!r:.80}")
    return float(value)


_positive = _where(_float, lambda v: v > 0, "a positive number")


def _path(value) -> str:
    if "\0" in _str(value):
        raise ValueError(f"a path cannot hold NUL, got {value!r:.80}")
    # UnicodeEncodeError, a ValueError, for a lone surrogate outside U+DC80-U+DCFF
    # (those stand for the bytes of a file name that is not UTF-8)
    os.fsencode(value)
    return value


def _one_of(*options):
    """A converter that accepts only `options`, each as its own type (1.0 and true are not 1)."""
    pairs = [(type(o), o) for o in options]
    return _where(lambda v: v, lambda v: (type(v), v) in pairs, " or ".join(map(repr, options)))


def _at_least(low, convert=_int):
    """convert (an integer by default), accepting only results >= low."""
    return _where(convert, lambda v: v >= low, f"at least {low}")


def _distinct(convert):
    """convert of a list, accepting only lists whose converted items all differ."""
    return _where(convert, lambda v: len(set(v)) == len(v), "distinct values")


def _list(convert, length=None):
    """convert applied to every item of a JSON list (of `length` items, if
    given); a string or number is not a list."""
    def convert_all(items) -> tuple:
        if not isinstance(items, (list, tuple)) or length not in (None, len(items)):
            size = f" of {length}" if length else ""
            raise TypeError(f"expected a list{size}, got {items!r:.80}")
        return tuple(map(convert, items))
    return convert_all


MANIFEST_SCHEMA = {
    "corpus": _str,  # the corpus name; the manifest's file stem when absent
    "recordings": Required([{
        "id": Required(_str),
        "partition": Required(_one_of(*PARTITIONS)),
        "fps": Required(_positive),
        "speech": Required(_path),
        "gaze": Required(_path),
        "annotations": Required(dict.fromkeys(DIMENSIONS, _path)),
    }]),
}


def load_corpus_manifest(path: str | Path) -> CorpusManifest:
    """Load and validate a corpus manifest JSON file; relative data paths
    resolve against the manifest's directory."""
    path = Path(path)
    doc = read_fields(read_json(path, DataError, "manifest"), MANIFEST_SCHEMA, DataError,
                      "manifest")
    entries = []
    seen_ids: set[str] = set()
    for rec in doc["recordings"]:
        rid = rec["id"]
        if rid in seen_ids:
            raise DataError(f"duplicate recording id {rid!r}")
        seen_ids.add(rid)
        paths = {k: (path.parent / p).resolve() for k, p in
                 [("speech", rec["speech"]), ("gaze", rec["gaze"]), *rec["annotations"].items()]}
        for p in paths.values():
            if not p.is_file():
                raise DataError(f"recording {rid!r}: data file not found: {p}")
        entries.append(RecordingEntry(rid, rec["partition"], FrameRate(rec["fps"]),
                                      paths.pop("speech"), paths.pop("gaze"), paths))
    return CorpusManifest(corpus_name=doc.get("corpus", path.stem), recordings=tuple(entries))


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
    save_numeric_csv(path, matrix.names, map(np.ndarray.tolist, matrix.values))


def save_numeric_csv(path: str | Path, header, rows) -> None:
    """Write a header (through csv.writer: names may need quoting) and rows of
    ints and floats, as the reprs that csv.writer writes and never quotes."""
    with open_output(path, newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


def load_gaze_log_csv(
    path: str | Path,
    fps: FrameRate,
    column_map: dict[str, str] | None = None,
) -> GazeLog:
    """Load a gaze log CSV using a logical-to-physical column mapping; a
    logical column it does not map is read from the column of its own name.

    A 'frame' column, when present, must count contiguously from 0.
    """
    path = Path(path)
    column_map = column_map or {}

    def columns(header):
        col_index = {name: i for i, name in enumerate(header)}
        frame = col_index.get(column_map.get("frame", "frame"))
        cols = [] if frame is None else [frame]
        for logical in GAZE_COLUMNS[1:]:
            physical = column_map.get(logical, logical)
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
    """Parse the CLI mapping flag 'h=<col>,v=<col>,closed=<col>,valid=<col>'
    (any subset, in any order; 'frame=<col>' too)."""
    aliases = {"closed": "eye_closed"}
    mapping = {}
    for part in flag.split(","):
        if "=" not in part:
            raise DataError(f"bad --gaze-columns entry {part!r} (expected key=col)")
        key, _, col = part.partition("=")
        key = aliases.get(key.strip(), key.strip())
        if key not in GAZE_COLUMNS:
            raise DataError(f"unknown --gaze-columns key {key!r} (expected one of "
                            f"{', '.join(GAZE_COLUMNS)}, closed)")
        mapping[key] = col.strip()
    return mapping
