"""Experiment orchestration: shift sweeps, intra-corpus and cross-corpus runs,
model selection, and report rendering.

Hyperparameter selection follows the training protocol: within each
(modality, network) cell the (learning rate, seed) grid point with the lowest
validation SSE wins, but every completed run is recorded in the results table.
Runs that diverge are logged with a NaN CCC (rendered as "div") and the sweep
continues.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, DivergenceError
from .fusion import (
    convert_shift,
    denormalize_target,
    fit_norm_stats,
    fuse_features,
    normalize_features,
    normalize_target,
    shift_annotations,
)
from .gaze_features import WindowSpec, extract_gaze_features
from .metrics import ccc
from .network import (
    LayerSpec,
    NetworkSpec,
    TrainConfig,
    TrainedModel,
    predict,
    train_network,
)
from .timeline import (
    DIMENSIONS, GAZE_COLUMNS, AnnotationTrace, CorpusManifest, FeatureMatrix, Nullable, Required,
    _bool, _each, _float, _int, _list, _path, _str, load_annotation_csv, load_corpus_manifest,
    load_feature_csv, load_gaze_log_csv, open_output, read_fields, read_json,
)

MODALITIES = ("speech", "gaze", "fused")

DEFAULT_WINDOW_SECONDS = {"arousal": 4.0, "valence": 6.0}
# Audio-modality sweep anchors and the shifts selected for the final system,
# at 25 fps.
DEFAULT_ANCHOR_FRAMES = {"arousal": 59, "valence": 78}
DEFAULT_CHOSEN_FRAMES = {"arousal": 69, "valence": 78}
DEFAULT_NETWORKS = (
    {"kind": "blstm", "sizes": [40, 30]},
    {"kind": "lstm", "sizes": [80, 60]},
)


@dataclass(frozen=True)
class NetworkChoice:
    kind: str  # "lstm" | "blstm"
    sizes: tuple[int, ...]

    def build_spec(self, input_dim: int) -> NetworkSpec:
        return NetworkSpec(
            layers=tuple(LayerSpec(self.kind, s) for s in self.sizes),
            input_dim=input_dim,
        )


@dataclass
class ShiftSettings:
    anchor_frames: dict[str, int] = field(default_factory=lambda: dict(DEFAULT_ANCHOR_FRAMES))
    chosen_frames: dict[str, int] = field(default_factory=lambda: dict(DEFAULT_CHOSEN_FRAMES))
    range_seconds: float = 1.0
    stride_frames: int = 3
    cross_overrides: dict[str, int | None] = field(default_factory=dict)


@dataclass
class ExperimentConfig:
    train_manifest: Path
    test_manifest: Path | None = None
    dimension: str = "arousal"
    modalities: tuple[str, ...] = MODALITIES
    window_seconds: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_WINDOW_SECONDS))
    shift: ShiftSettings = field(default_factory=ShiftSettings)
    networks: tuple[NetworkChoice, ...] = tuple(
        NetworkChoice(n["kind"], tuple(n["sizes"])) for n in DEFAULT_NETWORKS
    )
    learning_rates: tuple[float, ...] = (1e-5,)
    seeds: tuple[int, ...] = (1787452436,)
    max_epochs: int = TrainConfig.max_epochs
    patience_epochs: int = TrainConfig.patience_epochs
    gaze_columns: dict[str, str] | None = None
    out_dir: Path = Path(".")
    jobs: int = 1
    cross_both_directions: bool = False

    def __post_init__(self):
        if self.dimension not in DIMENSIONS:
            raise ConfigError(f"unknown dimension {self.dimension!r}")
        for m in self.modalities:
            if m not in MODALITIES:
                raise ConfigError(f"unknown modality {m!r}")
        if not all(0 < w < math.inf for w in self.window_seconds.values()):
            raise ConfigError(f"config field 'window_seconds' needs finite seconds > 0, "
                              f"got {self.window_seconds}")
        if not 0 <= self.shift.range_seconds < math.inf:
            raise ConfigError(f"config field 'shift.range_seconds' needs finite seconds >= 0, "
                              f"got {self.shift.range_seconds}")
        if self.shift.stride_frames < 1:
            raise ConfigError(f"config field 'shift.stride_frames' needs frames >= 1, "
                              f"got {self.shift.stride_frames}")
        for name in ("chosen_frames", "cross_overrides"):  # a None override converts the shift
            frames = getattr(self.shift, name)
            if any(v is not None and v < 0 for v in frames.values()):
                raise ConfigError(f"config field 'shift.{name}' needs frames >= 0, got {frames}")
        if not (self.networks and self.learning_rates and self.seeds):
            raise ConfigError("network/learning-rate/seed grids must be non-empty")
        if min(self.seeds) < 0:
            raise ConfigError(f"config field 'training.seeds' needs seeds >= 0, got {self.seeds}")
        kinds = [net.kind for net in self.networks]  # a results row names its network by kind
        for name, values in (("modalities", self.modalities), ("networks", kinds),
                             ("training.learning_rates", self.learning_rates),
                             ("training.seeds", self.seeds)):
            if len(set(values)) < len(values):  # a repeat would train grid points twice
                what = "kinds" if values is kinds else "values"
                raise ConfigError(f"config field {name!r} needs distinct {what}, got {list(values)}")
        if self.jobs < 1:
            raise ConfigError(f"config field 'jobs' needs jobs >= 1, got {self.jobs}")
        try:  # the network and training rules, checked before any data is read
            for net in self.networks:
                net.build_spec(1)
            for lr in self.learning_rates:
                self.train_config(lr, self.seeds[0])
        except DataError as exc:
            raise ConfigError(str(exc)) from exc

    def train_config(self, lr: float, seed: int) -> TrainConfig:
        return TrainConfig(
            learning_rate=lr,
            seed=seed,
            max_epochs=self.max_epochs,
            patience_epochs=self.patience_epochs,
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        return cls.from_dict(read_json(path, ConfigError, "config"), base=path.parent)

    @classmethod
    def from_dict(cls, doc: dict, base: Path = Path(".")) -> "ExperimentConfig":
        """Build a config from the keys present in `doc`, read by CONFIG_SCHEMA;
        every absent key keeps its dataclass default. Relative paths resolve
        against `base`, and a key the schema does not name is a ConfigError."""
        fields = {"out_dir": ".", **read_fields(doc, CONFIG_SCHEMA, ConfigError, "config")}
        for key in ("train_manifest", "test_manifest", "out_dir"):
            if fields.get(key) is not None:
                fields[key] = (base / fields[key]).resolve()
        if "networks" in fields:
            fields["networks"] = tuple(NetworkChoice(n["kind"], n["sizes"])
                                       for n in fields["networks"])
        fields.update(fields.pop("training", {}))
        return cls(shift=ShiftSettings(**fields.pop("shift", {})), **fields)


# Each key of a config file and its rule (see timeline.read_fields).
CONFIG_SCHEMA = {
    "train_manifest": Required(_path),
    "test_manifest": Nullable(_path),
    "dimension": _str,
    "modalities": _list(_str),
    "window_seconds": (_each(_float, DEFAULT_WINDOW_SECONDS), DIMENSIONS),
    "shift": {
        "anchor_frames": (_each(_int, DEFAULT_ANCHOR_FRAMES), DIMENSIONS),
        "chosen_frames": (_each(_int, DEFAULT_CHOSEN_FRAMES), DIMENSIONS),
        "range_seconds": _float,
        "stride_frames": _int,
        "cross_overrides": (_each(lambda v: v if v is None else _int(v)), DIMENSIONS),
    },
    "networks": [{"kind": Required(_str), "sizes": Required(_list(_int))}],
    "training": {
        "learning_rates": _list(_float),
        "seeds": _list(_int),
        "max_epochs": _int,
        "patience_epochs": _int,
    },
    "gaze_columns": Nullable((_each(_str), GAZE_COLUMNS)),
    "out_dir": _path,
    "jobs": _int,
    "cross_both_directions": _bool,
}


@dataclass
class ResultRow:
    dimension: str
    modality: str
    network: str
    shift_frames: int
    seed: int
    learning_rate: float
    val_sse: float = math.nan
    val_ccc: float = math.nan
    test_ccc: float | None = None
    status: str = "ok"
    train_corpus: str = ""
    test_corpus: str = ""


def _ccc_text(value: float | None) -> str:
    """A CCC as a results cell: empty for None (no test set), "div" for NaN."""
    if value is None:
        return ""
    return "div" if math.isnan(value) else f"{value:.4f}"


def _ccc(raw: str) -> float:
    """A CCC cell read back: empty or "div" read as nan."""
    return math.nan if raw in ("", "div") else float(raw)


# Each column of a results CSV or markdown report, in order: (name, how a
# row's value is written, how a CSV cell reads back, the cell that a file
# without the column reads as; None: every file must hold it).
_COLUMNS = (
    ("dimension", str, str, None),
    ("modality", str, str, None),
    ("network", str, str, None),
    ("shift_frames", str, int, None),
    ("seed", str, int, None),
    ("learning_rate", str, float, None),
    ("val_ccc", _ccc_text, _ccc, ""),
    ("test_ccc", _ccc_text, lambda raw: _ccc(raw) if raw else None, ""),
    ("train_corpus", str, str, ""),
    ("test_corpus", str, str, ""),
    ("status", str, str, "ok"),
)
# A results row's grid point, in sort order: the columns every file holds.
_KEY_COLUMNS = tuple(name for name, _, _, default in _COLUMNS if default is None)


@dataclass
class ResultsTable:
    rows: list[ResultRow] = field(default_factory=list)

    def sorted_rows(self) -> list[ResultRow]:
        return sorted(self.rows, key=attrgetter(*_KEY_COLUMNS))


# ---------------------------------------------------------------------------
# Corpus data assembly

@dataclass
class RecordingData:
    id: str
    partition: str
    features: dict[str, FeatureMatrix]  # modality -> matrix
    annotation: AnnotationTrace


def load_corpus_data(
    manifest: CorpusManifest,
    dimension: str,
    window_seconds: float,
    gaze_columns: dict[str, str] | None = None,
    modalities: tuple[str, ...] = MODALITIES,
) -> list[RecordingData]:
    """Load and featurize every recording of a corpus for one dimension.

    Recordings with unequal per-modality frame counts, and corpora whose
    recordings differ in frame rate, are hard errors.
    """
    rates = sorted({entry.fps.fps for entry in manifest.recordings})
    if len(rates) > 1:
        raise DataError(
            f"corpus {manifest.corpus_name!r} mixes frame rates "
            + " and ".join(f"{r:g}" for r in rates) + " fps"
        )
    need_gaze = "gaze" in modalities or "fused" in modalities
    need_speech = "speech" in modalities or "fused" in modalities
    out = []
    for entry in manifest.recordings:
        if dimension not in entry.annotation_paths:
            raise DataError(
                f"recording {entry.id!r} has no {dimension} annotations"
            )
        annotation = load_annotation_csv(
            entry.annotation_paths[dimension], dimension, entry.fps
        )
        features: dict[str, FeatureMatrix] = {}
        n_frames = len(annotation)
        if need_speech:
            speech = load_feature_csv(entry.speech_path, entry.fps)
            if speech.n_frames != n_frames:
                raise DataError(
                    f"recording {entry.id!r}: speech has {speech.n_frames} frames "
                    f"but annotations have {n_frames}"
                )
            features["speech"] = speech
        if need_gaze:
            log = load_gaze_log_csv(entry.gaze_path, entry.fps, gaze_columns)
            if len(log) != n_frames:
                raise DataError(
                    f"recording {entry.id!r}: gaze log has {len(log)} frames "
                    f"but annotations have {n_frames}"
                )
            features["gaze"] = extract_gaze_features(log, WindowSpec(window_seconds))
        if "fused" in modalities:
            features["fused"] = fuse_features(features["speech"], features["gaze"])
        out.append(RecordingData(entry.id, entry.partition, features, annotation))
    return out


def _partition(recs: list[RecordingData], name: str) -> list[RecordingData]:
    got = [r for r in recs if r.partition == name]
    if not got:
        raise DataError(f"corpus has no recordings in the {name!r} partition")
    return got


# ---------------------------------------------------------------------------
# Single training run

@dataclass
class RunTask:
    """Everything one training run needs; picklable for process pools."""

    row: ResultRow
    spec: NetworkSpec
    train_config: TrainConfig
    train_set: list  # (features, shifted trace) per recording, raw units
    val_set: list
    test_set: list | None
    metadata: dict = field(default_factory=dict)  # added to the model's, after its network


def run_task(task: RunTask) -> tuple[ResultRow, TrainedModel | None]:
    """Train one grid point and score it; divergence yields a 'div' row."""
    row = task.row
    stats = fit_norm_stats(
        [f for f, _ in task.train_set], [t for _, t in task.train_set]
    )

    def dataset(pairs):
        return [
            (normalize_features(f, stats), normalize_target(t.values, stats))
            for f, t in pairs
        ]

    try:
        model = train_network(
            task.spec, dataset(task.train_set), dataset(task.val_set), task.train_config
        )
    except DivergenceError:
        row.status = "div"
        return row, None
    model.norm_stats, model.dimension, model.shift_used = stats, row.dimension, row.shift_frames
    model.metadata.update(modality=row.modality, network=row.network, **task.metadata)
    row.val_sse = model.metadata["best_val_sse"]
    row.val_ccc = _score_ccc(model, task.val_set)
    if task.test_set:
        row.test_ccc = _score_ccc(model, task.test_set)
    return row, model


def predict_trace(model: TrainedModel, matrix: FeatureMatrix) -> np.ndarray:
    """Inference path: normalize features, run the network, denormalize output.

    No noise is injected. Returns per-frame predictions in annotation units.
    """
    if model.norm_stats is None:
        raise DataError("model has no normalization stats; cannot predict raw features")
    x = normalize_features(matrix, model.norm_stats)
    return denormalize_target(predict(model.params, model.spec, x), model.norm_stats)


def _score_ccc(model: TrainedModel, pairs) -> float:
    """CCC between concatenated predictions and targets, in annotation units."""
    preds = [predict_trace(model, f) for f, _ in pairs]
    return ccc(np.concatenate(preds), np.concatenate([t.values for _, t in pairs]))


def _task_row(task: RunTask) -> ResultRow:
    """run_task for a driver that keeps only the row: a pool worker sends
    back no model."""
    return run_task(task)[0]


def _execute(run, tasks: list[RunTask], jobs: int) -> list:
    """run (a module-level function) of each task, in order. A pool worker
    gets run and the task list once, as it starts."""
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return [run(t) for t in tasks]
    with ProcessPoolExecutor(workers, initializer=_set_worker, initargs=(run, tasks)) as pool:
        return list(pool.map(_run_worker_task, range(len(tasks))))


_worker: list = []  # a pool worker's [run, task list]


def _set_worker(run, tasks: list[RunTask]) -> None:
    _worker[:] = run, tasks


def _run_worker_task(index: int):
    run, tasks = _worker
    return run(tasks[index])


# ---------------------------------------------------------------------------
# Experiment drivers

def _load(config: ExperimentConfig, path: Path, modalities) -> tuple[str, list[RecordingData]]:
    manifest = load_corpus_manifest(path)
    window = config.window_seconds[config.dimension]
    recs = load_corpus_data(manifest, config.dimension, window, config.gaze_columns, modalities)
    return manifest.corpus_name, recs


def _grid(config, modalities, shifts, corpus, test) -> list[RunTask]:
    """One task per (modality, network, shift, learning rate, seed), in that
    order. `corpus` is (name, recordings) and supplies the train and
    validation partitions; `test` is None or (name, test recordings, shift in
    frames applied to their annotations)."""
    corpus_name, recs = corpus
    test_name, test_recs, test_shift = test or ("", None, 0)
    train = _partition(recs, "train")
    val = _partition(recs, "validation")
    tasks = []
    for modality in modalities:
        names = train[0].features[modality].names
        if test_recs and test_recs[0].features[modality].names != names:
            raise DataError(
                f"feature-name mismatch between training and test recordings "
                f"for modality {modality!r}"
            )

        def shifted(part, k):  # a partition's (features, trace shifted by k); None stays None
            return part and [(r.features[modality], shift_annotations(r.annotation, k))
                             for r in part]

        sets = {shift: (shifted(train, shift), shifted(val, shift), shifted(test_recs, test_shift))
                for shift in shifts}
        for net in config.networks:
            spec = net.build_spec(len(names))
            for shift in shifts:
                for lr in config.learning_rates:
                    for seed in config.seeds:
                        row = ResultRow(
                            dimension=config.dimension,
                            modality=modality,
                            network=net.kind,
                            shift_frames=shift,
                            seed=seed,
                            learning_rate=lr,
                            train_corpus=corpus_name,
                            test_corpus=test_name,
                        )
                        tasks.append(
                            RunTask(row, spec, config.train_config(lr, seed), *sets[shift])
                        )
    return tasks


def _shortest_trace(recs: list[RecordingData]) -> int:
    """Frames of the shortest training or validation trace: every shift must be below it."""
    fitted = _partition(recs, "train") + _partition(recs, "validation")
    return min(len(r.annotation) for r in fitted)


def sweep_shifts(config: ExperimentConfig, fps: float, trace_frames: int) -> list[int]:
    """Shift grid: anchor + k * stride for |k| * stride <= range_seconds * fps,
    clamped at 0. A grid whose top shift does not fit a trace of `trace_frames`
    raises DataError naming its smallest shift that does not fit."""
    anchor = config.shift.anchor_frames[config.dimension]
    stride = config.shift.stride_frames
    reach = config.shift.range_seconds * fps
    steps = int(round(reach)) // stride if reach < math.inf else math.inf
    if steps * stride >= trace_frames - anchor:
        # the smallest k >= -steps with anchor + k * stride >= trace_frames
        k = max(-steps, -((anchor - trace_frames) // stride))
        raise DataError(f"shift of {anchor + k * stride} frames >= trace length {trace_frames}")
    low = max(-steps, -anchor // stride + 1)  # the lowest k whose shift is positive
    zero = [0] if anchor - steps * stride <= 0 else []
    return zero + list(range(anchor + low * stride, anchor + steps * stride + 1, stride))


def run_shift_sweep(
    config: ExperimentConfig, modality: str = "fused"
) -> tuple[ResultsTable, dict[str, int]]:
    """Train at every shift in the sweep; returns the table and the best shift
    per network kind: the highest validation CCC among each shift's selected
    run (its lowest validation SSE)."""
    corpus = _load(config, config.train_manifest, (modality,))
    fps = _partition(corpus[1], "train")[0].annotation.fps.fps
    shifts = sweep_shifts(config, fps, _shortest_trace(corpus[1]))
    tasks = _grid(config, (modality,), shifts, corpus, None)
    table = ResultsTable(rows=_execute(_task_row, tasks, config.jobs))
    selected = _select(table.rows, attrgetter("network", "shift_frames"), attrgetter("val_sse"))
    best = _select(selected.values(), attrgetter("network"), lambda r: -r.val_ccc)
    return table, {kind: row.shift_frames for kind, row in best.items()}


def _select(rows, cell, score) -> dict:
    """For each cell(row), in the order the cells first appear, the `ok` row
    with the lowest score(row) that is not NaN, the first one on ties."""
    selected = {}
    for row in rows:
        key, value = cell(row), score(row)
        if row.status == "ok" and not math.isnan(value) and (
                key not in selected or value < score(selected[key])):
            selected[key] = row
    return selected


def run_intra_corpus(
    config: ExperimentConfig,
) -> tuple[ResultsTable, dict[str, dict]]:
    """Unimodal/bimodal runs at the chosen shift for every (modality, network)
    cell; reports the relative improvement of fused over the best unimodal."""
    name, recs = corpus = _load(config, config.train_manifest, config.modalities)
    shift = config.shift.chosen_frames[config.dimension]
    test_recs = [r for r in recs if r.partition == "test"]
    test = (name, test_recs, shift) if test_recs else None
    tasks = _grid(config, config.modalities, [shift], corpus, test)
    table = ResultsTable(rows=_execute(_task_row, tasks, config.jobs))
    selected = _select(table.rows, attrgetter("network", "modality"), attrgetter("val_sse"))
    improvements = {}
    for net in config.networks:
        unimodal = [selected[net.kind, m].val_ccc for m in ("speech", "gaze")
                    if (net.kind, m) in selected]
        if (net.kind, "fused") in selected and unimodal:
            best_uni = max(unimodal)
            fused = selected[net.kind, "fused"].val_ccc
            improvements[net.kind] = {
                "fused_ccc": fused,
                "best_unimodal_ccc": best_uni,
                "relative_improvement": relative_improvement(fused, best_uni),
            }
    return table, improvements


def relative_improvement(fused: float, best_unimodal: float) -> float:
    """(fused - best_unimodal) / best_unimodal."""
    if best_unimodal == 0:
        return math.nan
    return (fused - best_unimodal) / best_unimodal


def run_cross_corpus(config: ExperimentConfig) -> tuple[ResultsTable, list[TrainedModel]]:
    """Train on corpus A, test once on corpus B's test partition (and the
    reverse direction when configured). B's annotations are shifted by the
    configured override, or else by the shift converted to B's frame rate;
    each model's `shift_conversion` metadata records both."""
    if config.test_manifest is None:
        raise ConfigError("cross-corpus run requires a test manifest")
    a = _load(config, config.train_manifest, config.modalities)
    b = _load(config, config.test_manifest, config.modalities)
    shift = config.shift.chosen_frames[config.dimension]
    override = config.shift.cross_overrides.get(config.dimension)
    directions = [(a, b), (b, a)] if config.cross_both_directions else [(a, b)]
    tasks = []
    for corpus, (test_name, test_recs) in directions:
        test = _partition(test_recs, "test")
        frames = _shortest_trace(corpus[1])
        if shift >= frames:  # checked before a shift too large for a float is converted
            raise DataError(f"shift of {shift} frames >= trace length {frames}")
        computed = convert_shift(
            shift, _partition(corpus[1], "train")[0].annotation.fps, test[0].annotation.fps
        )
        test_shift = computed if override is None else override
        grid = _grid(config, config.modalities, [shift], corpus, (test_name, test, test_shift))
        for task in grid:
            task.metadata["shift_conversion"] = {
                "train_shift_frames": shift,
                "test_shift_frames": test_shift,
                "computed_frames": computed,
                "override_frames": override,
            }
        tasks += grid
    results = _execute(run_task, tasks, config.jobs)
    return ResultsTable(rows=[row for row, _ in results]), [m for _, m in results if m is not None]


# ---------------------------------------------------------------------------
# Report rendering

def render_report(table: ResultsTable, fmt: str, path: str | Path) -> None:
    """Write the results table as CSV or markdown with deterministic ordering.

    Markdown output bolds the best validation-CCC row per dimension.
    """
    if not table.rows:
        raise DataError("cannot render an empty results table")
    rows = table.sorted_rows()
    path = Path(path)
    names = [name for name, *_ in _COLUMNS]
    texts = [[write(getattr(row, name)) for name, write, *_ in _COLUMNS] for row in rows]
    if fmt == "csv":
        with open_output(path, newline="") as fh:
            csv.writer(fh).writerows([names, *texts])
        return
    if fmt != "markdown":
        raise ConfigError(f"unknown report format {fmt!r}")
    best = _select(rows, attrgetter("dimension"), lambda r: -r.val_ccc)
    lines = ["| " + " | ".join(names) + " |", "| " + " | ".join("---" for _ in names) + " |"]
    for row, cells in zip(rows, texts):
        if best.get(row.dimension) is row:
            cells = [f"**{c}**" if c else c for c in cells]
        lines.append("| " + " | ".join(cells) + " |")
    with open_output(path) as fh:
        fh.write("\n".join(lines) + "\n")


def save_results_csv(table: ResultsTable, path: str | Path) -> None:
    render_report(table, "csv", path)


def load_results_csv(path: str | Path) -> ResultsTable:
    """Read back a CSV report into a ResultsTable; a missing or malformed
    cell raises DataError naming its row and column."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"results file not found: {path}")
    rows = []
    with open(path, newline="", errors="replace") as fh:
        for i, rec in enumerate(csv.DictReader(fh), start=1):
            values = {}
            for name, _, read, default in _COLUMNS:
                raw = rec.get(name, default)  # None: no such column, or a short row
                if raw is None:
                    raise DataError(f"{path}: data row {i} has no {name!r} cell")
                try:
                    values[name] = read(raw)
                except ValueError:
                    raise DataError(f"{path}: bad {name!r} cell {raw!r} at data row {i}") from None
            rows.append(ResultRow(**values))
    return ResultsTable(rows=rows)
