"""Schema-driven fuzzing of the three input documents: the experiment config,
the corpus manifest and the model file.

Every fault that a document's schema dict derives (CONFIG_SCHEMA,
MANIFEST_SCHEMA, and MODEL_SCHEMA with the weights schema of its spec) is
applied, one at a time and in every example, to a valid document: a value
replaced by one of another JSON type (a leaf, a list, a section or the whole
document), a required key removed, or an unknown key added to a section (a
per-dimension map is one). Hypothesis draws the values; a byte that is not
UTF-8 goes in at a drawn position. `train` and `sweep` must reject each faulty config with
exit 1 and each faulty manifest with exit 2, in one line of stderr and
without a traceback; `load_model` must raise DataError. Every path of either
document replaced by one that holds a line break and names nothing usable
(it lies beneath a regular file) must exit 2, again in one line of stderr; a
config path whose lone surrogate encodes no byte is a config error, exit 1.
"""

import contextlib
import copy
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazeaffect.cli import main
from gazeaffect.errors import DataError
from gazeaffect.experiments import CONFIG_SCHEMA
from gazeaffect.network import (
    MODEL_SCHEMA,
    LayerSpec,
    NetworkParams,
    NetworkSpec,
    TrainedModel,
    _weights_schema,
    init_network,
    load_model,
    save_model,
)
from gazeaffect.fusion import NormStats
from gazeaffect.synthetic import SyntheticCorpusSpec, generate_synthetic_corpus
from gazeaffect.timeline import MANIFEST_SCHEMA, Nullable, Required, _path

# One strategy per JSON type; a replacement is drawn from a type its target does not hold.
JSON_TYPES = {
    "null": st.none(),
    "bool": st.booleans(),
    "number": st.integers(-(10**6), 10**6) | st.floats(allow_nan=False),
    "string": st.text(max_size=6),
    "list": st.lists(st.integers(0, 9), max_size=2),
    "object": st.dictionaries(st.text(max_size=3), st.integers(0, 9), max_size=2),
}
# One path component that holds a line break.
_PART = st.text(st.characters(blacklist_characters="/\0"), max_size=4)
LINE_BREAK_NAMES = st.tuples(_PART, st.sampled_from(["\n", "\r", "\r\n"]), _PART).map("".join)


def json_type(value) -> str:
    if value is None:
        return "null"
    for name, kind in (("bool", bool), ("number", (int, float)), ("string", str),
                       ("list", list), ("object", dict)):
        if isinstance(value, kind):
            return name
    raise TypeError(value)


def faults(doc, rule, path=()):
    """(fault, path, nullable) for every fault the schema rule derives for
    doc: nullable says whether null is a valid value at path."""
    nullable = False
    if isinstance(rule, Required):
        rule = rule.rule
    if isinstance(rule, Nullable):
        rule, nullable = rule.rule, True
    if isinstance(rule, dict):
        yield "not an object", path, nullable
        yield "extra key", path, nullable
    else:
        yield "wrong type", path, nullable
    if isinstance(rule, dict):
        for key, value in doc.items():
            if isinstance(rule[key], Required):
                yield "missing key", path + (key,), False
            yield from faults(value, rule[key], path + (key,))
    elif isinstance(rule, list):
        for i, item in enumerate(doc):
            yield from faults(item, rule[0], path + (i,))


def path_leaves(doc, root: str, path=()):
    """The path in doc of every string leaf that names a file or directory under root."""
    if isinstance(doc, str) and doc.startswith(root):
        yield path
    elif isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from path_leaves(value, root, path + (key,))


def with_value(doc, path: tuple, value):
    """A copy of doc with value at path."""
    doc = copy.deepcopy(doc)
    holder = doc
    for step in path[:-1]:
        holder = holder[step]
    holder[path[-1]] = value
    return doc


def with_fault(doc, fault: str, path: tuple, nullable: bool, draw):
    """A copy of doc with the fault at path; draw draws the values it needs."""
    root = {"": copy.deepcopy(doc)}
    holder, key = root, ""  # the value at path is holder[key]
    for step in path:
        holder, key = holder[key], step
    if fault == "missing key":
        del holder[key]
    elif fault == "extra key":
        holder[key]["zz_extra"] = draw(JSON_TYPES["number"])
    else:
        taken = {json_type(holder[key])} | ({"null"} if nullable else set())
        holder[key] = draw(st.sampled_from(sorted(set(JSON_TYPES) - taken)).flatmap(JSON_TYPES.get))
    return root[""]


def with_bad_byte(text: str, position: int) -> bytes:
    """The UTF-8 bytes of text with a 0xff byte, which UTF-8 never holds, at position."""
    raw = text.encode()
    position %= len(raw) + 1
    return raw[:position] + b"\xff" + raw[position:]


def run_cli(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as excinfo:
        main(argv)
    return excinfo.value.code, err.getvalue()


def assert_one_line(err: str, prefix: str) -> None:
    assert err.startswith(prefix) and err.endswith("\n") and err.count("\n") == 1, err
    assert "\r" not in err, err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A corpus, a config whose keys cover the whole config schema, and a
    manifest with absolute paths, so either can be rewritten in place."""
    root = tmp_path_factory.mktemp("fuzz")
    corpus = root / "corpus"
    generate_synthetic_corpus(
        SyntheticCorpusSpec(seed=3, frames=120, train_recordings=2,
                            validation_recordings=1, test_recordings=1),
        corpus,
    )
    manifest = json.loads((corpus / "manifest.json").read_text())
    for rec in manifest["recordings"]:
        for key in ("speech", "gaze"):
            rec[key] = str(corpus / rec[key])
        rec["annotations"] = {d: str(corpus / p) for d, p in rec["annotations"].items()}
    config = {
        "train_manifest": str(root / "manifest.json"),
        "test_manifest": str(root / "manifest.json"),
        "dimension": "arousal",
        "modalities": ["speech"],
        "window_seconds": {"arousal": 1.0, "valence": 2.0},
        "shift": {"anchor_frames": {"arousal": 5}, "chosen_frames": {"arousal": 0},
                  "range_seconds": 0.12, "stride_frames": 3, "cross_overrides": {}},
        "networks": [{"kind": "lstm", "sizes": [4]}],
        "training": {"learning_rates": [1e-3], "seeds": [7], "max_epochs": 2,
                     "patience_epochs": 1},
        "gaze_columns": {"h": "h"},
        "out_dir": str(root / "out"),
        "jobs": 1,
        "cross_both_directions": False,
    }
    return root, config, manifest


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    """The path of a saved BLSTM model, its document, and its schema with the
    weights schema its spec gives."""
    path = tmp_path_factory.mktemp("fuzz_model") / "model.json"
    spec = NetworkSpec((LayerSpec("blstm", 4),), input_dim=2)
    stats = NormStats(("a", "b"), [0.5, -1.0], [2.0, 0.25], 0.125, 1.5)
    save_model(TrainedModel(spec, init_network(spec, 1), stats, "valence", 3, [(2.5, 1.5)],
                            {"seed": 1}), path)
    schema = {**MODEL_SCHEMA, **_weights_schema(NetworkParams(spec))}
    return path, json.loads(path.read_text()), schema


def test_base_documents_are_valid(work, model):
    # every fault below is made in these documents, so they must pass as given
    root, config, manifest = work
    (root / "c.json").write_text(json.dumps(config))
    (root / "manifest.json").write_text(json.dumps(manifest))
    code, err = run_cli(["train", "--config", str(root / "c.json")])
    assert code == 0, err
    path, doc, _ = model
    path.write_text(json.dumps(doc))
    assert load_model(path).norm_stats.feature_names == ("a", "b")


class TestConfig:
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_every_fault_exits_1(self, work, data):
        root, config, manifest = work
        (root / "manifest.json").write_text(json.dumps(manifest))
        for fault, path, nullable in faults(config, CONFIG_SCHEMA):
            doc = with_fault(config, fault, path, nullable, data.draw)
            command = data.draw(st.sampled_from(["train", "sweep"]))
            (root / "c.json").write_text(json.dumps(doc))
            code, err = run_cli([command, "--config", str(root / "c.json")])
            assert code == 1, (fault, path, err)
            assert_one_line(err, "config error: ")

    @settings(max_examples=10, deadline=None)
    @given(position=st.integers(0, 10**6))
    def test_bytes_not_utf8_exit_1(self, work, position):
        root, config, _ = work
        (root / "c.json").write_bytes(with_bad_byte(json.dumps(config), position))
        code, err = run_cli(["train", "--config", str(root / "c.json")])
        assert code == 1
        assert_one_line(err, "config error: config is not valid JSON")


class TestManifest:
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_every_fault_exits_2(self, work, data):
        root, config, manifest = work
        (root / "c.json").write_text(json.dumps(config))
        for fault, path, nullable in faults(manifest, MANIFEST_SCHEMA):
            doc = with_fault(manifest, fault, path, nullable, data.draw)
            command = data.draw(st.sampled_from(["train", "sweep"]))
            (root / "manifest.json").write_text(json.dumps(doc))
            code, err = run_cli([command, "--config", str(root / "c.json")])
            assert code == 2, (fault, path, err)
            assert_one_line(err, "data error: ")

    @settings(max_examples=10, deadline=None)
    @given(position=st.integers(0, 10**6))
    def test_bytes_not_utf8_exit_2(self, work, position):
        root, config, manifest = work
        (root / "c.json").write_text(json.dumps(config))
        (root / "manifest.json").write_bytes(with_bad_byte(json.dumps(manifest), position))
        code, err = run_cli(["sweep", "--config", str(root / "c.json")])
        assert code == 2
        assert_one_line(err, "data error: manifest is not valid JSON")


class TestPathsWithLineBreaks:
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_config_paths_exit_2(self, work, data):
        root, config, manifest = work
        (root / "manifest.json").write_text(json.dumps(manifest))
        leaves = list(path_leaves(config, str(root)))
        assert {key for key, in leaves} == {  # the schema's path keys, Required or Nullable
            key for key, rule in CONFIG_SCHEMA.items() if getattr(rule, "rule", rule) is _path}
        for path in leaves:
            name = data.draw(LINE_BREAK_NAMES)
            (root / "c.json").write_text(
                json.dumps(with_value(config, path, f"{root / 'c.json'}/{name}")))
            command = data.draw(st.sampled_from(["train", "sweep", "cross-eval"]))
            if path == ("test_manifest",):
                command = "cross-eval"  # the one command that reads the test manifest
            code, err = run_cli([command, "--config", str(root / "c.json")])
            try:
                os.fsencode(name)
            except UnicodeEncodeError:  # a lone surrogate no file name holds: a config error
                assert code == 1, (path, err)
                assert_one_line(err, "config error: ")
                continue
            assert code == 2, (path, err)
            assert_one_line(err, "data error: ")

    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_manifest_paths_exit_2(self, work, data):
        root, config, manifest = work
        (root / "c.json").write_text(json.dumps(config))
        leaves = list(path_leaves(manifest, str(root)))
        assert len(leaves) == sum(2 + len(rec["annotations"]) for rec in manifest["recordings"])
        for path in leaves:
            name = data.draw(LINE_BREAK_NAMES)
            doc = with_value(manifest, path, f"{root / 'c.json'}/{name}")
            (root / "manifest.json").write_text(json.dumps(doc))
            command = data.draw(st.sampled_from(["train", "sweep", "cross-eval"]))
            code, err = run_cli([command, "--config", str(root / "c.json")])
            assert code == 2, (path, err)
            assert_one_line(err, "data error: ")


class TestModelFile:
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_every_fault_raises_data_error(self, model, data):
        path, base, schema = model
        for fault, where, nullable in faults(base, schema):
            path.write_text(json.dumps(with_fault(base, fault, where, nullable, data.draw)))
            with pytest.raises(DataError):
                load_model(path)

    @settings(max_examples=10, deadline=None)
    @given(position=st.integers(0, 10**6))
    def test_bytes_not_utf8(self, model, position):
        path, base, _ = model
        path.write_bytes(with_bad_byte(json.dumps(base), position))
        with pytest.raises(DataError, match="not valid JSON"):
            load_model(path)
