import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from gazeaffect.errors import DataError
from gazeaffect.metrics import ccc
from gazeaffect.synthetic import (
    SPEECH_SIGNAL_COLUMN,
    SyntheticCorpusSpec,
    generate_synthetic_corpus,
)
from gazeaffect.timeline import (
    FrameRate,
    load_annotation_csv,
    load_corpus_manifest,
    load_feature_csv,
    load_gaze_log_csv,
)


def tree_digest(root: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.iterdir())
        if p.is_file()
    }


# sha256 of every file of two small corpora, recorded from the generator that
# wrote through csv.writer and stepped one AR(1) column at a time: any change
# to the numbers or the text the generator writes fails here. They hold where
# np.sin rounds as the C library does (on the recording machine it matched
# math.sin bit for bit on 200,000 random inputs).
GOLDEN_DEFAULT = {
    "manifest.json": "ecdcce3f45e21826bd95fcc2af71295365fe591bb875288135b7cc5a9e251332",
    "test00_arousal.csv": "533c231cc0754ed78c5cfe61afc08df097cfec3eedd8a6d2d470036737450905",
    "test00_gaze.csv": "368cf618db81dacb9b13e2cf328f44fa55544a70be0f5d49206fe6110d47c177",
    "test00_speech.csv": "59dc32a24a45f4a278fa0a1bd45a9d1789b271c738b35e1c3f974a3397065d35",
    "test00_valence.csv": "49c35392b21e03ec2f3a4bf2d0bd8cdcc0097abb8b8891d0efee891509c57a5f",
    "test01_arousal.csv": "7dc4749bfd42b3d520dbba11391870bf650d3cb43b0b0244389793eb07cf8e5a",
    "test01_gaze.csv": "88200efde7a546571973f0a25acff1938cc5620006632e8104fb3e5ecb51434e",
    "test01_speech.csv": "9a4101d3dc01817cc847245560addedd0e46f21e314f05b19a43487ccc78ed17",
    "test01_valence.csv": "581b817cc83bb76ae167904fe03d3c20173fcf639f979c99b6ceda202f075633",
    "train00_arousal.csv": "235f73b4b14599cbdf00863cdb9ff67ad39c137c1c0d08b5b2fd2c6ebc8c1c68",
    "train00_gaze.csv": "99d69d5ac622ebb735775f47c67719048f8633618b233a8dec9914f45758f073",
    "train00_speech.csv": "7ea0ea8d0cd3be6cd05f575290710250fbbbb07f3f99a2fc0ea0762833c075a9",
    "train00_valence.csv": "57ca44e189175244e7457e7d71bfaa846d354f2c5205d7318977f8a652cba6ce",
    "train01_arousal.csv": "068d167bec7781b4ebc44193e11bc9495f4c44d1337ed873ce4f5eb598b1d0ad",
    "train01_gaze.csv": "f86b1675d33bfd51f682f4e927fdaccab0b1ed18bbe1f2a430f52d5301199f32",
    "train01_speech.csv": "a54593c3a7004685d4126cbb86efc2d92df7f3ab2511dc92e5e446fa26a41e6e",
    "train01_valence.csv": "015d598c6e99b9ab9fc2e6dcedd4aa3156edf41ba68a05ccf1a7aee2cb82a099",
    "train02_arousal.csv": "7988edea1aa1e9196bbe6a6a906bd1c3e4db760a9de1a0a1e9c80e6041578e42",
    "train02_gaze.csv": "8a34c5490584d7524d229e42cb7758cbdde23c52e596a2cbc4c972a842b5a8b2",
    "train02_speech.csv": "2b0a8f1a3fb4a24510b1b5a4a3586d13f38b27b3c7ec6c2ea8013f56121fc1b5",
    "train02_valence.csv": "63854bd797c3baf82de9e56c83f787e48838a464fc4f266dac6da89902815961",
    "validation00_arousal.csv": "428d17c8ed063cb107f1d1b2dad0833170ee3adcb49c24d6fb289b835f4beb3c",
    "validation00_gaze.csv": "e5f047a2e763fd8f493852b6cca10f2f0bc872b3c6e6d3f7f8578280eeb2d9ba",
    "validation00_speech.csv": "2c5cbbc0f6daaacbfe16f6b83ed52dec5ab88586b36bb2d0bc6d6e7dd540204f",
    "validation00_valence.csv": "ee00961c349d0c9b9a28aed2a2b318b1141a2d661924653fadea4c08401804bb",
    "validation01_arousal.csv": "1eae3f768676fe62f2552f4874c82c997111b65e571a06f95a2e0dad2f17d339",
    "validation01_gaze.csv": "03c18ee60126ea7ca8a8076e7e9327e4a185943633bfced4c2aa1a5e79afcb33",
    "validation01_speech.csv": "9a83e654ba5cbb7e18056cbd1c057044a4ed03d1665e951417b5d47bcd300c2c",
    "validation01_valence.csv": "a8d41250e4278cd5e4480c6083f3ca500186e6cd6942400402050cdcd010a28c",
}
GOLDEN_WIDE = {
    "manifest.json": "ecdcce3f45e21826bd95fcc2af71295365fe591bb875288135b7cc5a9e251332",
    "test00_arousal.csv": "25726e5c72928a83bbdd45e39fcfec5360d7521ace27ba952ef69a6fc081191d",
    "test00_gaze.csv": "a134f21f4571e872c8c8a6048d8ff517c7a598c1cead086494c168a2fda70dc9",
    "test00_speech.csv": "97cdb2c08d39a1bbfe2f0ed559c7ac9717ed7bfdbc796d69b6ad423008b3f834",
    "test00_valence.csv": "42ac5499a6ae491c4c6052c70ad222d5d0e9de350aa8209efd86b43316665df5",
    "test01_arousal.csv": "4ad4c140439d793ddab30d8ff26a3f344426197dd0ce3895c2308c7aca88bfd6",
    "test01_gaze.csv": "2dacce34f3ea7430b6673715bf7f4b052d3c9a33b358d8a37af651f775ade751",
    "test01_speech.csv": "45028f47b495c5fff8684f9b2975e4d5a7961cb530254ebf5b15b43ff605482b",
    "test01_valence.csv": "cbd02803b0c8fbd65bb460f7a18a173f1eaefa42d261a23d1b653f93b095956c",
    "train00_arousal.csv": "942d4e22078457435202f6b206e03731383ff8327a6945159b38739bdb1ed821",
    "train00_gaze.csv": "14e0974df4aae7033ddcf131c4637af3922775b3b1e1bcc291827ecc693212d1",
    "train00_speech.csv": "74b95fd308a8a3e31a1f81a935d0de2ff053900a2118fe4cedef9522666920a8",
    "train00_valence.csv": "fbe8c71d24260e7565c2d00f22ecacc7fdd615525fa743e88f079a8185c6d3e4",
    "train01_arousal.csv": "1d36ed9192412e11fe86a9a5904817e42a89f2fae5924a567c922502ab2ee6f8",
    "train01_gaze.csv": "154434833cd2d749d688103fbd300f28960c8d0c4c43e5131529242f83f3bae1",
    "train01_speech.csv": "5233473e939509c45ae3599c4b125cefc01b85aca5f95591f96448280fa6b3b1",
    "train01_valence.csv": "a8e7609d080bbb7c8ef09ed42fc8bfdba8fe3220b737ad4fe1235bd7487b96ed",
    "train02_arousal.csv": "823de652a785631d5de029a52b037719f4d0e2e2fbe20c1834b0aeb0c1fccbf0",
    "train02_gaze.csv": "df01b81529f1755271a295dbadbcd6ff1d862829a15da5cce54e6589fe4a9af0",
    "train02_speech.csv": "b481c364d087147b0bafadf60bca2398abcce70ebb22bb9070b6236344ed6c73",
    "train02_valence.csv": "8db5e3daef00feaa9574fcaa8119380a3c78b520d40f030a0ee7bef4ab34bba8",
    "validation00_arousal.csv": "4bd0a1fd412cae6325002b3026acc4e42466d1d7ab31ad3af72fa7bab93d42f1",
    "validation00_gaze.csv": "915919d2c1996a1f920c8a95c1cb58bd63428f39bc1753a09a9132c8b2a37053",
    "validation00_speech.csv": "a227c37b0ba0d21734905cd5f470f24d6290d143d01cb082c9962a19a8ab9e55",
    "validation00_valence.csv": "65196468e0125962058799a500c60f4b20a912d0c8c57aa15409e15c76f56fcf",
    "validation01_arousal.csv": "55a7e6b6c69701a7bade04e7593ad70fd80a3e9b07c6be908bbe6d8dfaacc257",
    "validation01_gaze.csv": "839ef5c665ace29c5a3484b13a486c59cc3f23fcdef13a1f6077481fe2f3462d",
    "validation01_speech.csv": "e8ee78a50b519b9fb6d524cbecf23d4efe7a19cd9a63bec1918ff88891321208",
    "validation01_valence.csv": "c69bffa9b9da4a4e09a9237fa78c5d7216f6505af02d58a79f4a384a53adf92d",
}


class TestDeterminism:
    def test_byte_identical_regeneration(self, tmp_path):
        spec = SyntheticCorpusSpec(seed=17, frames=120)
        generate_synthetic_corpus(spec, tmp_path / "a")
        generate_synthetic_corpus(spec, tmp_path / "b")
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    @pytest.mark.parametrize(
        "spec, golden",
        [
            (SyntheticCorpusSpec(seed=17, frames=120), GOLDEN_DEFAULT),
            (SyntheticCorpusSpec(frames=300, speech_dim=88, lag_frames=59), GOLDEN_WIDE),
        ],
        ids=["default", "wide"],
    )
    def test_golden_bytes(self, tmp_path, spec, golden):
        generate_synthetic_corpus(spec, tmp_path)
        assert tree_digest(tmp_path) == golden

    def test_seed_changes_content(self, tmp_path):
        generate_synthetic_corpus(SyntheticCorpusSpec(seed=1, frames=120), tmp_path / "a")
        generate_synthetic_corpus(SyntheticCorpusSpec(seed=2, frames=120), tmp_path / "b")
        assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "b")

    def test_recordings_differ_within_corpus(self, tmp_path):
        generate_synthetic_corpus(SyntheticCorpusSpec(seed=3, frames=120), tmp_path)
        a = (tmp_path / "train00_speech.csv").read_bytes()
        b = (tmp_path / "train01_speech.csv").read_bytes()
        assert a != b


class TestStructure:
    def test_manifest_loads_and_partitions(self, tmp_path):
        path = generate_synthetic_corpus(SyntheticCorpusSpec(seed=5, frames=100), tmp_path)
        manifest = load_corpus_manifest(path)
        counts = tuple(
            sum(r.partition == name for r in manifest.recordings)
            for name in ("train", "validation", "test")
        )
        assert counts == (3, 2, 2)
        assert manifest.corpus_name == "synth"

    def test_files_parse_with_standard_loaders(self, tmp_path):
        generate_synthetic_corpus(SyntheticCorpusSpec(seed=6, frames=150), tmp_path)
        fps = FrameRate(25.0)
        speech = load_feature_csv(tmp_path / "test01_speech.csv", fps)
        assert speech.n_frames == 150
        assert speech.names[0] == SPEECH_SIGNAL_COLUMN
        log = load_gaze_log_csv(tmp_path / "test01_gaze.csv", fps)
        assert len(log) == 150
        for dim in ("arousal", "valence"):
            trace = load_annotation_csv(tmp_path / f"test01_{dim}.csv", dim, fps)
            assert len(trace) == 150
            assert np.abs(trace.values).max() <= 1.0

    def test_gaze_coordinates_bounded(self, tmp_path):
        generate_synthetic_corpus(SyntheticCorpusSpec(seed=7, frames=200), tmp_path)
        log = load_gaze_log_csv(tmp_path / "train00_gaze.csv", FrameRate(25.0))
        assert np.abs(log.h).max() <= 1.0
        assert np.abs(log.v).max() <= 1.0

    def test_invalid_specs_rejected(self):
        with pytest.raises(DataError):
            SyntheticCorpusSpec(frames=50, lag_frames=50)
        with pytest.raises(DataError):
            SyntheticCorpusSpec(noise_level=-0.1)


class TestSignalContent:
    def test_noise_free_zero_lag_annotation_predictable(self, tmp_path):
        # With no noise and no lag, arousal should be well explained by the
        # clean speech channel alone when speech dominates the mixture.
        spec = SyntheticCorpusSpec(
            seed=8, frames=300, noise_level=0.0, lag_frames=0,
            speech_weight=1.0, gaze_weight=0.0,
        )
        generate_synthetic_corpus(spec, tmp_path)
        fps = FrameRate(25.0)
        speech = load_feature_csv(tmp_path / "train00_speech.csv", fps)
        trace = load_annotation_csv(tmp_path / "train00_arousal.csv", "arousal", fps)
        assert ccc(speech.values[:, 0], 2.0 * trace.values) > 0.98

    def test_lag_moves_annotation(self, tmp_path):
        base = dict(seed=8, frames=300, noise_level=0.0, speech_weight=1.0, gaze_weight=0.0)
        generate_synthetic_corpus(SyntheticCorpusSpec(lag_frames=0, **base), tmp_path / "a")
        generate_synthetic_corpus(SyntheticCorpusSpec(lag_frames=25, **base), tmp_path / "b")
        fps = FrameRate(25.0)
        t0 = load_annotation_csv(tmp_path / "a" / "train00_arousal.csv", "arousal", fps)
        t1 = load_annotation_csv(tmp_path / "b" / "train00_arousal.csv", "arousal", fps)
        assert t0.values[:275] == pytest.approx(t1.values[25:])

    def test_dimensions_swap_mixture_weights(self, tmp_path):
        spec = SyntheticCorpusSpec(
            seed=10, frames=300, noise_level=0.0,
            speech_weight=1.0, gaze_weight=0.0,
        )
        generate_synthetic_corpus(spec, tmp_path)
        fps = FrameRate(25.0)
        speech = load_feature_csv(tmp_path / "train00_speech.csv", fps)
        arousal = load_annotation_csv(tmp_path / "train00_arousal.csv", "arousal", fps)
        valence = load_annotation_csv(tmp_path / "train00_valence.csv", "valence", fps)
        assert ccc(speech.values[:, 0], 2.0 * arousal.values) > 0.9
        # valence uses the gaze latent under these weights
        assert ccc(speech.values[:, 0], 2.0 * valence.values) < 0.5

    def test_manifest_json_is_stable(self, tmp_path):
        path = generate_synthetic_corpus(SyntheticCorpusSpec(seed=11, frames=100), tmp_path)
        doc = json.loads(path.read_text())
        assert {r["partition"] for r in doc["recordings"]} == {
            "train", "validation", "test"
        }
        assert all(set(r["annotations"]) == {"arousal", "valence"} for r in doc["recordings"])
