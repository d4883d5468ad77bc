import csv
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gazeaffect.errors import DataError
from gazeaffect.timeline import (
    FeatureMatrix,
    FrameRate,
    frames_for_duration,
    load_annotation_csv,
    load_annotation_values,
    load_corpus_manifest,
    load_feature_csv,
    load_gaze_log_csv,
    parse_gaze_columns_flag,
    save_feature_csv,
    save_numeric_csv,
)


class TestFramesForDuration:
    def test_paper_windows(self, fps25):
        assert frames_for_duration(4.0, fps25) == 100
        assert frames_for_duration(6.0, fps25) == 150
        assert frames_for_duration(2.76, fps25) == 69

    def test_minimum_one_frame(self, fps25):
        assert frames_for_duration(0.001, fps25) == 1

    def test_rejects_nonpositive(self, fps25):
        with pytest.raises(DataError):
            frames_for_duration(0.0, fps25)

    def test_rounding_error_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            fps = FrameRate(float(rng.uniform(1, 60)))
            d = float(rng.uniform(0.5, 10))
            frames = frames_for_duration(d, fps)
            assert abs(frames / fps.fps - d) <= 0.5 / fps.fps + 1e-12

    def test_count_must_fit_int64(self, fps25):
        largest = float(2**63 - 1024)  # the largest float below 2**63
        assert frames_for_duration(largest / 25, fps25) == 2**63 - 1024
        for seconds in (2.0**63 / 25, 1e300, 1e308):
            with pytest.raises(DataError, match="overflows the frame count"):
                frames_for_duration(seconds, fps25)


class TestFrameRate:
    def test_rejects_nonpositive(self):
        with pytest.raises(DataError):
            FrameRate(0.0)


class TestFeatureCsv:
    def test_load_shape(self, tmp_path, fps25):
        p = tmp_path / "f.csv"
        names = [f"feat{i}" for i in range(88)]
        p.write_text(",".join(names) + "\n" + "\n".join(
            ",".join("0.5" for _ in names) for _ in range(1000)
        ) + "\n")
        m = load_feature_csv(p, fps25)
        assert m.n_frames == 1000 and m.n_features == 88
        assert m.names == tuple(names)

    def test_non_numeric_cell_reports_position(self, tmp_path, fps25):
        p = tmp_path / "f.csv"
        p.write_text("a,b\n1.0,2.0\n1.0,abc\n")
        with pytest.raises(DataError, match="row 1, column 1"):
            load_feature_csv(p, fps25)

    def test_header_only_is_error(self, tmp_path, fps25):
        p = tmp_path / "f.csv"
        p.write_text("a,b\n")
        with pytest.raises(DataError, match="no frames"):
            load_feature_csv(p, fps25)

    def test_ragged_row(self, tmp_path, fps25):
        p = tmp_path / "f.csv"
        p.write_text("a,b\n1.0,2.0\n1.0\n")
        with pytest.raises(DataError, match="ragged"):
            load_feature_csv(p, fps25)

    def test_round_trip_bit_exact(self, tmp_path, fps25):
        rng = np.random.default_rng(1)
        m = FeatureMatrix(
            names=("x", "y", "z"),
            values=rng.normal(size=(50, 3)),
            fps=fps25,
        )
        p = tmp_path / "rt.csv"
        save_feature_csv(m, p)
        back = load_feature_csv(p, fps25)
        assert back.names == m.names
        assert np.array_equal(back.values, m.values)

    def test_bytes_match_csv_writer(self, tmp_path):
        # The row writer skips csv.writer for the body; its bytes must not
        # change, so they are checked against csv.writer's own, including
        # values a FeatureMatrix would reject and a header that needs quoting.
        values = np.array([
            [np.nan, np.inf, -np.inf, -0.0],
            [1e-300, 1e16, 3.0, -7.0],
            [0.1, -2.5e-8, 1e308, 5e-324],
        ])
        names = ("plain", 'comma, "quoted"', "x y", "")
        expected = tmp_path / "csv_writer.csv"
        with open(expected, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(names)
            writer.writerows(map(repr, row) for row in values.tolist())
        written = tmp_path / "written.csv"
        save_feature_csv(SimpleNamespace(names=names, values=values), written)
        assert written.read_bytes() == expected.read_bytes()
        assert b'"comma, ""quoted"""' in written.read_bytes()

    def test_int_and_float_rows_match_csv_writer(self, tmp_path):
        # the gaze-log form: int frame and flag cells beside float cells
        header = ["frame", "h", "v", "eye_closed", "valid"]
        rows = [[0, -0.25, 1e-17, 0, 1], [1, 0.5, -1.0, 1, 0], [12345678901, 2.0, 0.0, 0, 1]]
        expected = tmp_path / "csv_writer.csv"
        with open(expected, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([str(c) if isinstance(c, int) else repr(c) for c in row] for row in rows)
        save_numeric_csv(tmp_path / "written.csv", header, rows)
        assert (tmp_path / "written.csv").read_bytes() == expected.read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(
        values=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
            elements=st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308]),
        )
    )
    def test_round_trip_bit_exact_property(self, tmp_path_factory, values):
        m = FeatureMatrix(
            names=tuple(f"f{j}" for j in range(values.shape[1])),
            values=values,
            fps=FrameRate(25.0),
        )
        p = tmp_path_factory.mktemp("rt") / "rt.csv"
        save_feature_csv(m, p)
        back = load_feature_csv(p, FrameRate(25.0)).values
        assert back.shape == values.shape
        assert np.array_equal(back.view(np.uint64), values.view(np.uint64))

    @pytest.mark.parametrize(
        "body, expected",
        [
            ("1,2\n\n3,4\n\n", [[1, 2], [3, 4]]),  # blank lines are skipped
            ('"1.5","2"\n3,-4e1\n', [[1.5, 2], [3, -40]]),  # quoted cells
            (" 1 , 2 \r\n3,4\r\n", [[1, 2], [3, 4]]),
        ],
    )
    def test_accepted_layouts(self, tmp_path, fps25, body, expected):
        p = tmp_path / "f.csv"
        p.write_text("a,b\n" + body)
        assert np.array_equal(load_feature_csv(p, fps25).values, expected)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("1,2\n#1,4\n", "non-numeric cell '#1' at data row 1, column 0"),
            ("1,2\n3,\n", "non-numeric cell '' at data row 1, column 1"),
            # float() reads these; numpy's parser does not, and the message names them
            ("\xa01,2\n3,1_000\n", "non-numeric cell '1_000' at data row 1, column 1"),
            ("1,\uff12\n", "non-numeric cell '\uff12' at data row 0, column 1"),
            ("1,2\n  \n3,4\n", "ragged row 1: 1 cells, expected 2"),
            ("1,2\n3,4,5\n", "ragged row 1: 3 cells, expected 2"),
            ("1,2\n3\n", "ragged row 1: 1 cells, expected 2"),
            ("1\n2\n", "ragged row 0: 1 cells, expected 2"),
            ("\n\n", "no frames"),
        ],
    )
    def test_rejected_layouts(self, tmp_path, fps25, body, message):
        p = tmp_path / "f.csv"
        p.write_text("a,b\n" + body)
        with pytest.raises(DataError, match=message):
            load_feature_csv(p, fps25)

    def test_non_utf8_cell(self, tmp_path, fps25):
        p = tmp_path / "f.csv"
        p.write_bytes(b"a,b\n1,2\n\xff,3\n")
        with pytest.raises(DataError, match="non-numeric cell '\ufffd' at data row 1, column 0"):
            load_feature_csv(p, fps25)

    def test_empty_file(self, tmp_path, fps25):
        p = tmp_path / "f.csv"
        p.write_text("")
        with pytest.raises(DataError, match="empty file"):
            load_feature_csv(p, fps25)

    def test_row_count_preserved(self, tmp_path, fps25):
        p = tmp_path / "f.csv"
        p.write_text("a\n" + "\n".join(str(i * 0.1) for i in range(37)) + "\n")
        assert load_feature_csv(p, fps25).n_frames == 37


class TestGazeCsv:
    def _write(self, path, rows, header="frame,h,v,eye_closed,valid"):
        path.write_text(header + "\n" + "\n".join(rows) + "\n")

    def test_load_with_mapping(self, tmp_path, fps25):
        p = tmp_path / "g.csv"
        p.write_text(
            "gaze_angle_x,gaze_angle_y,AU45_c,success\n0.1,0.2,0,1\n0.3,0.4,1,1\n"
        )
        log = load_gaze_log_csv(
            p,
            fps25,
            {"h": "gaze_angle_x", "v": "gaze_angle_y",
             "eye_closed": "AU45_c", "valid": "success"},
        )
        assert len(log) == 2
        assert log.h[1] == pytest.approx(0.3)
        assert bool(log.eye_closed[1]) is True

    def test_partial_mapping_reads_the_rest_by_name(self, tmp_path, fps25):
        p = tmp_path / "g.csv"
        p.write_text("gx,v,eye_closed,valid\n0.1,0.2,0,1\n0.3,0.4,1,1\n")
        log = load_gaze_log_csv(p, fps25, {"h": "gx"})
        assert log.h.tolist() == [0.1, 0.3] and log.v.tolist() == [0.2, 0.4]
        assert log.eye_closed.tolist() == [False, True]

    def test_missing_column_is_error(self, tmp_path, fps25):
        p = tmp_path / "g.csv"
        p.write_text("h,v,valid\n0.1,0.2,1\n")
        with pytest.raises(DataError, match="eye_closed"):
            load_gaze_log_csv(p, fps25)

    def test_non_contiguous_frame_index(self, tmp_path, fps25):
        p = tmp_path / "g.csv"
        rows = [f"{i},0.1,0.1,0,1" for i in range(5)]
        rows[5:] = ["6,0.1,0.1,0,1"]  # jumps 4 -> 6
        self._write(p, rows)
        with pytest.raises(DataError, match="frame 5"):
            load_gaze_log_csv(p, fps25)

    def test_unparseable_frame_index(self, tmp_path, fps25):
        p = tmp_path / "g.csv"
        self._write(p, ["0,0.1,0.1,0,1", "nan,0.1,0.1,0,1"])
        with pytest.raises(DataError, match=r"frame 1 \(got nan\)"):
            load_gaze_log_csv(p, fps25)

    def test_unmapped_column_may_be_non_numeric(self, tmp_path, fps25):
        p = tmp_path / "g.csv"
        self._write(p, ["a,0,0.1,0.2,0,1", '"b, c",1,0.3,0.4,1,0'],
                    header="label,frame,h,v,eye_closed,valid")
        log = load_gaze_log_csv(p, fps25)
        assert np.array_equal(log.h, [0.1, 0.3]) and np.array_equal(log.v, [0.2, 0.4])
        assert log.eye_closed.tolist() == [False, True]
        assert log.valid.tolist() == [True, False]

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["0,0.1,0.1,0,1", "1,0.1,0.1,0,1,7"], "ragged row 1"),
            (["0,0.1,0.1,0,1", "1,0.1,0.1,0"], "ragged row 1"),
            (["0,0.1,0.1,0,1", " "], "ragged row 1"),
            (["0,0.1,0.1,0,1", "1,0.1,up,0,1"], "non-numeric cell 'up' at data row 1, column 2"),
        ],
    )
    def test_rejected_rows(self, tmp_path, fps25, rows, message):
        p = tmp_path / "g.csv"
        self._write(p, rows)
        with pytest.raises(DataError, match=message):
            load_gaze_log_csv(p, fps25)

    def test_invalid_frames_retained(self, tmp_path, fps25):
        p = tmp_path / "g.csv"
        self._write(p, ["0,0.1,0.1,0,1", "1,0.2,0.2,0,0", "2,0.3,0.3,0,1"])
        log = load_gaze_log_csv(p, fps25)
        assert len(log) == 3
        assert not log.valid[1]

    def test_parse_columns_flag(self):
        mapping = parse_gaze_columns_flag("h=gx,v=gy,closed=au45,valid=ok")
        assert mapping == {"h": "gx", "v": "gy", "eye_closed": "au45", "valid": "ok"}

    def test_parse_columns_flag_unknown_key(self):
        with pytest.raises(DataError, match="'bogus'"):
            parse_gaze_columns_flag("h=h,bogus=z")


class TestAnnotationCsv:
    def test_load(self, tmp_path, fps25):
        p = tmp_path / "a.csv"
        p.write_text("value\n" + "\n".join("0.5" for _ in range(1000)) + "\n")
        trace = load_annotation_csv(p, "arousal", fps25)
        assert len(trace) == 1000

    def test_frame_value_layout(self, tmp_path, fps25):
        p = tmp_path / "a.csv"
        p.write_text("frame,value\n0,0.1\n1,-0.2\n")
        trace = load_annotation_csv(p, "valence", fps25)
        assert trace.values[1] == pytest.approx(-0.2)

    def test_out_of_range(self, tmp_path, fps25):
        p = tmp_path / "a.csv"
        p.write_text("value\n0.2\n1.5\n")
        with pytest.raises(DataError, match="frame 1"):
            load_annotation_csv(p, "arousal", fps25)

    def test_empty(self, tmp_path, fps25):
        p = tmp_path / "a.csv"
        p.write_text("value\n")
        with pytest.raises(DataError):
            load_annotation_csv(p, "arousal", fps25)

    def test_non_finite_is_out_of_range(self, tmp_path, fps25):
        p = tmp_path / "a.csv"
        p.write_text("value\n0.2\nnan\n")
        with pytest.raises(DataError, match="value nan out of"):
            load_annotation_csv(p, "arousal", fps25)

    def test_frame_column_is_not_parsed(self, tmp_path, fps25):
        p = tmp_path / "a.csv"
        p.write_text("Frame , Value\nt0,0.1\nt1,-0.2\n")
        trace = load_annotation_csv(p, "valence", fps25)
        assert np.array_equal(trace.values, [0.1, -0.2])

    def test_values_have_no_range_check(self, tmp_path, fps25):
        p = tmp_path / "a.csv"
        p.write_text("value\n0.2\n1.5\n")
        assert np.array_equal(load_annotation_values(p), [0.2, 1.5])
        message = r"a\.csv: annotation value 1\.5 out of \[-1, 1\] at frame 1"
        with pytest.raises(DataError, match=message):
            load_annotation_csv(p, "arousal", fps25)


def _manifest_doc(tmp_path, ids=("r1", "r2", "r3")):
    partitions = ["train", "validation", "test"]
    recordings = []
    for i, rid in enumerate(ids):
        for suffix in ("speech", "gaze", "arousal"):
            f = tmp_path / f"{rid}_{suffix}.csv"
            if suffix == "speech":
                f.write_text("a\n0.1\n")
            elif suffix == "gaze":
                f.write_text("frame,h,v,eye_closed,valid\n0,0.0,0.0,0,1\n")
            else:
                f.write_text("value\n0.1\n")
        recordings.append({
            "id": rid,
            "partition": partitions[i % 3],
            "fps": 25,
            "speech": f"{rid}_speech.csv",
            "gaze": f"{rid}_gaze.csv",
            "annotations": {"arousal": f"{rid}_arousal.csv"},
        })
    return {"corpus": "toy", "recordings": recordings}


class TestManifest:
    def test_load(self, tmp_path):
        doc = _manifest_doc(tmp_path)
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps(doc))
        manifest = load_corpus_manifest(p)
        assert manifest.corpus_name == "toy"
        assert len(manifest.recordings) == 3
        assert {r.partition for r in manifest.recordings} == {
            "train", "validation", "test"
        }

    def test_corpus_name_defaults_to_file_stem(self, tmp_path):
        doc = _manifest_doc(tmp_path)
        del doc["corpus"]
        p = tmp_path / "recola.json"
        p.write_text(json.dumps(doc))
        assert load_corpus_manifest(p).corpus_name == "recola"

    def test_duplicate_id(self, tmp_path):
        doc = _manifest_doc(tmp_path)
        doc["recordings"][1]["id"] = "P16"
        doc["recordings"][2]["id"] = "P16"
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="P16"):
            load_corpus_manifest(p)

    def test_dangling_path(self, tmp_path):
        doc = _manifest_doc(tmp_path)
        doc["recordings"][0]["gaze"] = "missing_gaze.csv"
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="missing_gaze.csv"):
            load_corpus_manifest(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_corpus_manifest(tmp_path / "nope.json")

    def test_undecodable_bytes(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_bytes(b'{"recordings": [], "corpus": "\xff"}')
        with pytest.raises(DataError, match="not valid JSON"):
            load_corpus_manifest(p)
