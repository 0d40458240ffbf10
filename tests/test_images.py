import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermofault.images import (
    DatasetManifest,
    InputFormatError,
    ManifestError,
    RegionAnnotation,
    RtmFormatError,
    ThermalImage,
    extract_region,
    load_manifest,
    load_thermal,
    manifest_to_dict,
    save_manifest,
    save_thermal,
)
from thermofault.taxonomy import EquipmentType, Status


def make_image(temps, source_id="img"):
    temps = np.asarray(temps, dtype=np.float64)
    return ThermalImage(temps.shape[1], temps.shape[0], temps, source_id)


def test_round_trip_simple(tmp_path):
    img = make_image([[1.5, -2.25], [0.0, 100.125]])
    path = tmp_path / "a.rtm"
    save_thermal(img, path)
    back = load_thermal(path)
    assert back.width == 2 and back.height == 2
    assert (back.temps == img.temps).all()
    assert back.source_id == "a"


finite_temps = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=64
)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.data(),
)
def test_round_trip_exact_random(tmp_path_factory, w, h, data):
    temps = np.array(
        [[data.draw(finite_temps) for _ in range(w)] for _ in range(h)], dtype=np.float64
    )
    path = tmp_path_factory.mktemp("rtm") / "x.rtm"
    save_thermal(make_image(temps), path)
    back = load_thermal(path)
    assert (back.temps == temps).all()


def test_rtm_file_layout(tmp_path):
    img = make_image([[0.5, 1.0]])
    path = tmp_path / "layout.rtm"
    save_thermal(img, path)
    raw = path.read_bytes()
    assert raw == b"2,1\n0.5,1\n"


def test_rtm_17_digit_precision(tmp_path):
    vals = np.array([[1 / 3, 0.1, np.nextafter(14.0, 15.0)]])
    path = tmp_path / "p.rtm"
    save_thermal(make_image(vals), path)
    assert (load_thermal(path).temps == vals).all()


def test_rtm_rows_match_per_cell_rendering(tmp_path):
    """Each row is written with one %-format call; its bytes equal the
    per-cell format(v, ".17g") rendering, signed zero and extremes included."""
    rng = np.random.Generator(np.random.PCG64(8))
    edge = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1 / 3]
    vals = np.concatenate([edge, rng.normal(30.0, 10.0, 16)]).reshape(4, 6)
    path = tmp_path / "e.rtm"
    save_thermal(make_image(vals), path)
    rows = [",".join(format(v, ".17g") for v in row) for row in vals]
    assert path.read_bytes() == ("6,4\n" + "\n".join(rows) + "\n").encode()
    assert b"-0," in path.read_bytes() and b"4.9406564584124654e-324" in path.read_bytes()


def test_header_errors(tmp_path):
    path = tmp_path / "bad.rtm"
    path.write_text("2\n1,2\n")
    with pytest.raises(RtmFormatError) as exc:
        load_thermal(path)
    assert "line 1" in str(exc.value)

    path.write_text("a,b\n")
    with pytest.raises(RtmFormatError):
        load_thermal(path)

    path.write_text("0,3\n")
    with pytest.raises(RtmFormatError):
        load_thermal(path)


def test_row_count_mismatch(tmp_path):
    path = tmp_path / "rows.rtm"
    path.write_text("2,2\n1,2\n")
    with pytest.raises(RtmFormatError) as exc:
        load_thermal(path)
    assert "expected 2 data rows" in str(exc.value)


def test_row_length_mismatch(tmp_path):
    path = tmp_path / "cols.rtm"
    path.write_text("3,1\n1,2\n")
    with pytest.raises(RtmFormatError) as exc:
        load_thermal(path)
    assert "line 2" in str(exc.value)


def test_non_numeric_cell_position(tmp_path):
    path = tmp_path / "cell.rtm"
    path.write_text("2,2\n1,2\n3,oops\n")
    with pytest.raises(RtmFormatError) as exc:
        load_thermal(path)
    msg = str(exc.value)
    assert "line 3" in msg and "column 2" in msg and "oops" in msg


def test_non_finite_cell_rejected(tmp_path):
    path = tmp_path / "inf.rtm"
    path.write_text("2,1\n1,inf\n")
    with pytest.raises(RtmFormatError) as exc:
        load_thermal(path)
    assert "column 2" in str(exc.value)


def parse_cells_with_float(rows):
    """Row-major float() of every cell, or the (line, column) of the first bad one."""
    out = []
    for r, line in enumerate(rows, start=2):
        out.append([])
        for c, cell in enumerate(line.split(","), start=1):
            try:
                value = float(cell)
            except ValueError:
                return None, (r, c)
            if not math.isfinite(value):
                return None, (r, c)
            out[-1].append(value)
    return np.array(out, dtype=np.float64), None


cell_texts = st.one_of(
    finite_temps.map(lambda v: format(v, ".17g")),
    finite_temps.map(repr),
    finite_temps.map(lambda v: f" {v:+.3f}\t"),
    finite_temps.map(lambda v: f"{v:e}"),
    st.integers(-(10**6), 10**6).map(lambda i: f"{i:_}"),
    st.sampled_from(
        ["1_0", " 2.5", "+1", "0x10", "1e400", "-1e400", "nan", "inf", "", "oops", "1__0",
         "\u0661\u0662", "1.5\x0c", "-0.0", "\x1c1", "1\x1f ", "\u20002"]
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), st.data())
def test_load_thermal_matches_float_cell_loop(tmp_path_factory, w, h, data):
    """numpy's reader or, where it fails, the exact path gives the bytes, or
    the first bad cell's line and column, of a whole-file float() loop."""
    rows = [",".join(data.draw(cell_texts) for _ in range(w)) for _ in range(h)]
    path = tmp_path_factory.mktemp("rtm") / "cells.rtm"
    path.write_text(f"{w},{h}\n" + "\n".join(rows) + "\n", encoding="utf-8")
    want, bad = parse_cells_with_float(rows)
    if bad is None:
        assert load_thermal(path).temps.tobytes() == want.tobytes()
    else:
        with pytest.raises(RtmFormatError) as exc:
            load_thermal(path)
        assert (exc.value.row, exc.value.col) == bad


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), st.sampled_from(["\n", "\r\n", "\r"]), st.data())
def test_load_thermal_in_blocks_matches_float_cell_loop(tmp_path_factory, w, h, end, data):
    """A file whose lines end in \\n, \\r\\n or \\r, read line by line by numpy's
    reader or split whole by the exact path, gives the bytes, or the first
    bad cell's line and column, of the float() loop over its rows."""
    rows = [",".join(data.draw(cell_texts) for _ in range(w)) for _ in range(h)]
    path = tmp_path_factory.mktemp("rtm") / "cells.rtm"
    path.write_bytes(end.join([f"{w},{h}", *rows, ""]).encode("utf-8"))
    want, bad = parse_cells_with_float(rows)
    if bad is None:
        assert load_thermal(path).temps.tobytes() == want.tobytes()
    else:
        with pytest.raises(RtmFormatError) as exc:
            load_thermal(path)
        assert (exc.value.row, exc.value.col) == bad


def test_long_row_then_short_row_rejected(tmp_path):
    """The total cell count is right; the first row is one cell too long."""
    path = tmp_path / "shifted.rtm"
    path.write_text("3,2\n1,2,3,4\n5,6\n")
    with pytest.raises(RtmFormatError) as exc:
        load_thermal(path)
    assert exc.value.row == 2
    assert "row has 4 values, expected 3" in str(exc.value)


def test_thermal_image_invariants():
    with pytest.raises(ValueError):
        ThermalImage(2, 2, np.zeros((2, 3)), "bad-shape")
    with pytest.raises(ValueError):
        ThermalImage(0, 1, np.zeros((1, 0)), "bad-dims")
    with pytest.raises(ValueError):
        ThermalImage(2, 1, np.array([[np.nan, 1.0]]), "nan")
    img = make_image([[1.0, 2.0]])
    with pytest.raises(ValueError):
        img.temps[0, 0] = 9.0


def test_extract_region_row_major():
    img = make_image(np.arange(12.0).reshape(3, 4))
    got = extract_region(img, (1, 1, 2, 2))
    assert got.tolist() == [5.0, 6.0, 9.0, 10.0]
    got[0] = -1.0  # copy, not a view
    assert img.temps[1, 1] == 5.0


def test_extract_region_bounds():
    img = make_image(np.zeros((3, 4)))
    extract_region(img, (0, 0, 4, 3))
    for bbox in [(1, 0, 4, 3), (0, 1, 4, 3), (-1, 0, 2, 2), (0, 0, 0, 1)]:
        with pytest.raises(ValueError):
            extract_region(img, bbox)


def region(image_ref, x=0, status=Status.NORMAL, etype=EquipmentType.TRANSFORMER):
    return RegionAnnotation((x, 0, 2, 2), etype, status, image_ref)


def test_manifest_split_status_rules():
    with pytest.raises(ManifestError):
        DatasetManifest((region("a", status=None),), (), ())
    with pytest.raises(ManifestError):
        DatasetManifest((), (region("a"),), ())
    with pytest.raises(ManifestError):
        DatasetManifest((), (), (region("a"),))  # test subcat missing from labeled


def test_manifest_disjoint_splits():
    lab = region("a")
    dup = RegionAnnotation(lab.bbox, lab.equipment_type, None, "a")
    with pytest.raises(ManifestError) as exc:
        DatasetManifest((lab,), (dup,), ())
    assert "appears in both" in str(exc.value)


def test_manifest_test_coverage():
    lab = region("a")
    test_fault = region("b", status=Status.FAULT)
    with pytest.raises(ManifestError):
        DatasetManifest((lab,), (), (test_fault,))
    ok = DatasetManifest((lab,), (), (region("b"),))
    assert len(ok.labeled + ok.unlabeled + ok.test) == 2


def _write_rtm(tmp_path, name, w=4, h=4):
    save_thermal(make_image(np.full((h, w), 20.0), name), tmp_path / f"{name}.rtm")


def test_manifest_save_load_round_trip(tmp_path):
    _write_rtm(tmp_path, "imgA")
    _write_rtm(tmp_path, "imgB")
    manifest = DatasetManifest(
        (region("imgA"),),
        (RegionAnnotation((2, 0, 2, 2), EquipmentType.BUSHING, None, "imgA"),),
        (region("imgB"),),
        {"imgA": "imgA.rtm", "imgB": "imgB.rtm"},
    )
    mpath = tmp_path / "manifest.json"
    save_manifest(manifest, mpath)
    back = load_manifest(mpath)
    assert back.labeled == manifest.labeled
    assert back.unlabeled == manifest.unlabeled
    assert back.test == manifest.test
    assert back.image_paths["imgA"] == tmp_path / "imgA.rtm"


def test_manifest_to_dict_schema(tmp_path):
    manifest = DatasetManifest(
        (region("imgA"),), (), (), {"imgA": "imgA.rtm"}
    )
    doc = manifest_to_dict(manifest)
    assert doc["images"] == [{"id": "imgA", "path": "imgA.rtm"}]
    entry = doc["labeled"][0]
    assert entry == {
        "image_ref": "imgA",
        "bbox": [0, 0, 2, 2],
        "equipment_type": "transformer",
        "status": "normal",
    }


def test_region_dict_round_trip():
    for status in (Status.FAULT, None):
        r = RegionAnnotation((1, 2, 3, 4), EquipmentType.ARRESTER, status, "imgA")
        assert RegionAnnotation.from_dict(r.to_dict()) == r
    # detector output may carry more keys than a region; they are ignored
    doc = {**r.to_dict(), "score": 0.9}
    assert RegionAnnotation.from_dict(doc) == r
    del doc["status"]
    assert RegionAnnotation.from_dict(doc) == r  # a missing status reads as null


@pytest.mark.parametrize("split", ["labeled", "test"])
def test_load_manifest_labeled_and_test_entries_need_a_status_key(tmp_path, split):
    _write_rtm(tmp_path, "imgA")
    lab = {"image_ref": "imgA", "bbox": [2, 2, 2, 2], "equipment_type": "arrester",
           "status": "normal"}
    typo = {"image_ref": "imgA", "bbox": [0, 0, 2, 2], "equipment_type": "arrester",
            "stauts": "normal", "score": 0.9}
    doc = {"images": [{"id": "imgA", "path": "imgA.rtm"}], "labeled": [lab]}
    doc[split] = doc.get(split, []) + [typo]
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match=rf"{split}\[{len(doc[split]) - 1}\] has no status"):
        load_manifest(mpath)
    typo["status"] = "normal"  # keys beyond the region's, such as a score, stay allowed
    mpath.write_text(json.dumps(doc))
    assert len(getattr(load_manifest(mpath), split)) == len(doc[split])


def test_load_manifest_null_status_routes_to_unlabeled(tmp_path):
    _write_rtm(tmp_path, "imgA")
    doc = {
        "images": [{"id": "imgA", "path": "imgA.rtm"}],
        "labeled": [
            {"image_ref": "imgA", "bbox": [0, 0, 2, 2], "equipment_type": "arrester",
             "status": "normal"},
            {"image_ref": "imgA", "bbox": [2, 2, 2, 2], "equipment_type": "arrester",
             "status": None},
        ],
        "unlabeled": [],
        "test": [],
    }
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(doc))
    manifest = load_manifest(mpath)
    assert len(manifest.labeled) == 1
    assert len(manifest.unlabeled) == 1
    assert manifest.unlabeled[0].status is None


def test_load_manifest_rejects_status_in_unlabeled(tmp_path):
    _write_rtm(tmp_path, "imgA")
    doc = {
        "images": [{"id": "imgA", "path": "imgA.rtm"}],
        "unlabeled": [
            {"image_ref": "imgA", "bbox": [0, 0, 2, 2], "equipment_type": "arrester",
             "status": "fault"}
        ],
    }
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(doc))
    with pytest.raises(ManifestError):
        load_manifest(mpath)


def test_load_manifest_unknown_image(tmp_path):
    doc = {
        "images": [],
        "labeled": [
            {"image_ref": "ghost", "bbox": [0, 0, 1, 1], "equipment_type": "bushing",
             "status": "fault"}
        ],
    }
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(doc))
    with pytest.raises(ManifestError) as exc:
        load_manifest(mpath)
    assert "ghost" in str(exc.value)


def test_load_manifest_missing_image_file(tmp_path):
    doc = {"images": [{"id": "x", "path": "nope.rtm"}]}
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(doc))
    with pytest.raises(ManifestError) as exc:
        load_manifest(mpath)
    assert "not found" in str(exc.value)


def test_load_manifest_invalid_json(tmp_path):
    mpath = tmp_path / "manifest.json"
    mpath.write_text("{nope")
    # a file-format fault (exit 2), not a manifest's content (exit 1)
    with pytest.raises(InputFormatError, match="manifest.json: not valid UTF-8 JSON") as err:
        load_manifest(mpath)
    assert not isinstance(err.value, ManifestError)


@pytest.mark.parametrize(
    "text, where",
    [
        # a bad cell, but the row count is wrong
        (b"2,5\n1,x\n3,4\n5,6\n7,8\n", ", line 5: expected 5 data rows, found 4"),
        (b"2,2\n1,x\n3,4\n5,6\n7,8\n", ", line 5: expected 2 data rows, found 4"),
        # a bad cell in a late row
        (b"2,4\n1,2\n3,4\n5,6\n7,inf\n", ", line 5, column 2: non-finite cell 'inf'"),
        (b"2,4\n1,2\n3,4\n5,6,7\n8,9\n", ", line 4: row has 3 values, expected 2"),
        # a blank line is a row, which numpy's reader would skip
        (b"2,2\n1,2\n\n3,4\n", ", line 4: expected 2 data rows, found 3"),
        (b"2,2\n1,2\n3,4\n\n", ", line 4: expected 2 data rows, found 3"),
        (b"2,1\n\n", ", line 2: row has 1 values, expected 2"),
        (b"2,2\n", ", line 1: expected 2 data rows, found 0"),
        # a byte that is not UTF-8 past a bad header or a bad first cell,
        # within the file's first decoded chunk and far past it
        (b"2;4\n1,2\n3,4\n5,6\n7,\xff\n", None),
        (b"2,4\n1,x\n3,4\n5,6\n7,\xff\n", None),
        pytest.param(b"2;5000\n" + b"1,2\n" * 4999 + b"7,\xff\n", None, id="late-byte-header"),
        pytest.param(b"2,5000\n1,x\n" + b"1,2\n" * 4998 + b"7,\xff\n", None, id="late-byte-cell"),
    ],
)
def test_rtm_errors_across_blocks_keep_their_order(tmp_path, text, where):
    """The error is the whole file's first: a non-UTF-8 byte (at its offset
    in the file), then a wrong row count, then the first bad row."""
    path = tmp_path / "blocks.rtm"
    path.write_bytes(text)
    if where is None:
        with pytest.raises(UnicodeDecodeError) as decode:
            text.decode("utf-8")
        where = f": not UTF-8 text ({decode.value})"
    with pytest.raises(RtmFormatError) as exc:
        load_thermal(path)
    assert str(exc.value) == f"{path}{where}"


def test_load_thermal_peak_memory_is_bounded(tmp_path):
    """Loading a 640x480 frame allocates at most 4x its temperatures: the
    file's text is never held whole, nor are all its cells as strings."""
    temps = np.random.default_rng(0).normal(30.0, 5.0, (480, 640))
    path = tmp_path / "frame.rtm"
    save_thermal(make_image(temps), path)
    tracemalloc.start()
    try:
        img = load_thermal(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert img.temps.tobytes() == temps.tobytes()
    assert peak <= 4 * temps.nbytes, f"peak {peak / temps.nbytes:.1f}x the array"
