import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermofault.images import (
    DatasetManifest,
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
         "\u0661\u0662", "1.5\x0c", "-0.0"]
    ),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_load_thermal_matches_float_cell_loop(tmp_path_factory, w, h, data):
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
    with pytest.raises(ManifestError):
        load_manifest(mpath)
