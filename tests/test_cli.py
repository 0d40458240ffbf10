import contextlib
import dataclasses
import hashlib
import io
import json
import math
import time
import warnings
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermofault import cli, density
from thermofault.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, _predictions, main
from thermofault.density import DEFAULT_GRID, FeatureGrid, PdfFeature, feature_vector
from thermofault.embedding import TrainConfig, embedder_from_dict
from thermofault.harness import (
    SPLITS,
    ExperimentConfig,
    extract_features,
    fit_model,
    fit_splits,
    report_to_dict,
    run_both,
)
from thermofault.images import (
    RegionAnnotation,
    ThermalImage,
    extract_region,
    load_manifest,
    load_thermal,
    save_thermal,
)
from thermofault.prototypes import Posterior, model_from_dict, posterior
from thermofault.synthetic import default_synth_config, separable_synth_config
from thermofault.taxonomy import (
    EQUIPMENT_TYPES,
    STATUSES,
    SUBCATEGORIES,
    InputFormatError,
    SubcategoryId,
    encode_json,
    read_json,
    write_records,
)


# A feature file with no records, on the default grid
EMPTY_FEATURES = {"grid": DEFAULT_GRID.to_dict(), "records": []}


def compact(doc) -> bytes:
    """doc in the one form of every JSON artifact and prediction line:
    orjson's compact JSON with sorted keys (no newline)."""
    return orjson.dumps(doc, option=orjson.OPT_SORT_KEYS)


def run_cli(*argv):
    return main([str(a) for a in argv])


def write_small_synth_config(path: Path, seed: int = 5) -> Path:
    cfg = dataclasses.replace(
        default_synth_config(seed=seed), counts={"labeled": 2, "unlabeled": 2, "test": 1}
    )
    path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    return path


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def restamped(model: Path, embedder, out: Path) -> Path:
    """A copy of model at out whose embedder stamp is the digest of the
    embedder file (None: null), so that classify gets past its stamp check."""
    doc = json.loads(model.read_text())
    doc["embedder"] = embedder and hashlib.sha256(Path(embedder).read_bytes()).hexdigest()
    out.write_text(json.dumps(doc), encoding="utf-8")
    return out


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """Small synthetic dataset plus extracted features, shared by read-only tests."""
    root = tmp_path_factory.mktemp("ds")
    cfg_path = write_small_synth_config(root / "synth.json")
    assert run_cli("synth", "--out", root / "data", "--config", cfg_path) == EXIT_OK
    features = root / "features.json"
    assert (
        run_cli("extract", "--manifest", root / "data" / "manifest.json", "--out", features)
        == EXIT_OK
    )
    return root


# ------------------------------------------------------------------- synth

def test_synth_same_seed_identical_trees(tmp_path):
    cfg_path = write_small_synth_config(tmp_path / "synth.json")
    assert run_cli("synth", "--out", tmp_path / "a", "--config", cfg_path, "--seed", 7) == EXIT_OK
    assert run_cli("synth", "--out", tmp_path / "b", "--config", cfg_path, "--seed", 7) == EXIT_OK
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


def test_synth_default_covers_ten_subcategories(tmp_path, capsys):
    assert run_cli("synth", "--out", tmp_path / "d", "--seed", 0) == EXIT_OK
    out = capsys.readouterr().out
    manifest = load_manifest(tmp_path / "d" / "manifest.json")
    assert len({r.subcategory for r in manifest.labeled}) == 10
    assert "labeled=150 unlabeled=150 test=100" in out


def test_synth_zero_count_split(tmp_path):
    cfg = dataclasses.replace(
        default_synth_config(seed=1), counts={"labeled": 1, "unlabeled": 0, "test": 1}
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    assert run_cli("synth", "--out", tmp_path / "d", "--config", cfg_path) == EXIT_OK
    manifest = load_manifest(tmp_path / "d" / "manifest.json")
    assert manifest.unlabeled == ()
    assert len(manifest.labeled) == 10


@pytest.mark.parametrize(
    "where, key", [((), "models"), (("models",), "arrester")], ids=["models", "status-map"]
)
def test_synth_config_map_that_is_not_an_object_fails(tmp_path, capsys, where, key):
    doc = default_synth_config().to_dict()
    target = doc
    for k in where:
        target = target[k]
    target[key] = 7
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli("synth", "--out", tmp_path / "d", "--config", cfg_path) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert key in err and "must be a JSON object, got 7" in err
    assert not (tmp_path / "d").exists()


# ----------------------------------------------------------------- extract

def test_extract_matches_library_feature_vector(dataset):
    doc = json.loads((dataset / "features.json").read_text())
    records = doc["records"]
    manifest = load_manifest(dataset / "data" / "manifest.json")
    rec = records[0]
    img = load_thermal(dataset / "data" / f"{rec['image_ref']}.rtm", source_id=rec["image_ref"])
    samples = extract_region(img, tuple(rec["bbox"]))
    grid = FeatureGrid.from_dict(doc["grid"])
    assert grid == DEFAULT_GRID
    feat = feature_vector(samples, grid, bandwidth="auto")
    assert feat.values.tolist() == rec["feature"]["values"]
    assert feat.bandwidth == rec["feature"]["bandwidth"]
    assert len(records) == len(manifest.labeled) + len(manifest.unlabeled) + len(manifest.test)


def test_extract_record_region_fields_come_from_the_region(dataset):
    records = json.loads((dataset / "features.json").read_text())["records"]
    manifest = load_manifest(dataset / "data" / "manifest.json")
    regions = manifest.labeled + manifest.unlabeled + manifest.test
    assert len(records) == len(regions)
    for rec, region in zip(records, regions):
        region_fields = {k: v for k, v in rec.items() if k not in ("split", "feature")}
        assert region_fields == region.to_dict()


def test_extract_writes_one_line_of_compact_json(dataset, tmp_path):
    """The streamed feature file is the compact JSON of the whole payload, built
    here from the library's features, each serialized as a PdfFeature,
    under the file's one grid."""
    cfg = ExperimentConfig(manifest_path=str(dataset / "data" / "manifest.json"))
    manifest, features = extract_features(cfg, feature_vector)
    records = [
        {**region.to_dict(), "split": split, "feature": PdfFeature(cfg.grid, row, w).to_dict()}
        for split in ("labeled", "unlabeled", "test")
        for region, row, w in zip(getattr(manifest, split), *features[split])
    ]
    assert len(records) == 10 * (2 + 2 + 1)
    expected = compact({"grid": cfg.grid.to_dict(), "records": records}) + b"\n"
    assert (dataset / "features.json").read_bytes() == expected

    empty = tmp_path / "manifest.json"
    empty.write_text(json.dumps({"images": [], "labeled": [], "unlabeled": [], "test": []}))
    out = tmp_path / "features.json"
    assert run_cli("extract", "--manifest", empty, "--out", out) == EXIT_OK
    assert out.read_bytes() == compact(EMPTY_FEATURES) + b"\n"
    assert out.read_bytes() == b'{"grid":{"n_points":128,"t_hi":120.0,"t_lo":-20.0},"records":[]}\n'


def test_extract_corrupt_rtm_reports_file_and_line(dataset, tmp_path, capsys):
    import shutil

    shutil.copytree(dataset / "data", tmp_path / "data")
    victim = next(p for p in sorted((tmp_path / "data").glob("*.rtm")))
    lines = victim.read_text().splitlines()
    cells = lines[2].split(",")
    cells[1] = "oops"
    lines[2] = ",".join(cells)
    victim.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = run_cli("extract", "--manifest", tmp_path / "data" / "manifest.json", "--out", tmp_path / "f.json")
    err = capsys.readouterr().err
    assert code == EXIT_IO
    assert victim.name in err
    assert "line 3" in err
    assert not (tmp_path / "f.json").exists()


def test_extract_missing_manifest_is_io_error(tmp_path, capsys):
    code = run_cli("extract", "--manifest", tmp_path / "nope.json", "--out", tmp_path / "f.json")
    assert code == EXIT_IO
    assert "error" in capsys.readouterr().err


def test_extract_rtm_that_is_not_utf8_is_io_error_naming_the_file(dataset, tmp_path, capsys):
    import shutil

    shutil.copytree(dataset / "data", tmp_path / "data")
    victim = next(p for p in sorted((tmp_path / "data").glob("*.rtm")))
    victim.write_bytes(b"\xff" + victim.read_bytes())
    code = run_cli("extract", "--manifest", tmp_path / "data" / "manifest.json", "--out", tmp_path / "f.json")
    assert code == EXIT_IO
    assert f"{victim}: not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "f.json").exists()


CORRUPT_JSON_INPUTS = {  # input kind -> (a valid JSON file to corrupt, the command that reads it)
    "synth config": ("{ds}/synth.json", ["synth", "--config", "{bad}", "--out", "{out}"]),
    "eval config": ("{ds}/synth.json", ["eval", "--config", "{bad}", "--out", "{out}"]),
    "manifest": ("{ds}/data/manifest.json", ["extract", "--manifest", "{bad}", "--out", "{out}"]),
    "feature file": ("{ds}/features.json", ["train", "--features", "{bad}", "--out", "{out}"]),
    "model": (
        "{sep}/model.json",
        ["classify", "--model", "{bad}", "--features", "{sep}/features.json", "--out", "{out}"],
    ),
    "embedder": (
        "{mlp}/seed1.json.embedder.json",
        [
            "classify", "--model", "{stamped}", "--features", "{sep}/features.json",
            "--embedder-file", "{bad}", "--out", "{out}",
        ],
    ),
}


@pytest.mark.parametrize("how", ["truncated", "not UTF-8"])
@pytest.mark.parametrize("kind", list(CORRUPT_JSON_INPUTS))
def test_a_corrupt_json_input_is_io_error_naming_the_file(
    dataset, separable_run, mlp_runs, tmp_path, capsys, kind, how
):
    bad, out = tmp_path / "bad.json", tmp_path / "out"
    names = {"ds": dataset, "sep": separable_run, "mlp": mlp_runs, "bad": bad, "out": out}
    source, argv = CORRUPT_JSON_INPUTS[kind]
    data = Path(source.format(**names)).read_bytes()
    bad.write_bytes(data[: len(data) // 2] if how == "truncated" else b"\xff" + data)
    # classify reads an embedder file only for a model stamped with its digest
    names["stamped"] = restamped(mlp_runs / "seed1.json", bad, tmp_path / "stamped.json")
    code = run_cli(*(arg.format(**names) for arg in argv))
    assert code == EXIT_IO
    assert f"error: {bad}: not valid UTF-8 JSON" in capsys.readouterr().err
    assert not out.exists()


def test_extract_invalid_manifest_is_validation_error(dataset, tmp_path, capsys):
    doc = json.loads((dataset / "data" / "manifest.json").read_text())
    doc["labeled"][0]["bbox"] = [0, 0, 999, 999]
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    # image paths are relative to the manifest location
    for p in (dataset / "data").glob("*.rtm"):
        (tmp_path / p.name).write_bytes(p.read_bytes())
    code = run_cli("extract", "--manifest", bad, "--out", tmp_path / "f.json")
    assert code == EXIT_VALIDATION
    assert "outside" in capsys.readouterr().err


def _without_status(doc):
    return {k: v for k, v in doc["labeled"][0].items() if k != "status"}


def _without_arrester_normal(doc):
    labeled = doc["labeled"]
    return [r for r in labeled if (r["equipment_type"], r["status"]) != ("arrester", "normal")]


@pytest.mark.parametrize(
    "where, value, message",
    [
        (("test",), False, "manifest 'test' must be a list, got False"),
        (("images",), None, "manifest 'images' must be a list, got None"),
        (("labeled",), -1, "manifest 'labeled' must be a list, got -1"),
        (
            ("unlabled",), lambda doc: doc.pop("unlabeled"),
            "unknown manifest key(s): 'unlabled'; expected: images, labeled, unlabeled, test",
        ),
        (("labeled", 0, "bbox", 0), 0.5, "labeled[0]: region bbox 0 must be an integer, got 0.5"),
        (
            ("labeled", 0, "bbox", 0), True,
            "labeled[0]: region bbox 0 must be an integer, got True",
        ),
        (("labeled", 0, "image_ref"), 5, "labeled[0]: region 'image_ref' must be a string, got 5"),
        (("images", 0, "id"), 5, "images[0]: image 'id' must be a string, got 5"),
        (("images", 0, "path"), None, "images[0]: image 'path' must be a string, got None"),
        (("images", 0), {"id": "x"}, "images[0]: image entry needs 'id' and 'path'"),
        (
            ("images", 1), {"id": "arrester_fault_labeled_000", "path": "a.rtm"},
            "images[1]: duplicate image id 'arrester_fault_labeled_000'",
        ),
        (("images", 0), "a.rtm", "images[0]: image entry needs 'id' and 'path'"),
        (
            ("images", 0, "path"), "nope.rtm",
            "image 'arrester_fault_labeled_000' not found at {dir}/nope.rtm",
        ),
        (
            ("labeled", 0, "equipment_type"), "pump",
            "labeled[0]: unknown equipment type 'pump'; expected one of: transformer, bushing,"
            " voltage_transformer, current_transformer, arrester",
        ),
        (
            ("labeled", 0), _without_status,
            "labeled[0] has no status key; give null to mark it unlabeled",
        ),
        (
            ("labeled", 0, "image_ref"), "ghost",
            "labeled[0] references unknown image 'ghost'",
        ),
        (
            ("unlabeled", 0, "status"), "fault",
            "unlabeled[0] carries a status; drop it or move the region",
        ),
        (
            ("test", 0), lambda doc: doc["labeled"][0],
            "region ('transformer_normal_labeled_000', (3, 1, 16, 16))"
            " appears in both labeled and test splits",
        ),
        (
            ("labeled",), _without_arrester_normal,
            "test subcategory arrester:normal has no labeled examples",
        ),
        (
            ("labeled",), lambda doc: doc["labeled"] + doc["labeled"][:1],
            "region ('transformer_normal_labeled_000', (3, 1, 16, 16))"
            " appears twice in the labeled split",
        ),
        (  # a null-status region declared in labeled lands in unlabeled
            ("labeled",), lambda doc: doc["labeled"] + doc["unlabeled"][:1],
            "region ('transformer_normal_unlabeled_000', (1, 3, 16, 16))"
            " appears twice in the unlabeled split",
        ),
    ],
    ids=[
        "test-false", "images-null", "labeled-negative", "misspelled-unlabeled",
        "bbox-cell-half", "bbox-cell-true", "image-ref-int", "image-id-int", "image-path-null",
        "image-without-path", "duplicate-image-id", "image-entry-string", "missing-image-file",
        "unknown-equipment-type", "labeled-without-status-key", "unknown-image",
        "status-in-unlabeled", "region-in-two-splits", "test-class-without-labeled",
        "region-twice-in-labeled", "region-twice-in-unlabeled",
    ],
)
def test_extract_manifest_top_level_keys_are_checked(
    dataset, tmp_path, capsys, where, value, message
):
    """Each fault that load_manifest rejects exits 1 with one error line
    that names the manifest and then the fault's place in it. Among them:
    a misspelled split, which would read as an empty one, and a bbox cell
    that is not a JSON integer (0.5 is not read as 0, nor true as 1). A
    callable value computes the new value from the manifest."""
    doc = json.loads((dataset / "data" / "manifest.json").read_text())
    *path, last = where
    target = doc
    for key in path:
        target = target[key]
    target[last] = value(doc) if callable(value) else value
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    for p in (dataset / "data").glob("*.rtm"):
        (tmp_path / p.name).write_bytes(p.read_bytes())
    code = run_cli("extract", "--manifest", bad, "--out", tmp_path / "f.json")
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == [f"error: {bad}: {message.format(dir=tmp_path)}"]
    assert not (tmp_path / "f.json").exists()


@pytest.mark.parametrize("bandwidth", ["inf", "nan"])
def test_extract_non_finite_bandwidth_fails(dataset, tmp_path, capsys, bandwidth):
    out = tmp_path / "f.json"
    code = run_cli(
        "extract", "--manifest", dataset / "data" / "manifest.json", "--out", out,
        "--bandwidth", bandwidth,
    )
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert f'bandwidth must be "auto" or a positive finite number, got {bandwidth}' in err
    assert not out.exists()


def test_extract_one_pixel_region_names_bandwidth_and_grid_step(dataset, tmp_path, capsys):
    import shutil

    shutil.copytree(dataset / "data", tmp_path / "data")
    manifest = tmp_path / "data" / "manifest.json"
    doc = json.loads(manifest.read_text())
    x, y = doc["labeled"][0]["bbox"][:2]
    doc["labeled"][0]["bbox"] = [x, y, 1, 1]
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    code = run_cli("extract", "--manifest", manifest, "--out", tmp_path / "f.json")
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert "bandwidth 1e-06" in err and "grid step" in err
    assert "does not overlap" not in err
    assert not (tmp_path / "f.json").exists()


@pytest.mark.parametrize("bandwidth", ["auto", "0.8"])
def test_extract_a_pixel_of_1e308(dataset, tmp_path, capsys, bandwidth):
    """One RTM cell of 1e308 in a labeled region, and no RuntimeWarning.
    Silverman's rule squares the cell's distance from the mean past
    float64, so "auto" exits 1 and names the region. A fixed bandwidth
    takes no variance: the cell's kernel terms overflow, fall below the
    cut and are 0.0, as for any cell far off the grid, so the feature file
    is the one the same cell at 1e6 gives."""
    import shutil

    shutil.copytree(dataset / "data", tmp_path / "data")
    manifest = tmp_path / "data" / "manifest.json"
    loaded = load_manifest(manifest)
    region = loaded.labeled[0]
    path = loaded.image_paths[region.image_ref]
    img = load_thermal(path, region.image_ref)
    x, y = region.bbox[:2]
    runs = {}
    for value in (1e308, 1e6):
        temps = img.temps.copy()
        temps[y, x] = value
        save_thermal(ThermalImage(img.width, img.height, temps, img.source_id), path)
        out = tmp_path / f"{value}.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("extract", "--manifest", manifest, "--out", out, "--bandwidth", bandwidth)
        runs[value] = code, capsys.readouterr().err, out
    code, err, out = runs[1e308]
    if bandwidth == "auto":
        assert code == EXIT_VALIDATION and err.count("error:") == 1
        assert f"labeled region {region.key()}: the variance of the samples [" in err
        assert "1e+308] overflows float64" in err
        assert not out.exists()
    else:
        assert code == EXIT_OK and err == ""
        assert out.read_bytes() == runs[1e6][2].read_bytes()


@pytest.mark.parametrize("company", [False, True])
def test_extract_feature_error_names_the_manifest_and_region(tmp_path, capsys, company):
    """A constant 8x8 region at 25.0 C has no density on the grid. The error
    names the manifest, split, image and bbox of that region; with company,
    it shares its stack with an equal-size region before it and one after
    it, of its own image and of another."""
    temps = np.random.default_rng(0).normal(30.0, 2.0, (16, 16))
    temps[8:, 8:] = 25.0
    for name in ("imgA", "imgB"):
        save_thermal(ThermalImage(16, 16, temps, name), tmp_path / f"{name}.rtm")

    def region(image, x, y, status):
        return {"image_ref": image, "bbox": [x, y, 8, 8], "equipment_type": "bushing",
                "status": status}

    doc = {
        "images": [{"id": name, "path": f"{name}.rtm"} for name in ("imgA", "imgB")],
        "labeled": [region("imgA", 0, 0, "normal"), region("imgB", 0, 0, "normal")]
        if company else [],
        "unlabeled": [region("imgA", 8, 8, None)],
    }
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "f.json"
    assert run_cli("extract", "--manifest", manifest, "--out", out) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"error: {manifest}: unlabeled region ('imgA', (8, 8, 8, 8)): bandwidth 1e-06 is too"
        f" small for the feature grid step {FeatureGrid(-20.0, 120.0, 128).step!r}: the density"
        " of the samples [25.0, 25.0] is 0 at every grid point\n"
    )
    assert not out.exists()


def test_extract_feature_error_is_the_first_in_image_order(tmp_path, capsys):
    """imgA holds an 8x8 region that works and a constant 10x10 one that
    fails; imgB holds a constant 8x8 one. The 8x8 stack is computed first
    and fails on imgB's region, but the error names imgA's 10x10 region,
    the first failing region in image order."""
    rng = np.random.default_rng(0)
    temps = {"imgA": rng.normal(30.0, 2.0, (16, 16)), "imgB": rng.normal(30.0, 2.0, (16, 16))}
    temps["imgA"][6:, 6:] = 25.0
    temps["imgB"][8:, 8:] = 25.0
    for name, t in temps.items():
        save_thermal(ThermalImage(16, 16, t, name), tmp_path / f"{name}.rtm")

    def region(image, x, y, size):
        return {"image_ref": image, "bbox": [x, y, size, size], "equipment_type": "bushing",
                "status": "normal"}

    doc = {
        "images": [{"id": name, "path": f"{name}.rtm"} for name in ("imgA", "imgB")],
        "labeled": [region("imgA", 0, 0, 8), region("imgB", 8, 8, 8), region("imgA", 6, 6, 10)],
    }
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "f.json"
    assert run_cli("extract", "--manifest", manifest, "--out", out) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"error: {manifest}: labeled region ('imgA', (6, 6, 10, 10)): bandwidth 1e-06 is too"
        f" small for the feature grid step {FeatureGrid(-20.0, 120.0, 128).step!r}: the density"
        " of the samples [25.0, 25.0] is 0 at every grid point\n"
    )
    assert not out.exists()


def test_invalid_flag_usage_error_touches_nothing(dataset, tmp_path, capsys):
    out = tmp_path / "model.json"
    code = run_cli(
        "train", "--features", dataset / "features.json", "--out", out, "--alpha", "lots"
    )
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert "usage" in err
    assert not out.exists()


def test_unknown_subcommand_is_usage_error(capsys):
    assert run_cli("transmogrify") == EXIT_VALIDATION
    assert "usage" in capsys.readouterr().err


# ------------------------------------------------------------------- train

def test_train_supervised_centers_equal(dataset, tmp_path):
    out = tmp_path / "model.json"
    code = run_cli(
        "train", "--features", dataset / "features.json", "--out", out, "--mode", "supervised"
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["alpha"] == 1.0
    assert doc["centers_refined"] == doc["centers_labeled"]
    assert len(doc["classes"]) == 10


def test_train_weak_records_alpha(dataset, tmp_path):
    out = tmp_path / "model.json"
    code = run_cli(
        "train",
        "--features", dataset / "features.json",
        "--out", out,
        "--mode", "weak",
        "--alpha", 0.25,
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["alpha"] == 0.25
    assert doc["centers_refined"] != doc["centers_labeled"]


def test_train_mlp_zero_episodes(dataset, tmp_path):
    out = tmp_path / "model.json"
    code = run_cli(
        "train",
        "--features", dataset / "features.json",
        "--out", out,
        "--embedder", "mlp",
        "--episodes", 0,
        "--hidden", 8,
        "--out-dim", 6,
    )
    assert code == EXIT_OK
    emb = json.loads(Path(str(out) + ".embedder.json").read_text())
    assert emb["kind"] == "mlp"
    assert emb["dims"] == [128, 8, 6]
    doc = json.loads(out.read_text())
    assert doc["feature_dim"] == 6


@pytest.mark.parametrize(
    "mode, flags",
    [("weak", ()), ("supervised", ()), ("weak", ("--embedder", "mlp", "--episodes", 20))],
    ids=["weak", "supervised", "mlp"],
)
def test_train_mlp_matches_harness_embedder(dataset, tmp_path, mode, flags):
    """train's model (and embedder) are the harness's fit on extract_features
    of the same manifest."""
    out = tmp_path / "model.json"
    code = run_cli(
        "train", "--features", dataset / "features.json", "--out", out,
        "--mode", mode, "--seed", 5, *flags,
    )
    assert code == EXIT_OK
    cfg = ExperimentConfig(
        manifest_path=str(dataset / "data" / "manifest.json"),
        seed=5,
        embedder=TrainConfig(episodes=20) if flags else None,
    )
    manifest, features = extract_features(cfg, feature_vector)
    vectors = {split: features[split][0] for split in SPLITS}
    harness_emb, data = fit_splits(manifest, vectors, cfg.embedder, cfg.seed)
    harness_model = fit_model(data.labeled, data.unlabeled, mode, cfg.alpha, cfg.refine_iters)
    cli_model = model_from_dict(json.loads(out.read_text()))[0]
    assert cli_model.classes == harness_model.classes
    for name in ("centers_labeled", "centers_refined"):
        assert np.array_equal(getattr(cli_model, name), getattr(harness_model, name)), name
    if flags:
        cli_emb = embedder_from_dict(json.loads(Path(f"{out}.embedder.json").read_text()))
        for name in ("W1", "b1", "W2", "b2"):
            assert np.array_equal(getattr(cli_emb, name), getattr(harness_emb, name)), name


def grid_key_error(feats: Path, i: int) -> str:
    """The error line for record i of feats whose feature holds 't_lo'."""
    return (
        f"error: feature file {feats}: record {i}: unknown feature key(s): 't_lo';"
        " expected: values, bandwidth\n"
    )


@pytest.mark.parametrize("split", ["labeled", "unlabeled"])
def test_train_rejects_mixed_grids(dataset, tmp_path, capsys, split):
    """The file's grid is the one grid: a record whose feature still holds a
    grid key of its own, as in the older per-record format, is an error
    naming the record and the key."""
    doc = json.loads((dataset / "features.json").read_text())
    i = next(i for i, rec in enumerate(doc["records"]) if rec["split"] == split)
    doc["records"][i]["feature"]["t_lo"] = 0.0  # same n_points, different grid
    feats = tmp_path / "mixed.json"
    feats.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "m.json"
    code = run_cli("train", "--features", feats, "--out", out)
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == grid_key_error(feats, i)
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "classify"])
def test_a_feature_file_without_a_grid_asks_to_re_extract(dataset, tmp_path, capsys, command):
    """A feature file in the older format, each record's feature holding the
    grid keys and no top-level "grid", exits 1 with one error line naming
    the file and the key."""
    doc = json.loads((dataset / "features.json").read_text())
    for rec in doc["records"]:
        rec["feature"].update(doc["grid"])
    del doc["grid"]
    feats = tmp_path / "old.json"
    feats.write_text(json.dumps(doc), encoding="utf-8")
    model = tmp_path / "model.json"
    assert run_cli("train", "--features", dataset / "features.json", "--out", model) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "out.json"
    args = ["--model", model] if command == "classify" else []
    assert run_cli(command, "--features", feats, "--out", out, *args) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: feature file {feats} needs key(s): 'grid'\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--hidden", "--out-dim", "--episodes", "--lr"])
def test_train_rejects_mlp_flags_without_mlp_embedder(dataset, tmp_path, capsys, flag):
    out = tmp_path / "m.json"
    code = run_cli("train", "--features", dataset / "features.json", "--out", out, flag, 1)
    assert code == EXIT_VALIDATION
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_train_no_labeled_records(tmp_path, capsys):
    feats = tmp_path / "features.json"
    feats.write_text(json.dumps(EMPTY_FEATURES), encoding="utf-8")
    code = run_cli("train", "--features", feats, "--out", tmp_path / "m.json")
    assert code == EXIT_VALIDATION
    assert "no labeled records" in capsys.readouterr().err


# ---------------------------------------------------------------- classify

@pytest.fixture(scope="module")
def separable_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("sep")
    cfg = dataclasses.replace(
        separable_synth_config(seed=3), counts={"labeled": 3, "unlabeled": 3, "test": 2}
    )
    (root / "synth.json").write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    assert run_cli("synth", "--out", root / "data", "--config", root / "synth.json") == EXIT_OK
    assert run_cli(
        "extract",
        "--manifest", root / "data" / "manifest.json",
        "--out", root / "features.json",
        "--t-lo", 0, "--t-hi", 120,
    ) == EXIT_OK
    assert run_cli(
        "train", "--features", root / "features.json", "--out", root / "model.json"
    ) == EXIT_OK
    assert run_cli(
        "classify",
        "--model", root / "model.json",
        "--features", root / "features.json",
        "--out", root / "predictions.jsonl",
    ) == EXIT_OK
    return root


def test_classify_separable_matches_labels(separable_run):
    lines = (separable_run / "predictions.jsonl").read_text().splitlines()
    assert len(lines) == 10 * (3 + 3 + 2)
    checked = 0
    for line in lines:
        rec = json.loads(line)
        if rec["status"] is None:
            continue
        assert rec["predicted"]["equipment_type"] == rec["equipment_type"]
        assert rec["predicted"]["status"] == rec["status"]
        checked += 1
    assert checked == 10 * (3 + 2)


def test_classify_posteriors_sum_to_one(separable_run):
    for line in (separable_run / "predictions.jsonl").read_text().splitlines():
        rec = json.loads(line)
        total = sum(c["prob"] for c in rec["posterior"])
        assert abs(total - 1.0) <= 1e-12
        assert len(rec["posterior"]) == 10
        best = min(rec["posterior"], key=lambda c: (c["distance"]))
        assert rec["predicted"]["equipment_type"] == best["equipment_type"]


def test_classify_class_fields_come_from_the_subcategory(separable_run):
    model, _, _ = model_from_dict(json.loads((separable_run / "model.json").read_text()))
    for line in (separable_run / "predictions.jsonl").read_text().splitlines():
        rec = json.loads(line)
        region = RegionAnnotation.from_dict(rec)
        assert {k: rec[k] for k in region.to_dict()} == region.to_dict()
        assert rec["predicted"] == SubcategoryId.from_dict(rec["predicted"]).to_dict()
        classes = [{k: c[k] for k in ("equipment_type", "status")} for c in rec["posterior"]]
        assert classes == [c.to_dict() for c in model.classes]


def test_classify_names_model_and_embedder_widths(separable_run, tmp_path, capsys):
    """Models whose stamp matches what classify gets, but whose width does
    not: the 6-wide MLP model stamped as trained without an embedder, and
    the 128-wide model stamped as trained through the 6-wide embedder."""
    feats, trained = separable_run / "features.json", tmp_path / "trained.json"
    embedder = f"{trained}.embedder.json"
    assert run_cli(
        "train", "--features", feats, "--out", trained,
        "--embedder", "mlp", "--episodes", 0, "--out-dim", 6,
    ) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "p.jsonl"
    mlp_model = restamped(trained, None, tmp_path / "mlp.json")
    identity_model = restamped(separable_run / "model.json", embedder, tmp_path / "identity.json")
    for model, extra, source, widths in (
        (mlp_model, [], "no --embedder-file", ("6-wide", "128 wide")),
        (identity_model, ["--embedder-file", embedder], embedder, ("128-wide", "6 wide")),
    ):
        code = run_cli("classify", "--model", model, "--features", feats, "--out", out, *extra)
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert str(model) in err and source in err
        assert all(w in err for w in widths), err
        assert not out.exists()


def test_classify_empty_features(separable_run, tmp_path):
    doc = json.loads((separable_run / "features.json").read_text())
    feats = tmp_path / "empty.json"
    feats.write_text(json.dumps({**doc, "records": []}), encoding="utf-8")
    out = tmp_path / "pred.jsonl"
    code = run_cli(
        "classify", "--model", separable_run / "model.json", "--features", feats, "--out", out
    )
    assert code == EXIT_OK
    assert out.read_text() == ""


def test_classify_empty_features_through_an_embedder(separable_run, tmp_path):
    model = tmp_path / "mlp.json"
    assert run_cli(
        "train", "--features", separable_run / "features.json", "--out", model,
        "--embedder", "mlp", "--episodes", 0, "--out-dim", 6,
    ) == EXIT_OK
    doc = json.loads((separable_run / "features.json").read_text())
    feats = tmp_path / "empty.json"
    feats.write_text(json.dumps({**doc, "records": []}), encoding="utf-8")
    out = tmp_path / "pred.jsonl"
    code = run_cli(
        "classify", "--model", model, "--features", feats, "--out", out,
        "--embedder-file", f"{model}.embedder.json",
    )
    assert code == EXIT_OK
    assert out.read_text() == ""


@pytest.mark.parametrize(
    "artifact, where, value, message",
    [
        ("model", ("alpha",), [0.5], "model 'alpha' must be a number, got [0.5]"),
        ("model", ("classes",), 5, "model 'classes' must be a list, got 5"),
        ("model", ("classes", 0), 5, "class must be a JSON object, got 5"),
        ("model", ("feature_dim",), None, "model 'feature_dim' must be an integer, got None"),
        ("model", ("centers_refined", 0, 0), {}, "model 'centers_refined' must be an array"),
        ("features", ("records", 0, "bbox", 1), None, "region bbox 1 must be an integer, got None"),
        ("features", ("records", 0), 5, "record 0 must be a JSON object, got 5"),
        ("features", ("records", 0, "feature"), 5, "feature must be a JSON object, got 5"),
        ("features", ("records",), 5, "'records' must be a list, got 5"),
        (
            "features", ("records", 0, "feature", "values", 3), None,
            "feature 'values' must be finite",
        ),
        ("embedder", (), [1.0], "embedder must be a JSON object, got [1.0]"),
        ("embedder", (), {"kind": "identity"}, "embedder needs key(s): 'W1', 'b1', 'W2', 'b2'"),
        ("embedder", ("kind",), "identity", "embedder kind must be 'mlp', got 'identity'"),
        # numpy would read these as the numbers 0.5, 1.0 and 0.0
        ("model", ("centers_labeled", 1, 3), "0.5", "model 'centers_labeled' must be an array"),
        ("model", ("centers_refined", 0, 3), True, "model 'centers_refined' must be an array"),
        (
            "features", ("records", 4, "feature", "values", 7), False,
            "record 4: feature 'values' must be an array of numbers",
        ),
        ("embedder", ("W1", 2, 0), "0.5", "embedder 'W1' must be an array of numbers"),
        ("embedder", ("b1", 0), True, "embedder 'b1' must be an array of numbers"),
        ("embedder", ("W2", 0, 5), False, "embedder 'W2' must be an array of numbers"),
        ("embedder", ("b2", 9), "1", "embedder 'b2' must be an array of numbers"),
    ],
    ids=[
        "model-alpha-list",
        "model-classes-int",
        "model-class-int",
        "model-feature-dim-null",
        "model-center-object",
        "bbox-entry-null",
        "record-int",
        "record-feature-int",
        "records-int",
        "feature-value-null",
        "embedder-list",
        "embedder-identity",
        "embedder-kind-identity",
        "model-labeled-center-string",
        "model-refined-center-true",
        "feature-value-false",
        "embedder-W1-string",
        "embedder-b1-true",
        "embedder-W2-false",
        "embedder-b2-string",
    ],
)
def test_classify_malformed_artifact_exits_1(
    separable_run, tmp_path, capsys, artifact, where, value, message
):
    """A wrong JSON type in a model, feature or embedder file is a validation
    error that names the value, not an uncaught TypeError."""
    feats, model, embedder = (tmp_path / f"{n}.json" for n in ("features", "model", "embedder"))
    feats.write_bytes((separable_run / "features.json").read_bytes())
    model.write_bytes((separable_run / "model.json").read_bytes())
    assert run_cli(
        "train", "--features", feats, "--out", tmp_path / "mlp.json",
        "--embedder", "mlp", "--episodes", 0, "--out-dim", 128,
    ) == EXIT_OK
    Path(f"{tmp_path / 'mlp.json'}.embedder.json").rename(embedder)
    capsys.readouterr()
    path = {"model": model, "features": feats, "embedder": embedder}[artifact]
    doc = json.loads(path.read_text())
    if where:
        target = doc
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
    else:
        doc = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    # classify checks the embedder stamp before it parses the embedder file
    restamped(model, embedder, model)
    out = tmp_path / "p.jsonl"
    code = run_cli(
        "classify", "--model", model, "--features", feats, "--out", out,
        "--embedder-file", embedder,
    )
    assert code == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "classify"])
def test_misspelled_split_names_the_record(separable_run, tmp_path, capsys, command):
    """A record whose split is none of labeled, unlabeled, test is an error,
    not a record that train drops and classify passes through."""
    doc = json.loads((separable_run / "features.json").read_text())
    assert doc["records"][3]["split"] == "labeled"
    doc["records"][3]["split"] = "labelled"
    feats = tmp_path / "misspelled.json"
    feats.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out.json"
    args = ["--model", separable_run / "model.json"] if command == "classify" else []
    code = run_cli(command, "--features", feats, "--out", out, *args)
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert "record 3 has split 'labelled'; expected one of: labeled, unlabeled, test" in err
    assert not out.exists()


def test_classify_dim_mismatch(separable_run, tmp_path, capsys):
    doc = json.loads((separable_run / "features.json").read_text())
    rec = doc["records"][0]
    rec["feature"]["values"] = rec["feature"]["values"][:64]
    doc["records"], doc["grid"]["n_points"] = [rec], 64
    feats = tmp_path / "wrong.json"
    feats.write_text(json.dumps(doc), encoding="utf-8")
    code = run_cli(
        "classify",
        "--model", separable_run / "model.json",
        "--features", feats,
        "--out", tmp_path / "p.jsonl",
    )
    assert code == EXIT_VALIDATION


def test_classify_rejects_mixed_grids(separable_run, tmp_path, capsys):
    """As for train: the last record's feature holding a grid key of its own
    is an error naming the record and the key."""
    doc = json.loads((separable_run / "features.json").read_text())
    doc["records"][-1]["feature"]["t_lo"] = 10.0  # same n_points, different grid
    feats = tmp_path / "mixed.json"
    feats.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "p.jsonl"
    code = run_cli(
        "classify", "--model", separable_run / "model.json", "--features", feats, "--out", out
    )
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == grid_key_error(feats, len(doc["records"]) - 1)
    assert not out.exists()


def test_classify_rejects_a_model_trained_on_another_grid(dataset, tmp_path, capsys):
    """Same 128 points, shifted t_lo: the model's grid is not the features'."""
    model = tmp_path / "model.json"
    assert run_cli("train", "--features", dataset / "features.json", "--out", model) == EXIT_OK
    assert json.loads(model.read_text())["grid"] == {"t_lo": -20.0, "t_hi": 120.0, "n_points": 128}
    doc = json.loads((dataset / "features.json").read_text())
    assert doc["grid"]["t_lo"] == -20.0
    doc["grid"]["t_lo"] = 0.0
    feats = tmp_path / "shifted.json"
    feats.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "p.jsonl"
    capsys.readouterr()
    code = run_cli("classify", "--model", model, "--features", feats, "--out", out)
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert f"feature file {feats} is on grid [0.0, 120.0] x 128 points" in err
    assert f"model {model} was trained on grid [-20.0, 120.0] x 128 points" in err
    assert not out.exists()


def test_classify_model_without_a_grid_asks_to_retrain(separable_run, tmp_path, capsys):
    doc = json.loads((separable_run / "model.json").read_text())
    del doc["grid"]
    model = tmp_path / "old_model.json"
    model.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    out = tmp_path / "p.jsonl"
    code = run_cli(
        "classify", "--model", model, "--features", separable_run / "features.json", "--out", out
    )
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert "model needs key(s): 'grid'" in err and "re-run train" in err
    assert not out.exists()


def test_indented_feature_file_classifies_to_the_same_bytes(separable_run, tmp_path):
    """A feature file written with indent=2, as earlier versions did."""
    records = json.loads((separable_run / "features.json").read_text())
    feats = tmp_path / "indented.json"
    feats.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    out = tmp_path / "p.jsonl"
    assert run_cli(
        "classify", "--model", separable_run / "model.json", "--features", feats, "--out", out
    ) == EXIT_OK
    assert out.read_bytes() == (separable_run / "predictions.jsonl").read_bytes()


BOTH = ("train", "classify")


@pytest.mark.parametrize("command", BOTH)
@pytest.mark.parametrize(
    "where, value, message, rejected_by",
    [
        (
            (5, "feature", "values", 7), None,
            "record 5: feature 'values' must be finite numbers", BOTH,
        ),
        (
            (5, "feature", "values", 7), -1e-300,
            "record 5: density values must be non-negative", BOTH,
        ),
        (
            (5, "feature", "values"), "short",
            "record 5: feature 'values' has shape (127,), but its grid has 128", BOTH,
        ),
        (
            (5, "feature", "bandwidth"), "auto",
            "record 5: feature 'bandwidth' must be a number, got 'auto'", BOTH,
        ),
        (
            (5, "feature", "bandwidth"), -1,
            "record 5: feature 'bandwidth' must be positive, got -1", BOTH,
        ),
        (
            (5, "feature", "bandwidth"), 0,
            "record 5: feature 'bandwidth' must be positive, got 0", BOTH,
        ),
        (  # a record cannot carry a grid of its own
            (5, "feature", "t_lo"), 10.0,
            "record 5: unknown feature key(s): 't_lo'; expected: values, bandwidth", BOTH,
        ),
        (  # the file's grid: 128.0 equals 128, but is no JSON integer
            ("grid", "n_points"), 128.0, "grid 'n_points' must be an integer, got 128.0", BOTH,
        ),
        (
            (5, "feature", "values", 7), "0.5",
            "record 5: feature 'values' must be an array of numbers", BOTH,
        ),
        (
            (5, "feature", "values", 7), True,
            "record 5: feature 'values' must be an array of numbers", BOTH,
        ),
        (  # past float64: numpy raised an OverflowError
            (5, "feature", "values", 7), 10**400,
            "record 5: feature 'values' must be an array of numbers", BOTH,
        ),
        ((65, "bbox", 0), None, "record 65: region bbox 0 must be an integer, got None", BOTH),
        ((65, "equipment_type"), "x", "record 65: unknown equipment type 'x'", BOTH),
        ((65, "bbox"), 5, "record 65: bbox must be a 4-element [x,y,w,h] list, got 5", BOTH),
        (
            (65, "image_ref"), None,
            "record 65: region 'image_ref' must be a string, got None", BOTH,
        ),
        ((65, "image_ref"), 5, "record 65: region 'image_ref' must be a string, got 5", BOTH),
        (  # no artifact can hold an integer past 64 bits
            (65, "bbox", 0), 2**63,
            "record 65: region bbox 0 must be a 64-bit integer, got 9223372036854775808", BOTH,
        ),
        (  # orjson reads an integer past 64 bits that a float64 holds as that float
            (65, "bbox", 0), 2**64,
            "record 65: region bbox 0 must be an integer, got 1.8446744073709552e+19", BOTH,
        ),
        (  # a wider one reaches json.loads, which reads it as the int
            (65, "bbox", 0), 10**400,
            "record 65: region bbox 0 must be a 64-bit integer, got 10000000000", BOTH,
        ),
        (  # nor a string with a lone surrogate, which json.loads reads
            (65, "image_ref"), "\ud800x",
            "record 65: region 'image_ref' must be a string with no lone surrogate", BOTH,
        ),
        # the split rules are train's: classify scores every record as it is
        ((35, "status"), "normal", "unlabeled region {key} carries a status", ("train",)),
        (
            (35,), "record 5 as unlabeled",
            "region {key} appears in both labeled and unlabeled splits", ("train",),
        ),
    ],
    ids=[
        "null", "negative", "short", "string-bandwidth", "negative-bandwidth", "zero-bandwidth",
        "mixed-grids", "n-points-float", "values-string", "values-true", "values-huge-int", "bbox-cell-null",
        "test-equipment-type", "test-bbox-int", "image-ref-null", "image-ref-int",
        "bbox-past-64-bits", "bbox-read-as-float", "bbox-huge-int", "image-ref-lone-surrogate",
        "unlabeled-status", "labeled-as-unlabeled",
    ],
)
def test_bulk_feature_reader_names_the_record(
    separable_run, tmp_path, capsys, command, where, value, message, rejected_by
):
    doc = json.loads((separable_run / "features.json").read_text())
    records = doc["records"]
    assert [records[i]["split"] for i in (5, 35, 65)] == ["labeled", "unlabeled", "test"]
    *path, last = where
    target = doc if where[0] == "grid" else records
    for k in path:
        target = target[k]
    if value == "short":
        target[last] = target[last][:-1]
    elif value == "record 5 as unlabeled":
        target[last] = {**records[5], "split": "unlabeled", "status": None}
    else:
        target[last] = value
    feats = tmp_path / "bad.json"
    feats.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out.json"
    args = ["--model", separable_run / "model.json"] if command == "classify" else []
    code = run_cli(command, "--features", feats, "--out", out, *args)
    err = capsys.readouterr().err
    if command not in rejected_by:
        assert code == EXIT_OK
        return
    if "{key}" in message:  # the edited record's region key
        rec = records[where[0]]
        message = message.format(key=(rec["image_ref"], tuple(rec["bbox"])))
    assert code == EXIT_VALIDATION
    assert f"feature file {feats}: {message}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        ("delete split", "record 7 needs key(s): 'split'"),
        ("5", "record 9 must be a JSON object, got 5"),
    ],
)
@pytest.mark.parametrize("command", BOTH)
def test_a_record_of_the_wrong_shape_is_named(
    separable_run, tmp_path, capsys, command, edit, message
):
    doc = json.loads((separable_run / "features.json").read_text())
    if edit == "delete split":
        del doc["records"][7]["split"]
    else:
        doc["records"][9] = 5
    feats = tmp_path / "bad.json"
    feats.write_text(json.dumps(doc), encoding="utf-8")
    args = ["--model", separable_run / "model.json"] if command == "classify" else []
    code = run_cli(command, "--features", feats, "--out", tmp_path / "out", *args)
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: feature file {feats}: {message}\n"


@pytest.fixture(scope="module")
def small_features(dataset, tmp_path_factory):
    """20 of the dataset's feature records (8 unlabeled, and the 8 labeled
    and 4 test records of 4 classes) and a model trained on them."""
    root = tmp_path_factory.mktemp("small")
    doc = json.loads((dataset / "features.json").read_text())
    records = doc["records"]
    classes = sorted({(r["equipment_type"], r["status"]) for r in records if r["status"]})[:4]
    unlabeled = [r for r in records if r["split"] == "unlabeled"][:8]
    of_classes = [r for r in records if (r["equipment_type"], r["status"]) in classes]
    assert len(of_classes + unlabeled) == 20
    write_records(root / "features.json", {"grid": doc["grid"]}, of_classes + unlabeled)
    assert run_cli(
        "train", "--features", root / "features.json", "--out", root / "model.json"
    ) == EXIT_OK
    return root


def json_paths(doc, path=()):
    """The path of every member of doc's objects and lists, at any depth,
    except those at or inside a "values" list."""
    members = ()
    if isinstance(doc, (dict, list)):
        members = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in members:
        if key != "values":
            yield (*path, key)
            yield from json_paths(value, (*path, key))


DELETE = "<delete the key>"
LEAF_VALUES = [None, True, "x", "12", [], {}, -1, 0.5, 1e308, float("nan"), DELETE]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_train_accepts_a_feature_file_only_if_classify_does(small_features, data):
    """After one edit of a feature file (a value set or a key deleted, the
    file's grid among them), train and classify each exit 0, 1 or 2 without
    raising, print one error line on failure, and train exits 0 only if
    classify does: both read the records the same way, and train adds the
    manifest's split rules. Where train exits 0, classify scores the file
    with the model train wrote, so an edited grid meets its own model.
    Where classify exits 0, every distance and probability is finite."""
    doc = json.loads((small_features / "features.json").read_text())
    paths = list(json_paths(doc))
    if data.draw(st.integers(0, 4), label="grid") == 0:  # its 4 paths, one draw in 5
        paths = [p for p in paths if p[0] == "grid"]
    *path, last = data.draw(st.sampled_from(paths), label="path")
    value = data.draw(st.sampled_from(LEAF_VALUES), label="value")
    target = doc
    for key in path:
        target = target[key]
    if value == DELETE:
        del target[last]
    else:
        target[last] = value
    feats = small_features / "edited.json"
    feats.write_text(json.dumps(doc), encoding="utf-8")
    codes = {}
    for command in ("train", "classify"):
        model = small_features / ("train.out" if codes.get("train") == EXIT_OK else "model.json")
        args = ("--model", model) if command == "classify" else ()
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            codes[command] = run_cli(
                command, "--features", feats, "--out", small_features / f"{command}.out", *args
            )
        assert codes[command] in (EXIT_OK, EXIT_VALIDATION, EXIT_IO)
        assert err.getvalue().count("error:") == (codes[command] != EXIT_OK), err.getvalue()
    assert codes["train"] != EXIT_OK or codes["classify"] == EXIT_OK
    if codes["classify"] == EXIT_OK:
        assert_finite_posteriors(small_features / "classify.out")


def load_or_error(path: Path):
    """cli._load_records(path) as comparable bytes, or its error's text."""
    try:
        regions, splits, grid, values = cli._load_records(path)
    except (ValueError, InputFormatError) as exc:
        return type(exc).__name__, str(exc)
    return regions, splits, grid, values.shape, values.dtype, values.tobytes()


def load_per_record(path: Path):
    """load_or_error(path) with every bulk check declined: the document is
    never plain, so only the per-record loops read it."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cli, "read_plain_json", lambda path: (read_json(path), False))
        return load_or_error(path)


# JSON texts for one edit of a feature file: at a "values" entry, and at
# each region and record field (a bbox entry, or the whole field)
EDIT_TOKENS = {
    "values": [
        "true", "false", '"0.5"', "null", "[]", "{}", "-1", "1e308", "1" + "0" * 400,
        "0", "-0", "-0.0", "5e-324", "18446744073709551615",
    ],
    "bbox": [
        "true", "false", str(2**63), str(2**63 - 1), str(2**64), "-1", "0", "1.0", '"1"',
        "null", "[1, 2, 3]",
    ],
    "image_ref": ["true", '"true"', '"x false"', '"\\ud800x"', '"\\u00e9"', "5", "null", "[]"],
    "bandwidth": ["true", "0", "-1", "1", '"1"', "1e308", "1e400", "null", "[1.0]"],
    "split": ['"labeled"', '"test"', '"train"', "null", "true", "[]"],
    "status": ['"normal"', '"fault"', "null", '"x"', "true", "{}"],
    "equipment_type": ['"bushing"', '"x"', "null", "true", "[]"],
    "feature": ["null", "{}", "[]", '{"values": [], "bandwidth": 1.0}'],
    "record": ["5", "null", "{}", "[]"],
}
MARK = "@@edit@@"


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_the_bulk_reader_reads_every_edit_as_the_per_record_reader(small_features, data):
    """One edit of a feature file (a JSON text put at one value, or a key
    deleted) gives the same regions, splits, grid and value bytes, or the
    same error, whether the bulk checks read it or only the per-record
    loops do. The edits reach inside "values", which the train/classify
    fuzz above leaves alone."""
    doc = json.loads((small_features / "features.json").read_text())
    i = data.draw(st.integers(0, len(doc["records"]) - 1), label="record")
    field = data.draw(st.sampled_from(sorted(EDIT_TOKENS)), label="field")
    target, key = doc["records"][i], field
    if field == "record":
        target, key = doc["records"], i
    elif field == "values":
        target, key = target["feature"]["values"], data.draw(st.integers(0, 15), label="at")
    elif field == "bandwidth":
        target = target["feature"]
    elif field == "bbox" and data.draw(st.booleans(), label="entry"):
        target, key = target["bbox"], data.draw(st.integers(0, 3), label="at")
    token = data.draw(st.sampled_from([None, *EDIT_TOKENS[field]]), label="token")
    if token is None and isinstance(target, dict):
        del target[key]
        token = ""
    else:
        target[key] = MARK
    feats = small_features / "bulk.json"
    feats.write_text(json.dumps(doc).replace(json.dumps(MARK), token or "null"), "utf-8")
    assert load_or_error(feats) == load_per_record(feats)


def test_the_default_feature_file_reads_by_the_bulk_checks(tmp_path, monkeypatch):
    """With the per-record loops patched to raise, the feature file of the
    default data still reads, to the per-record result: a bulk check that
    always declined would fail here."""
    assert run_cli("synth", "--out", tmp_path / "data", "--seed", 11) == EXIT_OK
    feats = tmp_path / "features.json"
    manifest = tmp_path / "data" / "manifest.json"
    assert run_cli("extract", "--manifest", manifest, "--out", feats) == EXIT_OK
    want = load_per_record(feats)
    assert len(want[0]) == 400

    def refuse(*args, **kwargs):
        raise AssertionError("a per-record loop ran")

    monkeypatch.setattr(cli, "_read_regions", refuse)
    monkeypatch.setattr(RegionAnnotation, "from_dict", refuse)
    monkeypatch.setattr(density, "read_array", refuse)
    assert load_or_error(feats) == want


@pytest.fixture(scope="module")
def mlp_chain(dataset, tmp_path_factory):
    """A model and its embedder file from train --embedder mlp on the dataset's features."""
    root = tmp_path_factory.mktemp("mlp_chain")
    assert run_cli(
        "train", "--features", dataset / "features.json", "--out", root / "model.json",
        "--embedder", "mlp", "--hidden", 4, "--out-dim", 3, "--episodes", 2,
    ) == EXIT_OK
    return root


MODEL_VALUES = [
    None, True, False, "x", "0.5", [], {}, [0.5], -1, 0, 0.5, 1e308, -1e308, 1e200,
    float("nan"), float("inf"), 10**400, DELETE,
]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_classify_survives_one_edit_of_the_model_or_embedder_file(dataset, mlp_chain, data):
    """After one edit of model.json or its embedder file (a member at any
    depth set to a value, or deleted), classify exits 0, 1 or 2 without
    raising or warning, prints one error line on failure, and on success
    writes a finite number for every distance and probability."""
    paths = {"model": mlp_chain / "model.json"}
    paths["embedder"] = Path(f"{paths['model']}.embedder.json")
    edited = data.draw(st.sampled_from(sorted(paths)), label="file")
    doc = json.loads(paths[edited].read_text())
    target, key = doc, None
    while key is None or (
        isinstance(target[key], (dict, list)) and target[key] and data.draw(st.integers(0, 3))
    ):  # one member at each level, going deeper 3 times in 4
        target = doc if key is None else target[key]
        members = list(target) if isinstance(target, dict) else range(len(target))
        key = data.draw(st.sampled_from(members), label="key")
    value = data.draw(st.sampled_from(MODEL_VALUES), label="value")
    if value == DELETE:
        del target[key]
    else:
        target[key] = value
    files = {**paths, edited: mlp_chain / f"edited_{edited}.json"}
    files[edited].write_text(json.dumps(doc), encoding="utf-8")
    out, err = mlp_chain / "predictions.jsonl", io.StringIO()
    out.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(
                "classify", "--model", files["model"], "--features", dataset / "features.json",
                "--out", out, "--embedder-file", files["embedder"],
            )
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_IO)
    assert [w.category for w in caught] == []
    assert err.getvalue().count("error:") == (code != EXIT_OK), err.getvalue()
    if code == EXIT_OK:
        assert_finite_posteriors(out)


def assert_finite_posteriors(path: Path) -> None:
    """Every distance and prob of the prediction file at path is a finite
    number: the encoder writes NaN and the infinities as null, so a search
    of the text for "NaN" would find none."""
    for line in path.read_text(encoding="utf-8").splitlines():
        for entry in json.loads(line)["posterior"]:
            for key in ("distance", "prob"):
                assert type(entry[key]) is float and math.isfinite(entry[key]), (key, line)


# ------------------------------------------------ the reader against json.loads

def json_loads_outcome(path, data: bytes) -> tuple[str, str]:
    """What read_json gave when it was json.loads alone: the repr of the
    value (types, -0.0, NaN and key order show in it), or its error text."""
    try:
        return "value", repr(json.loads(data.decode("utf-8")))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return "error", f"{path}: not valid UTF-8 JSON ({exc})"


def read_json_outcome(path, data: bytes) -> tuple[str, str]:
    try:
        return "value", repr(read_json(path, data))
    except InputFormatError as exc:  # the CLI exits 2 with its text
        return "error", str(exc)


def past_64_bits_as_float(value):
    """value with every integer past 64 bits that a float64 holds read as
    that float: the one listed case where read_json, through orjson, reads
    a document otherwise than json.loads. A wider integer makes orjson
    refuse the document, so json.loads reads it, as the int."""
    if isinstance(value, dict):
        return {k: past_64_bits_as_float(v) for k, v in value.items()}
    if isinstance(value, list):
        return [past_64_bits_as_float(v) for v in value]
    if type(value) is int and not -(2**63) <= value < 2**64:
        with contextlib.suppress(OverflowError):
            return float(value)
    return value


def test_past_64_bits_as_float_widens_only_what_a_float64_holds():
    assert past_64_bits_as_float([2**64 - 1, -(2**63), {"v": 2**64}, -(2**63) - 1, 10**400]) == [
        2**64 - 1, -(2**63), {"v": 18446744073709551616.0}, -9223372036854775808.0, 10**400
    ]


EDGE_DOCUMENTS = {
    "nan": b'{"v":NaN,"w":[Infinity,-Infinity]}',
    "1e400": b'{"v":1e400,"w":-1e400,"x":1e-400}',
    "400-digit int": b'{"v":' + b"7" * 400 + b"}",
    "2**64 - 1": b'{"v":18446744073709551615}',
    "2**64": b'{"v":18446744073709551616}',
    "-2**63": b'{"v":-9223372036854775808}',
    "-2**63 - 1": b'{"v":-9223372036854775809}',
    "lone surrogate": b'{"v":"\\ud800","w":"\\ud83d\\ude00"}',
    "bom": b'\xef\xbb\xbf{"v":1}',
    "not utf-8": b'{"v":"\xff"}',
    "duplicate keys": b'{"a":1,"b":2,"a":3}',
    "-0": b'{"v":[-0,-0.0,0.0,-0e0]}',
    "truncated": b'{"v":[1,2',
}
# the listed outcomes: an integer past 64 bits that a float64 holds reads as that float
LISTED = {"2**64": {"v": 18446744073709551616.0}, "-2**63 - 1": {"v": -9223372036854775808.0}}


@pytest.mark.parametrize("name", sorted(EDGE_DOCUMENTS))
def test_read_json_reads_the_edge_documents_as_json_loads(tmp_path, name):
    """Each edge document reads as json.loads reads it, to the same value
    or the same error text, but for the LISTED outcomes."""
    path, data = tmp_path / "doc.json", EDGE_DOCUMENTS[name]
    path.write_bytes(data)
    want = json_loads_outcome(path, data)
    if name in LISTED:
        assert want[0] == "value" and type(json.loads(data)["v"]) is int
        want = "value", repr(LISTED[name])
    assert read_json_outcome(path, data) == want
    assert read_json_outcome(path, None) == want


RAW = "<raw token>"
# JSON tokens that json.dumps does not write, put raw in place of one member
RAW_TOKENS = [
    b"NaN", b"-Infinity", b"1e400", b"1e-400", b"9" * 400, b"18446744073709551615",
    b"18446744073709551616", b"-9223372036854775809", b"-0", b"-0.0", b"1E2",
    b'"\\ud800"', b'"\\udfff\\ud800"', b'"\xff"', b'"\xc3\xa9"', b'"\xed\xa0\x80"',
]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_read_json_reads_the_fuzzed_documents_as_json_loads(
    dataset, small_features, mlp_chain, data
):
    """The documents of the edit fuzzers above (the manifest, a feature
    file, a model and its embedder with one member set or deleted), some
    with a raw token, a byte order mark, a key given twice or a cut end:
    read_json reads each as json.loads does, but for the listed case."""
    files = {
        "manifest": dataset / "data" / "manifest.json",
        "features": small_features / "features.json",
        "model": mlp_chain / "model.json",
        "embedder": mlp_chain / "model.json.embedder.json",
    }
    doc = json.loads(files[data.draw(st.sampled_from(sorted(files)), label="file")].read_bytes())
    *path, last = data.draw(st.sampled_from(list(json_paths(doc))), label="path")
    value = data.draw(st.sampled_from([*LEAF_VALUES, *MODEL_VALUES, RAW]), label="value")
    target = doc
    for key in path:
        target = target[key]
    if value == DELETE:
        del target[last]
    else:
        target[last] = value
    text = json.dumps(doc).encode("utf-8")
    if value == RAW:
        text = text.replace(json.dumps(RAW).encode(), data.draw(st.sampled_from(RAW_TOKENS)))
    form = data.draw(st.sampled_from(["as is", "bom", "duplicate", "cut"]), label="form")
    if form == "bom":
        text = b"\xef\xbb\xbf" + text
    elif form == "duplicate":  # the first key given twice: the later value counts
        text = b'{"%s":null,%s' % (next(iter(doc)).encode(), text[1:])
    elif form == "cut":
        text = text[: data.draw(st.integers(0, len(text) - 1), label="cut")]
    want = json_loads_outcome("doc.json", text)
    if want[0] == "value":
        want = "value", repr(past_64_bits_as_float(json.loads(text)))
    assert read_json_outcome("doc.json", text) == want


def reference_record(region, split, predicted, classes, distances, probs) -> dict:
    """A prediction line's record, built from its parts."""
    return {
        **region.to_dict(),
        "split": split,
        "predicted": predicted.to_dict(),
        "posterior": [
            {**c.to_dict(), "distance": d, "prob": p}
            for c, d, p in zip(classes, distances, probs)
        ],
    }


def finite_or_null(value):
    """value with its keys sorted and every NaN and infinity replaced by
    None, as the encoder writes them."""
    if isinstance(value, dict):
        return {k: finite_or_null(value[k]) for k in sorted(value)}
    if isinstance(value, list):
        return [finite_or_null(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


SPECIAL_FLOATS = [
    float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, -5e-324,
    2.2250738585072014e-308, 1.1125369292536007e-308, 1e308, -1e308, 1.7976931348623157e308,
]
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=True))
REGIONS = st.builds(
    RegionAnnotation,
    st.tuples(
        st.integers(0, 10**12), st.integers(0, 10**12),
        st.integers(1, 10**12), st.integers(1, 10**12),
    ),
    st.sampled_from(EQUIPMENT_TYPES),
    st.one_of(st.none(), st.sampled_from(STATUSES)),
    st.text(),  # quotes, backslashes, %, non-ASCII and control characters
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_prediction_lines_equal_json_dumps_of_the_record(data):
    classes = tuple(
        sorted(data.draw(st.sets(st.sampled_from(SUBCATEGORIES), min_size=1), label="classes"))
    )
    n = data.draw(st.integers(0, 4), label="n")
    k = len(classes)
    regions = data.draw(st.lists(REGIONS, min_size=n, max_size=n), label="regions")
    splits = data.draw(st.lists(st.sampled_from(SPLITS), min_size=n, max_size=n), label="splits")
    numbers = st.lists(FLOATS, min_size=n * k, max_size=n * k)
    distances = np.array(data.draw(numbers, label="distances")).reshape(n, k)
    probs = np.array(data.draw(numbers, label="probs")).reshape(n, k)
    predicted = tuple(
        data.draw(st.lists(st.sampled_from(classes), min_size=n, max_size=n), label="predicted")
    )
    post = Posterior(classes, distances, probs, predicted)
    want = [
        reference_record(r, s, c, classes, d, p)
        for r, s, c, d, p in zip(regions, splits, predicted, distances.tolist(), probs.tolist())
    ]
    lines = [encode_json(rec) for rec in _predictions(regions, splits, post)]
    assert lines == [compact(rec) for rec in want]
    # each number reads back as itself: its shortest round-trip digits
    assert [repr(json.loads(line)) for line in lines] == [repr(finite_or_null(w)) for w in want]


def test_classify_centers_too_far_for_finite_distances_exit_1(separable_run, tmp_path, capsys):
    """Centers at 1e200 overflow the squared distances (1e400): classify
    exits 1 with one error line naming the row, and writes nothing."""
    doc = json.loads((separable_run / "model.json").read_text())
    for key in ("centers_labeled", "centers_refined"):
        for row in doc[key][::2]:
            row[:] = [1e200] * len(row)
    model_path = tmp_path / "far.json"
    model_path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "p.jsonl"
    feats = separable_run / "features.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("classify", "--model", model_path, "--features", feats, "--out", out)
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert err.count("error:") == 1
    assert "vector row 0: a squared distance to a center is not finite" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "classify"])
def test_a_feature_value_of_1e308_exits_1(separable_run, tmp_path, capsys, command):
    """One value of 1e308 overflows the squared distances of its record:
    train (refining on it, the sixth unlabeled record) and classify
    (scoring it, the sixth test record) exit 1 with one error line naming
    the record and no RuntimeWarning."""
    doc = json.loads((separable_run / "features.json").read_text())
    split = "unlabeled" if command == "train" else "test"
    row = [i for i, r in enumerate(doc["records"]) if r["split"] == split][5]
    doc["records"][row]["feature"]["values"][0] = 1e308
    feats = tmp_path / "features.json"
    feats.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out.json"
    model = ("--model", separable_run / "model.json") if command == "classify" else ()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(command, "--features", feats, "--out", out, *model)
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    where = f"feature file {feats}: record" if command == "train" else "vector row"
    assert err == f"error: {where} {row}: a squared distance to a center is not finite\n"
    assert not out.exists()


@pytest.fixture(scope="module")
def mlp_runs(separable_run, tmp_path_factory):
    """Two MLP models of the same shape, trained with --seed 1 and --seed 2."""
    root = tmp_path_factory.mktemp("mlp")
    for seed in (1, 2):
        assert run_cli(
            "train", "--features", separable_run / "features.json",
            "--out", root / f"seed{seed}.json",
            "--embedder", "mlp", "--episodes", 3, "--out-dim", 6, "--seed", seed,
        ) == EXIT_OK
    return root


def test_train_stamps_the_model_with_its_embedder_digest(separable_run, mlp_runs):
    embedder = Path(f"{mlp_runs / 'seed1.json'}.embedder.json")
    doc = json.loads((mlp_runs / "seed1.json").read_text())
    assert doc["embedder"] == hashlib.sha256(embedder.read_bytes()).hexdigest()
    assert json.loads((separable_run / "model.json").read_text())["embedder"] is None


def test_classify_rejects_an_embedder_the_model_was_not_trained_through(
    separable_run, mlp_runs, tmp_path, capsys
):
    """An embedder of the same shape trained with another seed used to
    classify silently; now the two digests are named and classify exits 1."""
    model, feats, out = mlp_runs / "seed1.json", separable_run / "features.json", tmp_path / "p"
    own = Path(f"{model}.embedder.json")
    other = Path(f"{mlp_runs / 'seed2.json'}.embedder.json")
    own_digest = hashlib.sha256(own.read_bytes()).hexdigest()
    other_digest = hashlib.sha256(other.read_bytes()).hexdigest()
    assert own_digest != other_digest
    args = ("classify", "--model", model, "--features", feats, "--out", out)
    assert run_cli(*args, "--embedder-file", own) == EXIT_OK
    out.unlink()
    capsys.readouterr()
    assert run_cli(*args, "--embedder-file", other) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert own_digest in err and other_digest in err and str(other) in err
    assert not out.exists()


def test_classify_embedder_stamp_mismatches_exit_1(separable_run, tmp_path, capsys):
    """With the widths equal (an MLP to 128 dims): an embedder given for a
    model trained without one, and no embedder for a model trained through
    one, are both rejected."""
    feats, out = separable_run / "features.json", tmp_path / "p.jsonl"
    mlp = tmp_path / "mlp.json"
    assert run_cli(
        "train", "--features", feats, "--out", mlp,
        "--embedder", "mlp", "--episodes", 0, "--out-dim", 128,
    ) == EXIT_OK
    embedder = f"{mlp}.embedder.json"
    digest = json.loads(mlp.read_text())["embedder"]
    capsys.readouterr()
    for model, extra, words in (
        (separable_run / "model.json", ["--embedder-file", embedder], ("without an embedder",)),
        (mlp, [], (digest, "no --embedder-file")),
    ):
        code = run_cli("classify", "--model", model, "--features", feats, "--out", out, *extra)
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert str(model) in err and all(w in err for w in words), err
        assert not out.exists()


def test_classify_checks_the_embedder_stamp_before_reading_the_file(
    separable_run, tmp_path, capsys, monkeypatch
):
    """A model trained without an embedder, given an embedder file that is
    not JSON or a real 6-wide one, exits 1 on the stamp: the file is neither
    parsed nor run over the features."""
    calls = []
    monkeypatch.setattr("thermofault.cli.embed_many", lambda *args: calls.append(args))
    feats, out = separable_run / "features.json", tmp_path / "p.jsonl"
    assert run_cli(
        "train", "--features", feats, "--out", tmp_path / "mlp.json",
        "--embedder", "mlp", "--episodes", 0, "--out-dim", 6,
    ) == EXIT_OK
    garbage = tmp_path / "garbage.json"
    garbage.write_bytes(b"\xff not JSON")
    model = separable_run / "model.json"
    for embedder in (garbage, tmp_path / "mlp.json.embedder.json"):
        digest = hashlib.sha256(embedder.read_bytes()).hexdigest()
        capsys.readouterr()
        code = run_cli(
            "classify", "--model", model, "--features", feats, "--out", out,
            "--embedder-file", embedder,
        )
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"error: model {model} was trained without an embedder, but classify got"
            f" --embedder-file {embedder} with sha256 {digest}\n"
        )
        assert not out.exists()
    assert calls == []


def test_an_error_line_quotes_a_huge_value_cut_short(separable_run, tmp_path, capsys):
    """A feature file whose top level is its list of records, and a model
    whose alpha is a 100,000-character string, each give one error line
    under 1 KB."""
    records = json.loads((separable_run / "features.json").read_text())["records"]
    listed = tmp_path / "listed.json"
    listed.write_text(json.dumps(records), encoding="utf-8")
    doc = json.loads((separable_run / "model.json").read_text())
    long_alpha = tmp_path / "long_alpha.json"
    long_alpha.write_text(json.dumps({**doc, "alpha": "x" * 100_000}), encoding="utf-8")
    out = tmp_path / "p.jsonl"
    for model, feats, message in (
        (separable_run / "model.json", listed, f"feature file {listed} must be a JSON object"),
        (long_alpha, separable_run / "features.json", "model 'alpha' must be a number, got 'xxx"),
    ):
        capsys.readouterr()
        assert run_cli(
            "classify", "--model", model, "--features", feats, "--out", out
        ) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert len(err.encode("utf-8")) < 1024 and "more characters)" in err, len(err)
        assert not out.exists()


@pytest.mark.parametrize(
    "case, message, tail",
    [
        ("no-status", "labeled region ('xxx", " has no status"),
        ("status", "unlabeled region ('xxx", " carries a status"),
        ("both", "region ('xxx", " appears in both labeled and unlabeled splits"),
        ("feature", "unlabeled region ('xxx", " is 0 at every grid point"),
        ("bbox", "unlabeled region ('xxx", ": bbox outside 16x16 image 'xxx"),
    ],
    ids=["no-status", "status", "both", "feature", "bbox"],
)
def test_an_error_line_names_a_region_of_a_huge_image_ref(
    separable_run, tmp_path, capsys, case, message, tail
):
    """A region whose image ref has 100,000 characters gives one error line
    under 1 KB, for each message that names a region by its key: train's
    split checks on a feature file, and extract's feature and bbox checks."""
    ref = "x" * 100_000
    if case in ("feature", "bbox"):  # the constant 8x8 corner, or a bbox past the 16x16 image
        temps = np.random.default_rng(0).normal(30.0, 2.0, (16, 16))
        temps[8:, 8:] = 25.0
        save_thermal(ThermalImage(16, 16, temps, "a"), tmp_path / "a.rtm")
        corner = [8, 8, 8, 8] if case == "feature" else [9, 9, 8, 8]
        doc = {
            "images": [{"id": ref, "path": "a.rtm"}],
            "labeled": [
                {"image_ref": ref, "bbox": [0, 0, 8, 8], "equipment_type": "bushing",
                 "status": "fault"},
            ],
            "unlabeled": [{"image_ref": ref, "bbox": corner, "equipment_type": "bushing"}],
        }
        source = tmp_path / "manifest.json"
        source.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["extract", "--manifest", source]
        message = f"{source}: {message}"
    else:
        doc = json.loads((separable_run / "features.json").read_text())
        records = doc["records"]
        if case == "no-status":
            records[5]["status"] = None
        elif case == "status":
            records[35]["status"] = "normal"
        else:
            records[35] = {**records[5], "split": "unlabeled", "status": None}
        for i in (5, 35):
            records[i]["image_ref"] = ref
        source = tmp_path / "features.json"
        source.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["train", "--features", source]
        message = f"feature file {source}: {message}"
    out = tmp_path / "out.json"
    assert run_cli(*argv, "--out", out) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1 and tail in err
    assert len(err.encode("utf-8")) < 1024 and "more characters)" in err, len(err)
    assert not out.exists()


def test_an_error_line_names_a_few_of_many_unknown_keys(separable_run, tmp_path, capsys):
    """A feature with 5,000 unknown keys gives one error line under 1 KB
    that names the first three in sorted order and counts the rest."""
    doc = json.loads((separable_run / "features.json").read_text())
    doc["records"][5]["feature"].update((f"k{i:04}", 0) for i in range(5000))
    feats = tmp_path / "features.json"
    feats.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "model.json"
    assert run_cli("train", "--features", feats, "--out", out) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == (
        f"error: feature file {feats}: record 5: unknown feature key(s): 'k0000', 'k0001',"
        " 'k0002' and 4997 more; expected: values, bandwidth\n"
    )
    assert not out.exists()


def test_classify_model_without_an_embedder_stamp_asks_to_retrain(
    separable_run, tmp_path, capsys
):
    doc = json.loads((separable_run / "model.json").read_text())
    del doc["embedder"]
    model = tmp_path / "old_model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "p.jsonl"
    code = run_cli(
        "classify", "--model", model, "--features", separable_run / "features.json", "--out", out
    )
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert "model needs key(s): 'embedder'" in err and "re-run train" in err
    assert not out.exists()


# -------------------------------------------------------------------- eval

def test_eval_both_writes_reports_and_compare(dataset, tmp_path):
    cfg = {
        "data": {"manifest": str(dataset / "data" / "manifest.json")},
        "alpha": 0.5,
        "seed": 0,
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "reports"
    assert run_cli("eval", "--out", out, "--config", cfg_path, "--mode", "both") == EXIT_OK
    for name in (
        "report_supervised.json",
        "report_supervised.txt",
        "report_weak.json",
        "report_weak.txt",
        "compare.txt",
    ):
        assert (out / name).exists(), name
    sup = json.loads((out / "report_supervised.json").read_text())
    weak = json.loads((out / "report_weak.json").read_text())
    assert sup["mode"] == "supervised" and weak["mode"] == "weak"
    assert sup["config_hash"] == weak["config_hash"]
    assert "entirety" in (out / "compare.txt").read_text()


def test_eval_sweep_alpha_five_reports(dataset, tmp_path):
    cfg = {"data": {"manifest": str(dataset / "data" / "manifest.json")}, "seed": 0}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "reports"
    code = run_cli(
        "eval", "--out", out, "--config", cfg_path,
        "--sweep", "alpha", "--values", "0,0.25,0.5,0.75,1",
    )
    assert code == EXIT_OK
    reports = sorted(out.glob("report_sweep_alpha_*.json"))
    assert len(reports) == 5
    assert (out / "sweep_alpha.txt").read_text().count("alpha=") == 5


def test_eval_config_with_unknown_key_fails(tmp_path, capsys):
    cfg = ExperimentConfig(synth=default_synth_config())
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**cfg.to_dict(), "alpah": 0.0}), encoding="utf-8")
    code = run_cli("eval", "--config", cfg_path, "--out", tmp_path / "r", "--mode", "weak")
    assert code == EXIT_VALIDATION
    assert "'alpah'" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_eval_config_grid_that_is_not_an_object_fails(tmp_path, capsys):
    cfg = ExperimentConfig(synth=default_synth_config())
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**cfg.to_dict(), "grid": 5}), encoding="utf-8")
    code = run_cli("eval", "--config", cfg_path, "--out", tmp_path / "r", "--mode", "weak")
    assert code == EXIT_VALIDATION
    assert "experiment grid must be a JSON object, got 5" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "command, override, message",
    [
        ("eval", {"alpha": [0.5]}, "experiment config 'alpha' must be a number, got [0.5]"),
        (
            "eval",
            {"embedder": {"kind": "mlp", "hidden": [8]}},
            "mlp embedder config 'hidden' must be an integer, got [8]",
        ),
        (
            "synth",
            {"counts": {"labeled": [1], "unlabeled": 1, "test": 1}},
            "synth counts 'labeled' must be an integer, got [1]",
        ),
        ("eval", {"seed": "12"}, "experiment config 'seed' must be an integer, got '12'"),
        # rules of the synth config, and an eval whose synth config makes no test regions
        ("synth", {"counts": {"labeled": 1, "unlabeled": 1}}, "counts must include 'test'"),
        (
            "synth", {"counts": {"labeled": 1, "unlabeled": -1, "test": 1}},
            "count for 'unlabeled' must be >= 0",
        ),
        ("synth", {"image_width": 0}, "image dimensions must be >= 1"),
        ("synth", {"region_width": 25}, "region width must fit inside the image"),
        ("synth", {"background": {"mean": 5.0, "std": 0}}, "background std must be positive"),
        (
            "eval",
            {"data": {"synth": {
                **default_synth_config().to_dict(),
                "counts": {"labeled": 1, "unlabeled": 1, "test": 0},
            }}},
            "test split is empty",
        ),
        # the config file's synth seed (0) is not its seed
        ("eval", {"seed": 3}, "experiment config 'data.synth.seed' 0 differs from its 'seed' 3"),
        (  # no artifact can hold an integer past 64 bits
            "eval", {"seed": 2**63},
            "experiment config 'seed' must be a 64-bit integer, got 9223372036854775808",
        ),
        (  # orjson reads one that a float64 holds as that float
            "synth", {"seed": -(2**63) - 1},
            "synth config 'seed' must be an integer, got -9.223372036854776e+18",
        ),
    ],
)
def test_config_scalar_of_the_wrong_json_type_fails(tmp_path, capsys, command, override, message):
    if command == "eval":
        doc = ExperimentConfig(synth=default_synth_config()).to_dict()
        argv = ["--mode", "weak"]
    else:
        doc, argv = default_synth_config().to_dict(), []
    doc.update(override)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli(command, "--config", cfg_path, "--out", tmp_path / "o", *argv) == EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--mode", "weak", "--seed", "1180591620717411303424"],
        ["synth", "--seed", "-9223372036854775809"],
        ["train", "--features", "f.json", "--episodes", "9223372036854775808"],
        ["extract", "--manifest", "m.json", "--grid-points", "18446744073709551616"],
    ],
    ids=["eval-seed", "synth-seed", "train-episodes", "extract-grid-points"],
)
def test_an_integer_flag_past_64_bits_fails(tmp_path, capsys, argv):
    """No artifact can hold an integer past 64 bits (orjson writes none), so
    every integer flag takes only a 64-bit one: eval --seed 2**70 used to
    write reports with that seed. The error names the flag."""
    assert run_cli(*argv, "--out", tmp_path / "o") == EXIT_VALIDATION
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == [
        f"thermofault {argv[0]}: error: argument {argv[-2]}: invalid int64 value: '{argv[-1]}'"
    ]
    assert not (tmp_path / "o").exists()


def test_eval_takes_the_largest_64_bit_seed(tmp_path, capsys):
    out = tmp_path / "r"
    assert run_cli("eval", "--mode", "weak", "--seed", 2**63 - 1, "--out", out) == EXIT_OK
    assert json.loads((out / "report_weak.json").read_text())["seed"] == 2**63 - 1


def test_running_out_of_memory_is_one_error_line(dataset, tmp_path, capsys, monkeypatch):
    """extract --grid-points 100000000 asks numpy for 320 GB of features: a
    MemoryError (raised here in place of the allocation) exits 1 with one
    error line that repeats the request."""

    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "extract_features", out_of_memory)
    argv = [
        "extract", "--manifest", str(dataset / "data" / "manifest.json"),
        "--out", str(tmp_path / "f.json"), "--grid-points", "100000000",
    ]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == f"error: not enough memory for: thermofault {' '.join(argv)}\n"
    assert not (tmp_path / "f.json").exists()


def test_eval_sweep_requires_values(tmp_path, capsys):
    code = run_cli("eval", "--out", tmp_path / "r", "--sweep", "alpha")
    assert code == EXIT_VALIDATION
    assert "--values" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "argv, from_config",
    [(["--mode", "weak", "--repeats", 2], False), ([], True)],
    ids=["flag-with-sweep", "config"],
)
def test_eval_repeats_needs_a_single_mode(tmp_path, capsys, argv, from_config):
    """A sweep runs one seed, so repeats above 1 from the flag or the config fail."""
    if from_config:
        cfg_path = tmp_path / "exp.json"
        cfg = {"data": {"manifest": str(tmp_path / "manifest.json")}, "repeats": 3}
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        argv = ["--config", cfg_path]
    code = run_cli("eval", "--out", tmp_path / "r", "--sweep", "alpha", "--values", "0,1", *argv)
    assert code == EXIT_VALIDATION
    assert "--repeats" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("mode", ["supervised", "both"])
def test_eval_sweep_runs_only_the_weak_mode(tmp_path, capsys, mode):
    """A sweep runs weak mode: any other --mode fails naming both flags,
    before the data is read; --mode weak goes on to read the (missing)
    manifest."""
    cfg_path = tmp_path / "exp.json"
    cfg = {"data": {"manifest": str(tmp_path / "manifest.json")}}
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    argv = ["eval", "--out", tmp_path / "r", "--config", cfg_path, "--sweep", "alpha"]
    assert run_cli(*argv, "--values", "0.5", "--mode", mode) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == f"error: --mode {mode} does not combine with --sweep, which runs weak\n"
    assert run_cli(*argv, "--values", "0.5", "--mode", "weak") == EXIT_IO
    assert not (tmp_path / "r").exists()


def test_eval_sweep_rejects_a_fractional_grid_points_value(tmp_path, capsys):
    """64.7 grid points would run 64 and write report_sweep_grid_points_64p7.json:
    it fails, named, before the data is read."""
    cfg_path = tmp_path / "exp.json"
    cfg = {"data": {"manifest": str(tmp_path / "manifest.json")}}
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    code = run_cli(
        "eval", "--out", tmp_path / "r", "--config", cfg_path,
        "--sweep", "grid_points", "--values", "64.7,32",
    )
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: sweep grid_points value 64.7 is not an integer\n"
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "param, value, rule",
    [
        ("grid_points", "1e23", "an integer from 2 to 2**63 - 1"),  # numpy's own error before
        ("grid_points", "1", "an integer from 2 to 2**63 - 1"),
        ("grid_points", "x", "an integer from 2 to 2**63 - 1"),
        ("bandwidth", "x", '"auto" or a positive number'),  # float()'s own error before
        ("bandwidth", "-1", '"auto" or a positive number'),
        ("bandwidth", "inf", '"auto" or a positive number'),
        ("alpha", "1.5", "a number in [0, 1]"),
        ("alpha", "auto", "a number in [0, 1]"),
    ],
)
def test_eval_sweep_names_a_value_outside_its_parameters_rule(
    tmp_path, capsys, param, value, rule
):
    """Each item of --values is read by the swept parameter's rule, and one
    outside it fails naming --values, before the data is read."""
    cfg_path = tmp_path / "exp.json"
    cfg = {"data": {"manifest": str(tmp_path / "manifest.json")}}
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    code = run_cli(
        "eval", "--out", tmp_path / "r", "--config", cfg_path,
        "--sweep", param, "--values", f"0.5,{value}" if param == "alpha" else f"2,{value}",
    )
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: --values {value!r}: {param} must be {rule}\n"
    assert not (tmp_path / "r").exists()


def test_eval_sweeps_the_auto_bandwidth(dataset, tmp_path):
    """A bandwidth sweep takes "auto", as extract --bandwidth does: its
    report is the weak run's on the default bandwidth."""
    cfg = {"data": {"manifest": str(dataset / "data" / "manifest.json")}}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "reports"
    argv = ["eval", "--out", out, "--config", cfg_path]
    assert run_cli(*argv, "--sweep", "bandwidth", "--values", "auto,0.8") == EXIT_OK
    assert run_cli(*argv, "--mode", "weak") == EXIT_OK
    auto = (out / "report_sweep_bandwidth_auto.json").read_bytes()
    assert auto == (out / "report_weak.json").read_bytes()
    assert (out / "report_sweep_bandwidth_0p8.json").exists()
    assert "bandwidth=auto: overall=" in (out / "sweep_bandwidth.txt").read_text()


def test_eval_values_requires_sweep(tmp_path, capsys):
    code = run_cli("eval", "--out", tmp_path / "r", "--mode", "weak", "--values", "0,1")
    assert code == EXIT_VALIDATION
    assert "--sweep" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_eval_repeats_writes_summary(dataset, tmp_path):
    cfg = {"data": {"manifest": str(dataset / "data" / "manifest.json")}, "seed": 0}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "reports"
    code = run_cli(
        "eval", "--out", out, "--config", cfg_path,
        "--mode", "supervised", "--repeats", 2, "--seed", 4,
    )
    assert code == EXIT_OK
    assert (out / "report_supervised_seed4.json").exists()
    assert (out / "report_supervised_seed5.json").exists()
    assert "mean overall accuracy over 2 seeds" in (out / "summary_supervised.txt").read_text()


def test_eval_repeats_both_modes_is_the_seed_study(dataset, tmp_path, capsys):
    cfg = {"data": {"manifest": str(dataset / "data" / "manifest.json")}, "seed": 0}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "reports"
    code = run_cli("eval", "--out", out, "--config", cfg_path, "--repeats", 2, "--seed", 4)
    assert code == EXIT_OK
    reports = {
        f"report_{mode}_seed{seed}.{ext}"
        for mode in ("supervised", "weak")
        for seed in (4, 5)
        for ext in ("json", "txt")
    }
    assert {p.name for p in out.iterdir()} == reports | {"summary_both.txt"}
    # the same seeds through the library; the config hash covers repeats too
    exp = dataclasses.replace(ExperimentConfig.from_dict(cfg), repeats=2)
    runs = [run_both(dataclasses.replace(exp, seed=seed)) for seed in (4, 5)]
    for rep in (rep for pair in runs for rep in pair):
        written = json.loads((out / f"report_{rep.mode}_seed{rep.seed}.json").read_text())
        assert written == report_to_dict(rep)
    sup = np.array([r[0].overall.acc_average for r in runs])
    weak = np.array([r[1].overall.acc_average for r in runs])
    summary = (
        f"mean supervised {sup.mean():.4f}  mean weak {weak.mean():.4f}"
        f"  mean delta {weak.mean() - sup.mean():+.4f}"
        f"  weak >= supervised in {int((weak >= sup).sum())}/2 seeds"
    )
    assert (out / "summary_both.txt").read_text() == summary + "\n"
    assert capsys.readouterr().out == summary + "\n"


# ------------------------------------------------------------ determinism

def test_chain_artifacts_are_the_encoders_canonical_form(dataset, tmp_path):
    """synth -> extract -> train (weak, supervised, mlp) -> classify of each:
    every JSON file is the compact form of its document plus a newline and
    every prediction line is the compact form of its record, so no artifact
    can drift from the one encoder's form."""
    feats = dataset / "features.json"
    for name, extra in (
        ("weak", []),
        ("supervised", ["--mode", "supervised"]),
        ("mlp", ["--embedder", "mlp", "--episodes", 5, "--seed", 5]),
    ):
        model = tmp_path / f"{name}.json"
        assert run_cli("train", "--features", feats, "--out", model, *extra) == EXIT_OK
        embedder = ["--embedder-file", f"{model}.embedder.json"] if name == "mlp" else []
        out = tmp_path / f"{name}.jsonl"
        assert run_cli(
            "classify", "--model", model, "--features", feats, "--out", out, *embedder
        ) == EXIT_OK
        lines = out.read_bytes().split(b"\n")
        assert lines.pop() == b""
        assert len(lines) == len(json.loads(feats.read_text())["records"])
        for line in lines:
            assert line == compact(json.loads(line))
    files = [dataset / "data" / "manifest.json", feats, *tmp_path.glob("*.json")]
    assert len(files) == 6
    for path in files:
        data = path.read_bytes()
        assert data == compact(json.loads(data)) + b"\n", path


def test_full_chain_determinism_and_speed(tmp_path):
    """synth -> extract -> train -> classify -> eval twice; identical bytes."""
    start = time.monotonic()
    trees = []
    for run in ("r1", "r2"):
        root = tmp_path / run
        assert run_cli("synth", "--out", root / "data", "--seed", 7) == EXIT_OK
        assert run_cli(
            "extract",
            "--manifest", root / "data" / "manifest.json",
            "--out", root / "features.json",
        ) == EXIT_OK
        assert run_cli(
            "train", "--features", root / "features.json", "--out", root / "model.json"
        ) == EXIT_OK
        assert run_cli(
            "classify",
            "--model", root / "model.json",
            "--features", root / "features.json",
            "--out", root / "predictions.jsonl",
        ) == EXIT_OK
        cfg = {"data": {"manifest": str(root / "data" / "manifest.json")}, "seed": 7}
        (root / "exp.json").write_text(json.dumps(cfg), encoding="utf-8")
        assert run_cli(
            "eval", "--out", root / "reports", "--config", root / "exp.json", "--mode", "both"
        ) == EXIT_OK
        tree = tree_bytes(root)
        # the eval config embeds an absolute per-run path; normalize it out
        tree.pop("exp.json")
        trees.append(tree)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"chain took {elapsed:.1f}s"
    config_hashes = set()
    for name in ("reports/report_supervised.json", "reports/report_weak.json"):
        for t in trees:
            config_hashes.add(json.loads(t[name].decode())["config_hash"])
    # the two runs hash different manifest paths; strip before comparing
    for t in trees:
        for name in list(t):
            if name.startswith("reports/") and name.endswith(".json"):
                doc = json.loads(t[name].decode())
                doc.pop("config_hash", None)
                t[name] = json.dumps(doc, sort_keys=True).encode()
    assert trees[0] == trees[1]
    # r1 and r2 hash different absolute manifest paths; modes share per run
    assert len(config_hashes) == 2
