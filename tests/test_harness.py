import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from thermofault import harness
from thermofault.density import feature_vector
from thermofault.harness import (
    MODE_SUPERVISED,
    MODE_WEAK,
    EvalReport,
    ExperimentConfig,
    RowAccuracy,
    compare_table,
    config_hash,
    extract_features,
    report_table,
    report_to_dict,
    run_both,
    run_experiment,
    sweep,
    sweep_table,
)
from thermofault.embedding import TrainConfig
from thermofault.images import ManifestError, ThermalImage, load_manifest, save_thermal
from thermofault.synthetic import default_synth_config, separable_synth_config
from thermofault.taxonomy import EquipmentType


def small_config(**overrides):
    synth = dataclasses.replace(
        default_synth_config(seed=0), counts={"labeled": 4, "unlabeled": 4, "test": 3}
    )
    base = dict(synth=synth, seed=0, alpha=0.5)
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def small_reports():
    return run_both(small_config())


# ------------------------------------------------------------------ config

def test_config_requires_exactly_one_data_source(tmp_path):
    with pytest.raises(ValueError):
        ExperimentConfig(synth=None, manifest_path=None)
    with pytest.raises(ValueError):
        ExperimentConfig(synth=default_synth_config(), manifest_path=str(tmp_path / "m.json"))


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(alpha=1.5)
    with pytest.raises(ValueError):
        small_config(refine_iters=0)
    with pytest.raises(ValueError):
        small_config(repeats=0)
    with pytest.raises(ValueError):
        small_config(bandwidth=-2.0)


def test_config_round_trip_and_hash():
    cfg = small_config(alpha=0.25, bandwidth=1.5, refine_iters=2, repeats=3)
    doc = cfg.to_dict()
    back = ExperimentConfig.from_dict(doc)
    assert back == cfg
    assert config_hash(back) == config_hash(cfg)
    assert len(config_hash(cfg)) == 64
    assert config_hash(small_config(alpha=0.3)) != config_hash(cfg)
    # the hash is over the canonical JSON, so dict key order is irrelevant
    shuffled = json.loads(json.dumps(doc, sort_keys=True))
    assert ExperimentConfig.from_dict(shuffled) == cfg


def test_train_config_round_trip():
    train_cfg = TrainConfig(hidden=8, out_dim=4, episodes=10, lr=0.1)
    assert train_cfg.to_dict() == {
        "kind": "mlp", "hidden": 8, "out_dim": 4, "episodes": 10, "lr": 0.1
    }
    assert TrainConfig.from_dict(train_cfg.to_dict()) == train_cfg
    assert TrainConfig.from_dict({"kind": "mlp"}) == TrainConfig()
    for embedder in (None, train_cfg):
        cfg = small_config(embedder=embedder)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    assert small_config().to_dict()["embedder"] == {"kind": "identity"}
    for embedder in ({"kind": "cnn"}, {"hidden": 8}, {"kind": "identity", "hidden": 8}, "mlp"):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({**small_config().to_dict(), "embedder": embedder})


def test_train_config_scalar_of_the_wrong_json_type_names_its_key():
    for key, bad in [
        ("hidden", [8]), ("out_dim", None), ("episodes", {}), ("lr", [0.1]),
        ("hidden", 8.0), ("lr", "0.5"), ("episodes", True),
    ]:
        with pytest.raises(ValueError, match=f"mlp embedder config '{key}' must be"):
            TrainConfig.from_dict({"kind": "mlp", key: bad})


@pytest.mark.parametrize("where", [(), ("data",), ("embedder",)])
def test_config_readers_reject_unknown_keys(where):
    doc = small_config(embedder=TrainConfig()).to_dict()
    target = doc
    for key in where:
        target = target[key]
    target["alpah"] = 0.0
    with pytest.raises(ValueError, match="'alpah'"):
        ExperimentConfig.from_dict(doc)


def test_config_reader_takes_defaults_from_the_fields():
    cfg = ExperimentConfig.from_dict({"data": {"manifest": "m.json"}})
    assert cfg == ExperimentConfig(manifest_path="m.json")


def test_the_config_seed_is_the_one_synthetic_seed():
    """The seed field draws the synthetic data, so it replaces the synth
    config's own seed, in the data and in the hash; a config file whose
    'data.synth.seed' differs from its 'seed' (default 0) is an error."""
    other = dataclasses.replace(small_config().synth, seed=99)
    cfg = small_config(synth=other, seed=3)
    assert cfg.synth.seed == 3 and cfg == small_config(seed=3)
    assert config_hash(cfg) == config_hash(small_config(seed=3))
    doc = cfg.to_dict()
    assert doc["data"]["synth"]["seed"] == 3 and ExperimentConfig.from_dict(doc) == cfg
    del doc["data"]["synth"]["seed"]
    assert ExperimentConfig.from_dict(doc) == cfg
    what = "^experiment config 'data.synth.seed'"
    doc["data"]["synth"]["seed"] = 99
    with pytest.raises(ValueError, match=f"{what} 99 differs from its 'seed' 3$"):
        ExperimentConfig.from_dict(doc)
    del doc["seed"]  # so the default, 0
    doc["data"]["synth"]["seed"] = 5
    with pytest.raises(ValueError, match=f"{what} 5 differs from its 'seed' 0$"):
        ExperimentConfig.from_dict(doc)


def test_config_scalar_of_the_wrong_json_type_names_its_key():
    base = {"data": {"manifest": "m.json"}}
    for key, bad in [
        ("alpha", [0.5]), ("seed", {"s": 1}), ("repeats", None), ("refine_iters", "x"),
        ("bandwidth", [1.0]), ("seed", float("inf")),
        ("alpha", "0.25"), ("seed", 3.0), ("repeats", True),
    ]:
        with pytest.raises(ValueError, match=f"experiment config '{key}' must be"):
            ExperimentConfig.from_dict({**base, key: bad})
    for bad in (["m.json"], 5, None):
        with pytest.raises(ValueError, match="experiment data 'manifest' must be a string"):
            ExperimentConfig.from_dict({"data": {"manifest": bad}})
    grid = {"t_lo": 0.0, "t_hi": [1.0], "n_points": 8}
    with pytest.raises(ValueError, match="experiment grid 't_hi' must be a number"):
        ExperimentConfig.from_dict({**base, "grid": grid})


# ------------------------------------------------------------------- rows

def test_row_accuracy_weighted_average():
    row = RowAccuracy("arrester", 8, 2, 6, 1)
    assert row.acc_normal == 0.75
    assert row.acc_fault == 0.5
    expected = (row.acc_normal * 8 + row.acc_fault * 2) / 10
    assert abs(row.acc_average - expected) <= 1e-12


def test_row_accuracy_validation():
    with pytest.raises(ValueError):
        RowAccuracy("arrester", 2, 2, 3, 0)
    with pytest.raises(ValueError):
        RowAccuracy("arrester", 0, 0, 0, 0)


# ------------------------------------------------------------------- runs

def test_reports_have_expected_shape(small_reports):
    for report in small_reports:
        assert len(report.rows) == 5
        assert [r.label for r in report.rows] == [t.value for t in EquipmentType]
        assert report.overall.label == "entirety"
        total = sum(r.n_normal + r.n_fault for r in report.rows)
        assert total == 2 * 5 * 3  # both statuses x types x test count
        assert report.overall.n_normal + report.overall.n_fault == total
        assert report.overall.correct_normal == sum(r.correct_normal for r in report.rows)
        assert report.overall.correct_fault == sum(r.correct_fault for r in report.rows)
        for row in list(report.rows) + [report.overall]:
            for acc in (row.acc_normal, row.acc_fault, row.acc_average):
                assert 0.0 <= acc <= 1.0
            weighted = (
                row.acc_normal * row.n_normal + row.acc_fault * row.n_fault
            ) / (row.n_normal + row.n_fault)
            assert abs(row.acc_average - weighted) <= 1e-12


def test_modes_recorded(small_reports):
    sup, weak = small_reports
    assert sup.mode == MODE_SUPERVISED and sup.alpha == 1.0
    assert weak.mode == MODE_WEAK and weak.alpha == 0.5
    assert sup.config_hash == weak.config_hash


def test_determinism_byte_identical():
    cfg = small_config()
    a = run_experiment(cfg, MODE_WEAK)
    b = run_experiment(cfg, MODE_WEAK)
    assert json.dumps(report_to_dict(a), sort_keys=True) == json.dumps(
        report_to_dict(b), sort_keys=True
    )


def test_weak_alpha_one_equals_supervised():
    cfg = small_config(alpha=1.0)
    sup = run_experiment(cfg, MODE_SUPERVISED)
    weak = run_experiment(cfg, MODE_WEAK)
    assert report_to_dict(weak) == report_to_dict(dataclasses.replace(sup, mode=MODE_WEAK))


def test_weak_with_empty_unlabeled_equals_supervised():
    synth = dataclasses.replace(
        default_synth_config(seed=1), counts={"labeled": 4, "unlabeled": 0, "test": 3}
    )
    cfg = ExperimentConfig(synth=synth, seed=1, alpha=0.3)
    sup, weak = run_both(cfg)
    assert report_to_dict(weak)["rows"] == report_to_dict(sup)["rows"]
    assert report_to_dict(weak)["overall"] == report_to_dict(sup)["overall"]


def test_separable_config_perfect_recognition():
    cfg = ExperimentConfig(synth=separable_synth_config(seed=0), seed=0, alpha=0.5)
    sup, weak = run_both(cfg)
    assert sup.overall.acc_average == 1.0
    assert weak.overall.acc_average == 1.0


def test_mode_validated():
    with pytest.raises(ValueError):
        run_experiment(small_config(), "transductive")


def test_run_with_mlp_embedder():
    cfg = small_config(
        embedder=TrainConfig(hidden=8, out_dim=6, episodes=20, lr=0.05)
    )
    sup, weak = run_both(cfg)
    assert sup.overall.n_normal + sup.overall.n_fault == 30
    a = run_experiment(cfg, MODE_WEAK)
    assert report_to_dict(a) == report_to_dict(weak)


# ------------------------------------------------------------------ sweeps

def test_sweep_alpha_one_matches_supervised():
    cfg = small_config()
    (only,) = sweep(cfg, "alpha", [1.0])
    sup = run_experiment(cfg, MODE_SUPERVISED)
    assert report_to_dict(only)["rows"] == report_to_dict(sup)["rows"]
    assert report_to_dict(only)["overall"] == report_to_dict(sup)["overall"]


def test_sweep_alpha_three_values():
    cfg = small_config()
    reports = sweep(cfg, "alpha", [0.0, 0.5, 1.0])
    assert [r.alpha for r in reports] == [0.0, 0.5, 1.0]
    sup = run_experiment(cfg, MODE_SUPERVISED)
    assert report_to_dict(reports[2])["overall"] == report_to_dict(sup)["overall"]
    text = sweep_table("alpha", [0.0, 0.5, 1.0], reports)
    assert text.count("alpha=") == 3


def test_an_alpha_sweep_extracts_the_features_once(monkeypatch):
    """Alpha enters no feature: one extraction serves every value, and each
    report is the one a run of its own gives."""
    cfg = small_config()
    alphas = [0.0, 0.5, 1.0]
    want = [run_experiment(dataclasses.replace(cfg, alpha=a), MODE_WEAK) for a in alphas]
    calls = []
    monkeypatch.setattr(
        harness, "extract_features", lambda *args: calls.append(args) or extract_features(*args)
    )
    assert sweep(cfg, "alpha", alphas) == want
    assert len(calls) == 1


def test_sweep_bandwidth_and_grid_points():
    cfg = small_config()
    for report in sweep(cfg, "bandwidth", [0.1, 0.5, 1.0]):
        assert 0.0 <= report.overall.acc_average <= 1.0
    small, large = sweep(cfg, "grid_points", [32, 64])
    assert 0.0 <= small.overall.acc_average <= 1.0
    assert 0.0 <= large.overall.acc_average <= 1.0


def test_sweep_rejects_bad_input():
    cfg = small_config()
    with pytest.raises(ValueError):
        sweep(cfg, "kernel", [1.0])
    with pytest.raises(ValueError):
        sweep(cfg, "alpha", [])
    with pytest.raises(ValueError):
        sweep(cfg, "alpha", [1.5])
    # int(64.7) would run 64 points: the value fails, named, before the first run
    for bad in (64.7, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^sweep grid_points value {bad} is not an integer$"):
            sweep(cfg, "grid_points", [32, bad])


# ----------------------------------------------------------------- compare

def test_compare_self_is_zero(small_reports):
    sup, _ = small_reports
    lines = compare_table(sup, sup).splitlines()
    assert lines[0] == "delta (b - a)"
    assert [line.split(":")[0].strip() for line in lines[1:]] == [
        *(r.label for r in sup.rows), "entirety"
    ]
    for line in lines[1:]:
        assert line.endswith(": normal +0.000  fault +0.000  average +0.000")


def test_compare_direction(small_reports):
    sup, weak = small_reports
    a, b = sup.overall, weak.overall
    assert compare_table(sup, weak).splitlines()[-1] == (
        f"  entirety: normal {b.acc_normal - a.acc_normal:+.3f}"
        f"  fault {b.acc_fault - a.acc_fault:+.3f}"
        f"  average {b.acc_average - a.acc_average:+.3f}"
    )


def test_compare_rejects_class_mismatch(small_reports):
    sup, _ = small_reports
    trimmed = EvalReport(
        mode=sup.mode,
        alpha=sup.alpha,
        seed=sup.seed,
        rows=sup.rows[:3],
        overall=sup.overall,
        config_hash=sup.config_hash,
    )
    with pytest.raises(ValueError, match="reports cover different equipment types"):
        compare_table(sup, trimmed)


def test_partial_equipment_coverage_shrinks_report():
    synth = separable_synth_config(seed=0)
    models = {s: m for s, m in synth.models.items() if s.index < 8}
    cfg_full = ExperimentConfig(synth=synth, seed=0)
    partial = dataclasses.replace(synth, models=models)
    cfg_partial = ExperimentConfig(synth=partial, seed=0)
    full = run_experiment(cfg_full, MODE_SUPERVISED)
    assert len(full.rows) == 5
    part = run_experiment(cfg_partial, MODE_SUPERVISED)
    assert len(part.rows) == 4  # one type dropped entirely


# ------------------------------------------------------------------ output

def test_report_json_schema(small_reports):
    sup, _ = small_reports
    doc = report_to_dict(sup)
    assert set(doc) == {"mode", "alpha", "seed", "rows", "overall", "config_hash"}
    for row in doc["rows"] + [doc["overall"]]:
        assert {"equipment_type", "acc_normal", "acc_fault", "acc_average"} <= set(row)
    assert doc["overall"]["equipment_type"] == "entirety"
    assert [r["equipment_type"] for r in doc["rows"]] == [
        et.value for et in EquipmentType
    ]


def test_report_table_layout(small_reports):
    sup, _ = small_reports
    text = report_table(sup)
    lines = text.splitlines()
    assert lines[0].startswith("mode=supervised")
    assert lines[1].split() == ["equipment", "normal", "fault", "average"]
    assert len(lines) == 2 + 5 + 1
    assert lines[-1].startswith("entirety")


def test_extract_features_bbox_outside_image_names_manifest_and_region(tmp_path):
    """The bbox check runs on the image extract loads, not in load_manifest,
    which opens no image."""
    save_thermal(ThermalImage(3, 3, np.full((3, 3), 20.0), "imgA"), tmp_path / "imgA.rtm")
    doc = {
        "images": [{"id": "imgA", "path": "imgA.rtm"}],
        "labeled": [
            {"image_ref": "imgA", "bbox": [0, 0, 2, 2], "equipment_type": "bushing",
             "status": "normal"},
            {"image_ref": "imgA", "bbox": [1, 1, 3, 3], "equipment_type": "bushing",
             "status": "fault"},
        ],
    }
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(doc))
    assert len(load_manifest(mpath).labeled) == 2
    with pytest.raises(ManifestError) as exc:
        extract_features(ExperimentConfig(manifest_path=str(mpath)), feature_vector)
    assert str(exc.value) == (
        f"{mpath}: labeled region ('imgA', (1, 1, 3, 3)): bbox outside 3x3 image 'imgA'"
    )


def test_extract_features_holds_one_image_at_a_time(tmp_path):
    """Each image is dropped before the next is read, so the traced peak of
    extracting 8 frames exceeds that of 2 frames by less than one frame's
    temperatures (holding every frame, it grows by six)."""
    width, height = 160, 120
    rng = np.random.default_rng(0)

    def peak(n: int) -> int:
        root = tmp_path / str(n)
        root.mkdir()
        for i in range(n):
            temps = rng.normal(20.0, 2.0, (height, width))
            save_thermal(ThermalImage(width, height, temps, f"f{i}"), root / f"f{i}.rtm")
        doc = {
            "images": [{"id": f"f{i}", "path": f"f{i}.rtm"} for i in range(n)],
            "labeled": [
                {"image_ref": f"f{i}", "bbox": [10 * j, 5, 8, 8], "equipment_type": "bushing",
                 "status": "normal"}
                for i in range(n)
                for j in range(2)
            ],
        }
        (root / "manifest.json").write_text(json.dumps(doc))
        cfg = ExperimentConfig(manifest_path=str(root / "manifest.json"))
        tracemalloc.start()
        try:
            _, features = extract_features(cfg, feature_vector)
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(features["labeled"][0]) == 2 * n
        return traced

    small = peak(2)
    assert peak(8) - small < width * height * 8
