import dataclasses
import filecmp

import numpy as np
import pytest

from thermofault.images import extract_region, load_manifest
from thermofault.synthetic import (
    RegionTempModel,
    SynthConfig,
    case_study_config,
    default_models,
    default_synth_config,
    separable_synth_config,
    synthesize,
    write_dataset,
)
from thermofault.taxonomy import SUBCATEGORIES, EquipmentType, Status, SubcategoryId


def region_pixels(images, region):
    by_id = {img.source_id: img for img in images}
    return np.asarray(extract_region(by_id[region.image_ref], region.bbox))


def test_same_seed_identical_datasets():
    cfg = default_synth_config(seed=42)
    images1, manifest1 = synthesize(cfg)
    images2, manifest2 = synthesize(cfg)
    assert len(images1) == len(images2)
    for a, b in zip(images1, images2):
        assert a.source_id == b.source_id
        assert (a.temps == b.temps).all()
    assert manifest1.labeled == manifest2.labeled
    assert manifest1.unlabeled == manifest2.unlabeled
    assert manifest1.test == manifest2.test


def test_different_seed_differs():
    a, _ = synthesize(default_synth_config(seed=0))
    b, _ = synthesize(default_synth_config(seed=1))
    assert any((x.temps != y.temps).any() for x, y in zip(a, b))


def test_all_ten_subcategories_with_configured_counts():
    cfg = default_synth_config(seed=3)
    _, manifest = synthesize(cfg)
    for split, regions in (
        ("labeled", manifest.labeled),
        ("unlabeled", manifest.unlabeled),
        ("test", manifest.test),
    ):
        per = {}
        for r in regions:
            key = (r.equipment_type, r.status if split != "unlabeled" else None)
            per[key] = per.get(key, 0) + 1
        if split == "unlabeled":
            # status hidden; counts fold normal+fault per type
            for et in EquipmentType:
                assert per[(et, None)] == 2 * cfg.counts[split]
        else:
            assert len(per) == 10
            assert set(per.values()) == {cfg.counts[split]}
    labeled_subs = {r.subcategory for r in manifest.labeled}
    assert labeled_subs == set(SUBCATEGORIES)


def test_default_ladder_anchors():
    models = default_models()
    arrester_normal = models[SubcategoryId(EquipmentType.ARRESTER, Status.NORMAL)]
    arrester_fault = models[SubcategoryId(EquipmentType.ARRESTER, Status.FAULT)]
    bushing_normal = models[SubcategoryId(EquipmentType.BUSHING, Status.NORMAL)]
    bushing_fault = models[SubcategoryId(EquipmentType.BUSHING, Status.FAULT)]
    assert arrester_normal.ambient_mean == 13.9
    assert arrester_fault.hotspot_mean == 15.1
    assert bushing_normal.ambient_mean == 37.8
    assert bushing_fault.hotspot_mean == 44.0


def test_fault_hotspot_must_exceed_normal_hotspot():
    normal = RegionTempModel(20.0, 1.0, 20.5, 0.5, 0.05)
    cold_fault = RegionTempModel(20.0, 1.0, 20.2, 0.5, 0.5)
    et = EquipmentType.ARRESTER
    with pytest.raises(ValueError):
        SynthConfig(
            models={
                SubcategoryId(et, Status.NORMAL): normal,
                SubcategoryId(et, Status.FAULT): cold_fault,
            },
            counts={"labeled": 1, "unlabeled": 1, "test": 1},
        )


def test_region_model_validation():
    with pytest.raises(ValueError):
        RegionTempModel(20.0, -1.0, 25.0, 0.5, 0.2)
    with pytest.raises(ValueError):
        RegionTempModel(20.0, 1.0, 25.0, 0.5, 1.5)
    with pytest.raises(ValueError):
        RegionTempModel(20.0, 1.0, 25.0, 0.5, 0.2, scene_offset_std=-0.1)


def test_fault_regions_run_hot():
    """Empirical max of each fault region exceeds its normal ambient mean."""
    cfg = dataclasses.replace(
        default_synth_config(seed=11),
        image_width=40,
        image_height=40,
        region_width=32,
        region_height=32,
    )
    images, manifest = synthesize(cfg)
    models = cfg.models
    checked = 0
    for r in manifest.test:
        if r.status is not Status.FAULT:
            continue
        pixels = region_pixels(images, r)
        assert pixels.size >= 32 * 32
        ambient_mean = models[SubcategoryId(r.equipment_type, Status.NORMAL)].ambient_mean
        assert pixels.max() > ambient_mean
        checked += 1
    assert checked > 0


def test_ladder_gaps_are_separated_by_ambient_std():
    """Consecutive equipment types sit 1.5 to 4 ambient sigmas apart so the
    10 subcategories overlap across types but remain learnable."""
    models = default_models()
    means = [models[SubcategoryId(et, Status.NORMAL)].ambient_mean for et in EquipmentType]
    stds = [models[SubcategoryId(et, Status.NORMAL)].ambient_std for et in EquipmentType]
    order = np.argsort(means)
    for i, j in zip(order[:-1], order[1:]):
        gap = means[j] - means[i]
        scale = max(stds[i], stds[j])
        assert 1.5 * scale <= gap <= 4.0 * scale


def test_config_serialization_round_trip():
    cfg = default_synth_config(seed=9)
    doc = cfg.to_dict()
    back = SynthConfig.from_dict(doc)
    assert back == cfg
    assert back.to_dict() == doc


def test_synth_config_reader_takes_defaults_from_the_fields():
    cfg = default_synth_config()
    doc = {"models": cfg.to_dict()["models"], "counts": cfg.counts}
    assert SynthConfig.from_dict(doc) == cfg


def test_region_temp_model_dict_round_trip():
    model = default_models()[SUBCATEGORIES[0]]
    assert RegionTempModel.from_dict(model.to_dict()) == model
    doc = model.to_dict()
    del doc["scene_offset_std"]
    assert RegionTempModel.from_dict(doc) == dataclasses.replace(model, scene_offset_std=0.0)
    del doc["ambient_mean"]
    with pytest.raises(ValueError, match="'ambient_mean'"):
        RegionTempModel.from_dict(doc)


def test_region_temp_model_scalar_of_the_wrong_json_type_names_its_path():
    doc = default_synth_config().to_dict()
    doc["models"]["arrester"]["fault"]["hotspot_std"] = [1.0]
    with pytest.raises(
        ValueError, match=r"synth models\['arrester'\]\['fault'\] 'hotspot_std' must be a number"
    ):
        SynthConfig.from_dict(doc)
    model = default_models()[SUBCATEGORIES[0]].to_dict()
    with pytest.raises(ValueError, match="temperature model 'ambient_mean' must be a number"):
        RegionTempModel.from_dict({**model, "ambient_mean": None})
    assert RegionTempModel.from_dict({**model, "ambient_mean": "7"}).ambient_mean == 7.0


def test_synth_config_scalar_of_the_wrong_json_type_names_its_key():
    cfg = default_synth_config()
    for where, key, bad in [
        ("counts", "labeled", [1]), ((), "image_width", None), ((), "seed", "one"),
        ("background", "std", {}), ((), "seed", float("inf")),
    ]:
        doc = cfg.to_dict()
        target = doc[where] if where else doc
        target[key] = bad
        with pytest.raises(ValueError, match=f"synth {where or 'config'} '{key}' must be"):
            SynthConfig.from_dict(doc)
    doc = cfg.to_dict()
    doc["counts"]["test"], doc["seed"] = 4.0, "9"
    back = SynthConfig.from_dict(doc)
    assert (back.counts["test"], back.seed) == (4, 9)


@pytest.mark.parametrize(
    "where", [(), ("background",), ("counts",), ("models", "arrester", "fault")]
)
def test_synth_config_rejects_unknown_keys(where):
    doc = default_synth_config().to_dict()
    target = doc
    for key in where:
        target = target[key]
    target["typo"] = 1
    with pytest.raises(ValueError, match="'typo'"):
        SynthConfig.from_dict(doc)


def test_scene_offset_survives_serialization():
    cfg = default_synth_config(seed=0)
    model = cfg.models[SubcategoryId(EquipmentType.ARRESTER, Status.NORMAL)]
    assert model.scene_offset_std > 0
    back = SynthConfig.from_dict(cfg.to_dict())
    assert back.models[SubcategoryId(EquipmentType.ARRESTER, Status.NORMAL)].scene_offset_std == (
        model.scene_offset_std
    )


def test_labeled_split_shares_one_capture_session():
    """Labeled regions of one subcategory share a single scene offset, so
    their per-region means cluster far tighter than unlabeled ones."""
    cfg = default_synth_config(seed=5)
    images, manifest = synthesize(cfg)
    model = cfg.models[SubcategoryId(EquipmentType.BUSHING, Status.NORMAL)]
    assert model.scene_offset_std > 0

    def means_for(split):
        return np.array(
            [
                region_pixels(images, r).mean()
                for r in split
                if r.equipment_type is EquipmentType.BUSHING and r.status is Status.NORMAL
            ]
        )

    labeled = means_for(manifest.labeled)
    # unlabeled split hides status; gather via the generator's test split instead
    test = means_for(manifest.test)
    assert labeled.size >= 10 and test.size >= 10
    # per-region sampling noise is sigma/sqrt(n); session drift dominates it
    n_pixels = cfg.region_width * cfg.region_height
    assert labeled.std() < 3.0 * model.ambient_std / np.sqrt(n_pixels)
    assert test.std() > 3.0 * labeled.std()


def test_write_dataset_round_trip(tmp_path):
    cfg = case_study_config(EquipmentType.ARRESTER, seed=2)
    images, manifest = synthesize(cfg)
    out = write_dataset(images, manifest, tmp_path / "ds")
    loaded = load_manifest(out)
    assert len(loaded.labeled) == len(manifest.labeled)
    assert len(loaded.unlabeled) == len(manifest.unlabeled)
    assert len(loaded.test) == len(manifest.test)
    for orig, back in zip(manifest.labeled, loaded.labeled):
        assert orig.bbox == back.bbox
        assert orig.equipment_type == back.equipment_type
        assert orig.status == back.status


def test_write_dataset_twice_byte_identical(tmp_path):
    cfg = default_synth_config(seed=8)
    cfg = dataclasses.replace(cfg, counts={"labeled": 2, "unlabeled": 2, "test": 1})
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    images, manifest = synthesize(cfg)
    write_dataset(images, manifest, dir_a)
    images2, manifest2 = synthesize(cfg)
    write_dataset(images2, manifest2, dir_b)
    names_a = sorted(p.name for p in dir_a.iterdir())
    names_b = sorted(p.name for p in dir_b.iterdir())
    assert names_a == names_b and len(names_a) == 5 * 10 + 1
    match, mismatch, errors = filecmp.cmpfiles(dir_a, dir_b, names_a, shallow=False)
    assert mismatch == [] and errors == []


def test_separable_config_is_drift_free_and_far_apart():
    cfg = separable_synth_config(seed=0)
    means = []
    for model in cfg.models.values():
        assert model.scene_offset_std == 0.0
        means.append(model.ambient_mean)
    means.sort()
    min_gap = min(b - a for a, b in zip(means, means[1:]))
    max_std = max(m.ambient_std for m in cfg.models.values())
    assert min_gap >= 10.0 * max_std


def test_case_study_config_single_type():
    cfg = case_study_config(EquipmentType.BUSHING, seed=1)
    assert {s.equipment_type for s in cfg.models} == {EquipmentType.BUSHING}
    assert all(m.scene_offset_std == 0.0 for m in cfg.models.values())
    _, manifest = synthesize(cfg)
    assert {r.equipment_type for r in manifest.test} == {EquipmentType.BUSHING}
