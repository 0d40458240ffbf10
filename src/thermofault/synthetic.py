"""Deterministic synthetic thermal scenes for the ten equipment subcategories.

Each generated image holds one equipment region: ambient Gaussian pixels
with a contiguous rectangular hot spot covering a configured area fraction.
All randomness comes from numpy's PCG64 generator seeded from the config,
so identical configs produce bit-identical datasets on any platform.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .images import (
    SPLITS,
    DatasetManifest,
    RegionAnnotation,
    ThermalImage,
    save_manifest,
    save_thermal,
)
from .taxonomy import SUBCATEGORIES, EquipmentType, Status, SubcategoryId, check_keys, read_scalar

@dataclass(frozen=True)
class RegionTempModel:
    """Two-component temperature model for one subcategory (degrees C).

    scene_offset_std models capture-to-capture variation (load, weather):
    each rendered region draws one offset added to both component means.
    """

    ambient_mean: float
    ambient_std: float
    hotspot_mean: float
    hotspot_std: float
    hotspot_area_fraction: float
    scene_offset_std: float = 0.0

    def __post_init__(self):
        if self.ambient_std <= 0 or self.hotspot_std <= 0:
            raise ValueError("temperature model standard deviations must be positive")
        if self.scene_offset_std < 0:
            raise ValueError("scene offset std must be non-negative")
        if not 0.0 <= self.hotspot_area_fraction <= 1.0:
            raise ValueError(
                f"hotspot area fraction {self.hotspot_area_fraction} must be within [0, 1]"
            )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict, what: str = "temperature model") -> "RegionTempModel":
        fields = dataclasses.fields(cls)
        required = [f.name for f in fields if f.default is dataclasses.MISSING]
        check_keys(d, [f.name for f in fields], what, required)
        return cls(**{k: read_scalar(d, k, float, what) for k in d})


# The integer keys of a synth config's JSON form, each a field of SynthConfig
_SIZES = ("seed", "image_width", "image_height", "region_width", "region_height")


@dataclass(frozen=True)
class SynthConfig:
    """Full recipe for one synthetic dataset, including the PCG64 seed."""

    models: dict[SubcategoryId, RegionTempModel]
    counts: dict[str, int] = field(  # per-subcategory counts per split
        default_factory=lambda: {"labeled": 15, "unlabeled": 15, "test": 10}
    )
    image_width: int = 24
    image_height: int = 24
    region_width: int = 16
    region_height: int = 16
    background_mean: float = 5.0
    background_std: float = 1.5
    seed: int = 0

    def __post_init__(self):
        for name in SPLITS:
            if name not in self.counts:
                raise ValueError(f"counts must include {name!r}")
            if self.counts[name] < 0:
                raise ValueError(f"count for {name!r} must be >= 0")
        if self.image_width < 1 or self.image_height < 1:
            raise ValueError("image dimensions must be >= 1")
        if not (1 <= self.region_width <= self.image_width):
            raise ValueError("region width must fit inside the image")
        if not (1 <= self.region_height <= self.image_height):
            raise ValueError("region height must fit inside the image")
        if self.background_std <= 0:
            raise ValueError("background std must be positive")
        for subcat in self.models:
            if subcat.status is Status.FAULT:
                normal = self.models.get(SubcategoryId(subcat.equipment_type, Status.NORMAL))
                if normal is not None and self.models[subcat].hotspot_mean <= normal.hotspot_mean:
                    raise ValueError(
                        f"{subcat.equipment_type.value}: fault hotspot mean must exceed"
                        " the normal hotspot mean"
                    )

    def subcategories(self) -> list[SubcategoryId]:
        return sorted(self.models, key=lambda s: s.index)

    def to_dict(self) -> dict:
        models: dict[str, dict] = {}
        for c in self.subcategories():
            models.setdefault(c.equipment_type.value, {})[c.status.value] = self.models[c].to_dict()
        return {
            **{k: getattr(self, k) for k in _SIZES},
            "background": {"mean": self.background_mean, "std": self.background_std},
            "counts": dict(self.counts),
            "models": models,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SynthConfig":
        required = ("models", "counts")
        check_keys(d, (*required, "background", *_SIZES), "synth config", required)
        models: dict[SubcategoryId, RegionTempModel] = {}
        type_names, status_names = [e.value for e in EquipmentType], [s.value for s in Status]
        for type_name, by_status in check_keys(d["models"], type_names, "synth models").items():
            etype = EquipmentType(type_name)
            check_keys(by_status, status_names, f"synth models[{type_name!r}]")
            for status_name, model in by_status.items():
                where = f"synth models[{type_name!r}][{status_name!r}]"
                subcat = SubcategoryId(etype, Status(status_name))
                models[subcat] = RegionTempModel.from_dict(model, where)
        counts = check_keys(d["counts"], SPLITS, "synth counts")
        background = check_keys(d.get("background", {}), ("mean", "std"), "synth background")
        return cls(
            models=models,
            counts={k: read_scalar(counts, k, int, "synth counts") for k in counts},
            **{k: read_scalar(d, k, int, "synth config") for k in _SIZES if k in d},
            **{
                f"background_{k}": read_scalar(background, k, float, "synth background")
                for k in background
            },
        )


# Default temperature ladder. The arrester and bushing normal/fault
# temperatures follow the two measured example cases (13.9/15.1 C and
# 37.8/44.0 C); the remaining types interpolate between those bands so
# that each adjacent pair of subcategory means sits 1.5-2.5 ambient
# standard deviations apart (moderate, realistic class overlap).
_DEFAULT_LADDER: dict[EquipmentType, tuple[float, float, float]] = {
    # type: (ambient_mean, ambient_std, fault_hotspot_mean)
    EquipmentType.ARRESTER: (13.9, 0.6, 15.1),
    EquipmentType.VOLTAGE_TRANSFORMER: (16.9, 1.0, 19.0),
    EquipmentType.CURRENT_TRANSFORMER: (21.5, 1.4, 24.5),
    EquipmentType.TRANSFORMER: (28.0, 1.9, 32.0),
    EquipmentType.BUSHING: (37.8, 2.8, 44.0),
}


def default_models() -> dict[SubcategoryId, RegionTempModel]:
    """Ladder models; capture-to-capture drift is 0.4 of each type's ambient std."""
    models: dict[SubcategoryId, RegionTempModel] = {}
    for etype, (ambient, std, fault_hot) in _DEFAULT_LADDER.items():
        # Normal gear carries only a faint warm spot; faults heat a large
        # contiguous patch to the ladder temperature.
        offset_std = 0.4 * std
        models[SubcategoryId(etype, Status.NORMAL)] = RegionTempModel(
            ambient_mean=ambient,
            ambient_std=std,
            hotspot_mean=ambient + 0.5 * std,
            hotspot_std=std / 2.0,
            hotspot_area_fraction=0.05,
            scene_offset_std=offset_std,
        )
        models[SubcategoryId(etype, Status.FAULT)] = RegionTempModel(
            ambient_mean=ambient,
            ambient_std=std,
            hotspot_mean=fault_hot,
            hotspot_std=std / 2.0,
            hotspot_area_fraction=0.5,
            scene_offset_std=offset_std,
        )
    return models


def default_synth_config(seed: int = 0) -> SynthConfig:
    """Default desk-scale protocol: 15 labeled + 15 unlabeled + 10 test per subcategory."""
    return SynthConfig(models=default_models(), seed=seed)


def case_study_config(equipment_type: EquipmentType, seed: int = 0) -> SynthConfig:
    """Single-type dataset at the measured example temperatures, drift-free.

    Useful for checking that the fault-class density concentrates at a
    higher temperature than the normal-class density (e.g. arrester
    13.9 vs 15.1 C, bushing 37.8 vs 44.0 C).
    """
    models = {
        subcat: dataclasses.replace(model, scene_offset_std=0.0)
        for subcat, model in default_models().items()
        if subcat.equipment_type is equipment_type
    }
    return SynthConfig(models=models, seed=seed)


def separable_synth_config(seed: int = 0) -> SynthConfig:
    """A config whose class means sit >= 10 sigma apart (no overlap)."""
    models: dict[SubcategoryId, RegionTempModel] = {}
    for i, subcat in enumerate(SUBCATEGORIES):
        mean = 10.0 * (i + 1)
        models[subcat] = RegionTempModel(
            ambient_mean=mean,
            ambient_std=0.25,
            hotspot_mean=mean + 1.0,
            hotspot_std=0.125,
            hotspot_area_fraction=0.05 if subcat.status is Status.NORMAL else 0.5,
        )
    return SynthConfig(models=models, seed=seed)


def _hotspot_shape(region_w: int, region_h: int, area_fraction: float) -> tuple[int, int] | None:
    """Rectangle dimensions covering about area_fraction of the region."""
    target = round(area_fraction * region_w * region_h)
    if target <= 0:
        return None
    target = min(target, region_w * region_h)
    w = min(region_w, max(1, round(math.sqrt(target * region_w / region_h))))
    h = min(region_h, max(1, round(target / w)))
    return w, h


def _render_region(
    rng: np.random.Generator, model: RegionTempModel, width: int, height: int, offset: float
) -> np.ndarray:
    """Draw one region: ambient Gaussian with a rectangular hot spot.

    offset shifts both component means (capture-condition drift). Draw
    order is fixed (ambient pixels, hot-spot position, hot-spot pixels)
    so datasets are bit-reproducible.
    """
    pixels = rng.normal(model.ambient_mean + offset, model.ambient_std, size=(height, width))
    shape = _hotspot_shape(width, height, model.hotspot_area_fraction)
    if shape is not None:
        hw, hh = shape
        hx = int(rng.integers(0, width - hw + 1))
        hy = int(rng.integers(0, height - hh + 1))
        pixels[hy : hy + hh, hx : hx + hw] = rng.normal(
            model.hotspot_mean + offset, model.hotspot_std, size=(hh, hw)
        )
    return pixels


def synthesize(cfg: SynthConfig) -> tuple[list[ThermalImage], DatasetManifest]:
    """Generate the dataset in memory: one region-bearing image per annotation.

    Deterministic given the config: regions are drawn in a fixed order
    (subcategory index, then split, then sample index) from a single
    PCG64 stream.

    Capture-condition drift (scene_offset_std) follows the acquisition
    pattern of inspection datasets: the labeled regions of a subcategory
    come from one labeling session and share a single drift draw, while
    unlabeled and test regions are patrol snapshots with independent
    drift. Labeled class statistics therefore carry a session bias that
    unlabeled data can correct.
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    images: list[ThermalImage] = []
    splits: dict[str, list[RegionAnnotation]] = {name: [] for name in SPLITS}
    image_paths: dict[str, Path] = {}

    for subcat in cfg.subcategories():
        model = cfg.models[subcat]
        session_offset = rng.normal(0.0, model.scene_offset_std)
        for split in SPLITS:
            for i in range(cfg.counts[split]):
                if split == "labeled":
                    offset = session_offset
                else:
                    offset = rng.normal(0.0, model.scene_offset_std)
                shape = (cfg.image_height, cfg.image_width)
                temps = rng.normal(cfg.background_mean, cfg.background_std, size=shape)
                rx = int(rng.integers(0, cfg.image_width - cfg.region_width + 1))
                ry = int(rng.integers(0, cfg.image_height - cfg.region_height + 1))
                temps[ry : ry + cfg.region_height, rx : rx + cfg.region_width] = _render_region(
                    rng, model, cfg.region_width, cfg.region_height, offset
                )
                image_id = f"{subcat.equipment_type.value}_{subcat.status.value}_{split}_{i:03d}"
                images.append(ThermalImage(cfg.image_width, cfg.image_height, temps, image_id))
                image_paths[image_id] = Path(f"{image_id}.rtm")
                status = None if split == "unlabeled" else subcat.status
                splits[split].append(
                    RegionAnnotation(
                        bbox=(rx, ry, cfg.region_width, cfg.region_height),
                        equipment_type=subcat.equipment_type,
                        status=status,
                        image_ref=image_id,
                    )
                )

    return images, DatasetManifest(*(splits[name] for name in SPLITS), image_paths)


def write_dataset(images: list[ThermalImage], manifest: DatasetManifest, out_dir) -> Path:
    """Write RTM files plus manifest.json under out_dir; returns the manifest path."""
    out_dir = Path(out_dir)
    for img in images:
        save_thermal(img, out_dir / manifest.image_paths[img.source_id])
    manifest_path = out_dir / "manifest.json"
    save_manifest(manifest, manifest_path)
    return manifest_path
