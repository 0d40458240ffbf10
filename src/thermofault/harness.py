"""Experiment harness: supervised vs weakly supervised runs on region data.

A run extracts density features for every region in a dataset, builds a
prototype model from the labeled split, optionally refines it with the
unlabeled split, and scores the test split. Reports follow the shape of
the usual equipment-type accuracy tables: one row per equipment type with
normal / fault / sample-weighted average cells, plus an "entirety" row
over all test regions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .density import DEFAULT_GRID, GRID_KEYS, FeatureGrid, feature_vector
from .embedding import Embedder, TrainConfig, embed_many, train_embedder
from .images import (
    SPLITS,
    DatasetManifest,
    ManifestError,
    extract_region,
    load_manifest,
    load_thermal,
)
from .prototypes import PrototypeModel, build_model, classify_many, refine_centers
from .synthetic import SynthConfig, synthesize
from .taxonomy import EQUIPMENT_TYPES, EquipmentType, Status, SubcategoryId, check_keys, read_scalar

MODE_SUPERVISED = "supervised"
MODE_WEAK = "weak"
ENTIRETY_LABEL = "entirety"

SWEEP_PARAMS = ("alpha", "bandwidth", "grid_points")
# The kind that configs and `train --embedder` give for no embedder; every
# report's config_hash hashes {"kind": NO_EMBEDDER_KIND}.
NO_EMBEDDER_KIND = "identity"
# Pixels that extract_features holds before it computes their features.
STACK_SAMPLES = 1 << 13


@dataclass(frozen=True)
class ExperimentConfig:
    """One evaluation setup; exactly one of synth / manifest_path holds data."""

    synth: SynthConfig | None = None
    manifest_path: str | None = None
    grid: FeatureGrid = DEFAULT_GRID
    bandwidth: float | str = "auto"
    embedder: TrainConfig | None = None  # None: the raw density vectors
    alpha: float = 0.5
    refine_iters: int = 1
    seed: int = 0
    repeats: int = 1

    def __post_init__(self):
        if (self.synth is None) == (self.manifest_path is None):
            raise ValueError("config needs exactly one of synth or manifest_path")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.refine_iters < 1:
            raise ValueError("refine_iters must be >= 1")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        h = self.bandwidth
        if h != "auto" and not (isinstance(h, (int, float)) and 0 < h < np.inf):
            raise ValueError(f'bandwidth must be "auto" or a positive finite number, got {h!r}')

    def to_dict(self) -> dict:
        if self.synth is not None:
            data = {"synth": self.synth.to_dict()}
        else:
            data = {"manifest": self.manifest_path}
        embedder = {"kind": NO_EMBEDDER_KIND} if self.embedder is None else self.embedder.to_dict()
        return {
            "data": data,
            "grid": self.grid.to_dict(),
            "bandwidth": self.bandwidth,
            "embedder": embedder,
            "alpha": self.alpha,
            "refine_iters": self.refine_iters,
            "seed": self.seed,
            "repeats": self.repeats,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Keys left out keep the field defaults; unknown keys are an error."""
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        scalars = ("alpha", "refine_iters", "seed", "repeats")
        check_keys(d, ("data", "grid", "bandwidth", "embedder", *scalars), "experiment config")
        data = check_keys(d.get("data", {}), ("synth", "manifest"), "experiment data")
        kwargs = {
            k: read_scalar(d, k, type(defaults[k]), "experiment config") for k in scalars if k in d
        }
        if "synth" in data:
            kwargs["synth"] = SynthConfig.from_dict(data["synth"])
        if "manifest" in data:
            kwargs["manifest_path"] = read_scalar(data, "manifest", str, "experiment data")
        if "grid" in d:
            kwargs["grid"] = FeatureGrid.from_dict(
                check_keys(d["grid"], GRID_KEYS, "experiment grid", GRID_KEYS), "experiment grid"
            )
        if d.get("bandwidth", "auto") != "auto":
            kwargs["bandwidth"] = read_scalar(d, "bandwidth", float, "experiment config")
        if d.get("embedder", {"kind": NO_EMBEDDER_KIND}) != {"kind": NO_EMBEDDER_KIND}:
            kwargs["embedder"] = TrainConfig.from_dict(d["embedder"])
        return cls(**kwargs)


def config_hash(cfg: ExperimentConfig) -> str:
    canon = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RowAccuracy:
    """Normal/fault correctness counts for one equipment type (or overall)."""

    equipment_type: EquipmentType | None
    n_normal: int
    n_fault: int
    correct_normal: int
    correct_fault: int

    def __post_init__(self):
        if not (0 <= self.correct_normal <= self.n_normal):
            raise ValueError("normal counts out of range")
        if not (0 <= self.correct_fault <= self.n_fault):
            raise ValueError("fault counts out of range")
        if self.n_normal + self.n_fault == 0:
            raise ValueError("row has no test samples")

    @property
    def label(self) -> str:
        return ENTIRETY_LABEL if self.equipment_type is None else self.equipment_type.value

    @property
    def acc_normal(self) -> float:
        return self.correct_normal / self.n_normal if self.n_normal else 0.0

    @property
    def acc_fault(self) -> float:
        return self.correct_fault / self.n_fault if self.n_fault else 0.0

    @property
    def acc_average(self) -> float:
        return (self.correct_normal + self.correct_fault) / (self.n_normal + self.n_fault)


@dataclass(frozen=True)
class EvalReport:
    mode: str
    alpha: float
    seed: int
    rows: tuple[RowAccuracy, ...]
    overall: RowAccuracy
    config_hash: str


def report_to_dict(report: EvalReport) -> dict:
    def row_dict(row: RowAccuracy) -> dict:
        return {
            "equipment_type": row.label,
            "acc_normal": row.acc_normal,
            "acc_fault": row.acc_fault,
            "acc_average": row.acc_average,
            "n_normal": row.n_normal,
            "n_fault": row.n_fault,
        }

    return {
        "mode": report.mode,
        "alpha": report.alpha,
        "seed": report.seed,
        "rows": [row_dict(r) for r in report.rows],
        "overall": row_dict(report.overall),
        "config_hash": report.config_hash,
    }


def report_table(report: EvalReport) -> str:
    """Aligned text table: one row per equipment type plus entirety."""
    header = ("equipment", "normal", "fault", "average")
    body = []
    for row in list(report.rows) + [report.overall]:
        body.append(
            (row.label, f"{row.acc_normal:.3f}", f"{row.acc_fault:.3f}", f"{row.acc_average:.3f}")
        )
    widths = [max(len(r[i]) for r in [header] + body) for i in range(4)]
    lines = [
        f"mode={report.mode} alpha={report.alpha} seed={report.seed}",
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)),
    ]
    for r in body:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(4)))
    return "\n".join(lines)


@dataclass(frozen=True)
class _PreparedData:
    labeled: tuple[tuple[SubcategoryId, np.ndarray], ...]
    unlabeled: np.ndarray
    test: tuple[tuple[SubcategoryId, np.ndarray], ...]


def extract_features(
    cfg: ExperimentConfig, featurize: Callable
) -> tuple[DatasetManifest, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """The (regions, n_points) feature values and (regions,) bandwidths of
    cfg's dataset, per split in manifest order.

    A synthetic dataset is generated with cfg.seed. A manifest's images are
    read one at a time, in manifest order: each region's bbox is checked
    against its image (a ManifestError names the manifest and the region),
    its pixels are copied, and the image is dropped. Once the copies hold
    STACK_SAMPLES pixels, and at the end, the regions of each pixel count
    are one featurize call. If one fails, the held regions are computed
    again one by one, in image order, to name the first at fault; so a bad
    bbox of a later image may be reported before it. featurize is
    density.feature_vector as the calling front end binds it, so a wrapper
    or patch on that front end's name applies to its own extraction only.
    """
    source = cfg.manifest_path or f"synthetic seed {cfg.seed}"
    if cfg.synth is not None:
        images, manifest = synthesize(dataclasses.replace(cfg.synth, seed=cfg.seed))
        loaded = ((img.source_id, img) for img in images)
    else:
        manifest = load_manifest(Path(cfg.manifest_path))
        loaded = (
            (image_id, load_thermal(path, source_id=image_id))
            for image_id, path in manifest.image_paths.items()
        )
    regions_of: dict[str, list] = {}
    for split in SPLITS:
        for i, r in enumerate(getattr(manifest, split)):
            regions_of.setdefault(r.image_ref, []).append((split, i, r))
    sizes = {split: len(getattr(manifest, split)) for split in SPLITS}
    features = {s: (np.empty((n, cfg.grid.n_points)), np.empty(n)) for s, n in sizes.items()}
    pending: list = []  # (split, i, region, pixels), in image order

    def compute_pending() -> None:
        stacks: dict[int, list] = {}  # pixel count -> its pending regions
        for p in pending:
            stacks.setdefault(p[3].size, []).append(p)
        try:
            for where in stacks.values():
                stack = np.array([p[3] for p in where])
                values, bandwidths = featurize(stack, cfg.grid, cfg.bandwidth)
                for (split, i, _, _), v, w in zip(where, values, bandwidths):
                    features[split][0][i], features[split][1][i] = v, w
        except ValueError:
            for split, _, r, pixels in pending:  # name the first region at fault
                try:
                    featurize(pixels, cfg.grid, cfg.bandwidth)
                except ValueError as exc:
                    raise ValueError(f"{source}: {split} region {r.key()}: {exc}") from None
            raise
        pending.clear()

    held = 0  # pixels in pending
    for image_id, img in loaded:
        for split, i, r in regions_of.get(image_id, []):
            x, y, w, h = r.bbox
            if x + w > img.width or y + h > img.height:
                raise ManifestError(
                    f"{source}: {split} region {r.key()}: bbox outside"
                    f" {img.width}x{img.height} image {r.image_ref!r}"
                )
            pending.append((split, i, r, extract_region(img, r.bbox)))
            held += w * h
        del img  # dropped before the next image is read
        if held >= STACK_SAMPLES:
            compute_pending()
            held = 0
    compute_pending()
    return manifest, features


def embedder_seed(seed: int) -> int:
    """Deterministic sub-seed for the embedding trainer."""
    return int(np.random.SeedSequence([seed, 7]).generate_state(1)[0])


def fit_embedder(
    labeled: Sequence[tuple[SubcategoryId, np.ndarray]], train_cfg: TrainConfig | None, seed: int
) -> Embedder | None:
    """None without a train config, else an MLP trained on the labeled
    vectors with embedder_seed(seed)."""
    if train_cfg is None:
        return None
    return train_embedder(labeled, train_cfg, embedder_seed(seed)).embedder


def fit_model(
    labeled: Sequence[tuple[SubcategoryId, np.ndarray]],
    unlabeled: np.ndarray,
    mode: str,
    alpha: float,
    refine_iters: int,
) -> PrototypeModel:
    """Labeled centers, refined with the unlabeled vectors in weak mode.

    Supervised mode is the alpha = 1 model: its refined centers are the
    labeled centers.
    """
    if mode not in (MODE_SUPERVISED, MODE_WEAK):
        raise ValueError(f"mode must be supervised or weak, got {mode!r}")
    model = build_model(labeled, alpha=1.0 if mode == MODE_SUPERVISED else alpha)
    if mode == MODE_WEAK:
        model = refine_centers(model, unlabeled, iters=refine_iters)
    return model


def prepare_features(cfg: ExperimentConfig) -> _PreparedData:
    """Extract the feature vectors of every region, embedded if cfg has an embedder."""
    manifest, features = extract_features(cfg, feature_vector)
    vectors = {split: features[split][0] for split in SPLITS}
    emb = fit_embedder(
        [(r.subcategory, v) for r, v in zip(manifest.labeled, vectors["labeled"])],
        cfg.embedder,
        cfg.seed,
    )
    if emb is not None:
        vectors = {split: embed_many(emb, vectors[split]) for split in SPLITS}
    return _PreparedData(
        labeled=tuple(zip((r.subcategory for r in manifest.labeled), vectors["labeled"])),
        unlabeled=vectors["unlabeled"],
        test=tuple(zip((r.subcategory for r in manifest.test), vectors["test"])),
    )


def _score(data: _PreparedData, cfg: ExperimentConfig, mode: str) -> EvalReport:
    model = fit_model(data.labeled, data.unlabeled, mode, cfg.alpha, cfg.refine_iters)
    test_classes = {subcat for subcat, _ in data.test}
    missing = test_classes - set(model.classes)
    if missing:
        raise ValueError(f"test classes absent from labeled set: {sorted(missing)}")
    if not data.test:
        raise ValueError("test split is empty")

    vectors = np.stack([v for _, v in data.test])
    predicted = classify_many(vectors, model)

    counts: dict[EquipmentType, list[int]] = {}
    for (truth, _), pred in zip(data.test, predicted):
        cell = counts.setdefault(truth.equipment_type, [0, 0, 0, 0])
        hit = int(pred == truth)
        if truth.status is Status.NORMAL:
            cell[0] += 1
            cell[2] += hit
        else:
            cell[1] += 1
            cell[3] += hit
    rows = tuple(
        RowAccuracy(et, cell[0], cell[1], cell[2], cell[3])
        for et in EQUIPMENT_TYPES
        if (cell := counts.get(et)) is not None
    )
    overall = RowAccuracy(
        None,
        sum(r.n_normal for r in rows),
        sum(r.n_fault for r in rows),
        sum(r.correct_normal for r in rows),
        sum(r.correct_fault for r in rows),
    )
    return EvalReport(
        mode=mode,
        alpha=model.alpha,
        seed=cfg.seed,
        rows=rows,
        overall=overall,
        config_hash=config_hash(cfg),
    )


def run_experiment(cfg: ExperimentConfig, mode: str) -> EvalReport:
    return _score(prepare_features(cfg), cfg, mode)


def run_both(cfg: ExperimentConfig) -> tuple[EvalReport, EvalReport]:
    """Supervised and weak reports sharing one feature extraction pass."""
    data = prepare_features(cfg)
    return _score(data, cfg, MODE_SUPERVISED), _score(data, cfg, MODE_WEAK)


def sweep(cfg: ExperimentConfig, param: str, values: Sequence) -> list[EvalReport]:
    """One weak-mode run per value of alpha, bandwidth, or grid_points."""
    if param not in SWEEP_PARAMS:
        raise ValueError(f"sweep param must be one of {SWEEP_PARAMS}, got {param!r}")
    if len(values) == 0:
        raise ValueError("sweep needs at least one value")
    reports = []
    for v in values:
        if param == "alpha":
            run_cfg = dataclasses.replace(cfg, alpha=float(v))
        elif param == "bandwidth":
            run_cfg = dataclasses.replace(cfg, bandwidth=float(v))
        else:
            grid = FeatureGrid(cfg.grid.t_lo, cfg.grid.t_hi, int(v))
            run_cfg = dataclasses.replace(cfg, grid=grid)
        reports.append(run_experiment(run_cfg, MODE_WEAK))
    return reports


def sweep_table(param: str, values: Sequence, reports: Sequence[EvalReport]) -> str:
    lines = [f"sweep {param}"]
    for v, rep in zip(values, reports):
        lines.append(f"  {param}={v}: overall={rep.overall.acc_average:.3f}")
    return "\n".join(lines)


@dataclass(frozen=True)
class CompareRow:
    label: str
    d_normal: float
    d_fault: float
    d_average: float


def compare(a: EvalReport, b: EvalReport) -> list[CompareRow]:
    """Accuracy deltas (b - a) per equipment-type row plus entirety."""
    if [r.label for r in a.rows] != [r.label for r in b.rows]:
        raise ValueError("reports cover different equipment types")
    out = []
    for ra, rb in zip(list(a.rows) + [a.overall], list(b.rows) + [b.overall]):
        out.append(
            CompareRow(
                label=ra.label,
                d_normal=rb.acc_normal - ra.acc_normal,
                d_fault=rb.acc_fault - ra.acc_fault,
                d_average=rb.acc_average - ra.acc_average,
            )
        )
    return out


def compare_table(deltas: Iterable[CompareRow]) -> str:
    lines = ["delta (b - a)"]
    for row in deltas:
        lines.append(
            f"  {row.label}: normal {row.d_normal:+.3f}"
            f"  fault {row.d_fault:+.3f}  average {row.d_average:+.3f}"
        )
    return "\n".join(lines)
