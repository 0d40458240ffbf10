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
from typing import Callable, Sequence

import numpy as np

from .density import DEFAULT_GRID, FeatureGrid, feature_vector
from .embedding import (
    Embedder,
    TrainConfig,
    embed_many,
    embedder_config_from_dict,
    embedder_config_to_dict,
    train_embedder,
)
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
from .taxonomy import EQUIPMENT_TYPES, Status, SubcategoryId, check_keys, quote, read_scalar

MODE_SUPERVISED = "supervised"
MODE_WEAK = "weak"

SWEEP_PARAMS = ("alpha", "bandwidth", "grid_points")
# The scalar keys of an experiment config's JSON form, with their JSON types
_CONFIG_SCALARS = {"alpha": float, "refine_iters": int, "seed": int, "repeats": int}
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
        if self.synth is not None:  # the config's seed draws the synthetic data
            object.__setattr__(self, "synth", dataclasses.replace(self.synth, seed=self.seed))
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
        data = {"synth": self.synth.to_dict()} if self.synth else {"manifest": self.manifest_path}
        return {
            "data": data,
            "grid": self.grid.to_dict(),
            "bandwidth": self.bandwidth,
            "embedder": embedder_config_to_dict(self.embedder),
            **{k: getattr(self, k) for k in _CONFIG_SCALARS},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Keys left out keep the field defaults; unknown keys are an error."""
        what = "experiment config"
        check_keys(d, ("data", "grid", "bandwidth", "embedder", *_CONFIG_SCALARS), what)
        data = check_keys(d.get("data", {}), ("synth", "manifest"), "experiment data")
        kwargs = {k: read_scalar(d, k, kind, what) for k, kind in _CONFIG_SCALARS.items() if k in d}
        seed = kwargs.get("seed", cls.seed)
        if "synth" in data:
            kwargs["synth"] = SynthConfig.from_dict(data["synth"])
            if (s := data["synth"].get("seed", seed)) != seed:  # one seed draws the data
                raise ValueError(f"{what} 'data.synth.seed' {s} differs from its 'seed' {seed}")
        if "manifest" in data:
            kwargs["manifest_path"] = read_scalar(data, "manifest", str, "experiment data")
        if "grid" in d:
            kwargs["grid"] = FeatureGrid.from_dict(d["grid"], "experiment grid")
        if d.get("bandwidth", "auto") != "auto":
            kwargs["bandwidth"] = read_scalar(d, "bandwidth", float, what)
        if "embedder" in d:
            kwargs["embedder"] = embedder_config_from_dict(d["embedder"])
        return cls(**kwargs)


def config_hash(cfg: ExperimentConfig) -> str:
    canon = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RowAccuracy:
    """Normal/fault correctness counts for one equipment type, labeled by its
    value, or for all test regions, labeled "entirety"."""

    label: str
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


# The keys of a report's JSON form that are attributes of its EvalReport and of each RowAccuracy
_REPORT_KEYS = ("mode", "alpha", "seed", "config_hash")
_ROW_KEYS = ("acc_normal", "acc_fault", "acc_average", "n_normal", "n_fault")


def report_to_dict(report: EvalReport) -> dict:
    def row_dict(row: RowAccuracy) -> dict:
        return {"equipment_type": row.label, **{k: getattr(row, k) for k in _ROW_KEYS}}

    return {
        **{k: getattr(report, k) for k in _REPORT_KEYS},
        "rows": [row_dict(r) for r in report.rows],
        "overall": row_dict(report.overall),
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
        images, manifest = synthesize(cfg.synth)
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
                    raise ValueError(f"{source}: {split} region {quote(r.key())}: {exc}") from None
            raise
        pending.clear()

    held = 0  # pixels in pending
    for image_id, img in loaded:
        for split, i, r in regions_of.get(image_id, []):
            x, y, w, h = r.bbox
            if x + w > img.width or y + h > img.height:
                raise ManifestError(
                    f"{source}: {split} region {quote(r.key())}: bbox outside"
                    f" {img.width}x{img.height} image {quote(r.image_ref)}"
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


def fit_splits(
    manifest: DatasetManifest, vectors: dict, train_cfg: TrainConfig | None, seed: int
) -> tuple[Embedder | None, _PreparedData]:
    """The MLP embedder trained on the labeled rows with embedder_seed(seed)
    (None without a train config: the rows as they are), and every split's
    rows through it, the labeled and test rows paired with their regions'
    classes. vectors holds each split's rows, in manifest order."""
    labeled = [r.subcategory for r in manifest.labeled]
    emb = None
    if train_cfg is not None:
        pairs = zip(labeled, vectors["labeled"])
        emb = train_embedder(pairs, train_cfg, embedder_seed(seed)).embedder
        vectors = {split: embed_many(emb, vectors[split]) for split in SPLITS}
    return emb, _PreparedData(
        labeled=tuple(zip(labeled, vectors["labeled"])),
        unlabeled=vectors["unlabeled"],
        test=tuple(zip((r.subcategory for r in manifest.test), vectors["test"])),
    )


def prepare_features(cfg: ExperimentConfig) -> _PreparedData:
    """Extract the feature vectors of every region, embedded if cfg has an embedder."""
    manifest, features = extract_features(cfg, feature_vector)
    vectors = {split: features[split][0] for split in SPLITS}
    return fit_splits(manifest, vectors, cfg.embedder, cfg.seed)[1]


def _score(data: _PreparedData, cfg: ExperimentConfig, mode: str) -> EvalReport:
    model = fit_model(data.labeled, data.unlabeled, mode, cfg.alpha, cfg.refine_iters)
    if not data.test:
        raise ValueError("test split is empty")

    vectors = np.stack([v for _, v in data.test])
    predicted = classify_many(vectors, model)

    counts: dict = {}  # equipment type -> RowAccuracy's four counts
    for (truth, _), pred in zip(data.test, predicted):
        cell = counts.setdefault(truth.equipment_type, [0, 0, 0, 0])
        fault = int(truth.status is Status.FAULT)
        cell[fault] += 1
        cell[2 + fault] += int(pred == truth)
    rows = tuple(RowAccuracy(et.value, *counts[et]) for et in EQUIPMENT_TYPES if et in counts)
    overall = RowAccuracy("entirety", *map(sum, zip(*counts.values())))
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
    """One weak-mode run per value of alpha, bandwidth, or grid_points. Alpha
    enters no feature, so an alpha sweep extracts the features once."""
    if param not in SWEEP_PARAMS:
        raise ValueError(f"sweep param must be one of {SWEEP_PARAMS}, got {param!r}")
    if len(values) == 0:
        raise ValueError("sweep needs at least one value")
    if param == "alpha":
        cfgs = [dataclasses.replace(cfg, alpha=float(v)) for v in values]
    elif param == "bandwidth":
        cfgs = [dataclasses.replace(cfg, bandwidth=float(v)) for v in values]
    else:
        grids = (FeatureGrid(cfg.grid.t_lo, cfg.grid.t_hi, int(v)) for v in values)
        cfgs = [dataclasses.replace(cfg, grid=grid) for grid in grids]
    data = prepare_features(cfg) if param == "alpha" else None
    return [_score(prepare_features(c) if data is None else data, c, MODE_WEAK) for c in cfgs]


def sweep_table(param: str, values: Sequence, reports: Sequence[EvalReport]) -> str:
    lines = [f"sweep {param}"]
    for v, rep in zip(values, reports):
        lines.append(f"  {param}={v}: overall={rep.overall.acc_average:.3f}")
    return "\n".join(lines)


def compare_table(a: EvalReport, b: EvalReport) -> str:
    """Accuracy deltas (b - a) per equipment-type row plus entirety."""
    if [r.label for r in a.rows] != [r.label for r in b.rows]:
        raise ValueError("reports cover different equipment types")
    lines = ["delta (b - a)"]
    for ra, rb in zip((*a.rows, a.overall), (*b.rows, b.overall)):
        lines.append(
            f"  {ra.label}: normal {rb.acc_normal - ra.acc_normal:+.3f}"
            f"  fault {rb.acc_fault - ra.acc_fault:+.3f}"
            f"  average {rb.acc_average - ra.acc_average:+.3f}"
        )
    return "\n".join(lines)
