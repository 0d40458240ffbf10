"""The benchmark's three workloads: dataset set-up, timed passes, output checks.

Every workload drives thermofault through its public API: the in-process
CLI (``thermofault.cli.main``) or ``harness.run_both``. Inputs are made by
the synthetic generator from the run seed; the library receives only the
generated inputs, while the benchmark keeps the generator's truth for its
checks. Library functions are called through their modules
(``synthetic.synthesize``), so the tracer's wrappers see those calls too.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from thermofault import cli, harness, synthetic
from thermofault.synthetic import SynthConfig, default_synth_config
from thermofault.taxonomy import Status

from . import reference

MIN_PASSES = 11  # so that at least ten passes lie beyond the reported tail


class SetupError(RuntimeError):
    """A dataset could not be prepared; the run cannot measure anything."""


def call_cli(argv: list[str]) -> bool:
    """One CLI operation; True when it returned exit code 0."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv) == 0
    except Exception:  # a raising operation counts as failed; the run goes on
        traceback.print_exc(file=sys.stderr)
        return False


def _digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name] + b"\0")
    return h.hexdigest()


class Ledger:
    """Operations attempted and their outputs, checked when the run ends.

    An operation fails if it exited non-zero or raised (no output), if its
    output differs from the first output of the same operation on the same
    input in this run, or if that first output failed the reference check.
    Only the digest of each output is held, plus the first output of the
    kinds in `kept`, which the final checks read.
    """

    def __init__(self, kept: tuple[str, ...]):
        self.kept = kept
        self.ops: list[tuple[str, object, str | None]] = []
        self.first: dict[tuple[str, object], tuple[str, object]] = {}
        self.wrong: dict[tuple[str, object], str] = {}

    def add(self, kind: str, key, output, digest: str | None = None) -> None:
        """output is None for a failed call, else the content to check."""
        if output is not None and digest is None:
            digest = _digest(output)
        self.ops.append((kind, key, digest if output is not None else None))
        if output is not None and (kind, key) not in self.first:
            self.first[(kind, key)] = (digest, output if kind in self.kept else None)

    def output(self, kind: str, key):
        """The first output of (kind, key), or None if every call failed."""
        entry = self.first.get((kind, key))
        return None if entry is None else entry[1]

    def mark_wrong(self, kind: str, key, why: str) -> None:
        self.wrong[(kind, key)] = why

    @property
    def attempted(self) -> int:
        return len(self.ops)

    def failures(self) -> list[str]:
        out = []
        for kind, key, digest in self.ops:
            if digest is None:
                out.append(f"{kind}[{key}]: call failed")
            elif digest != self.first[(kind, key)][0]:
                out.append(f"{kind}[{key}]: output differs from the first pass")
            elif (kind, key) in self.wrong:
                out.append(f"{kind}[{key}]: {self.wrong[(kind, key)]}")
        return out


def _read(paths: dict[str, Path]) -> dict[str, bytes] | None:
    try:
        return {name: p.read_bytes() for name, p in paths.items()}
    except OSError:
        return None


@dataclass
class Dataset:
    index: int
    cfg: SynthConfig
    manifest: object  # DatasetManifest, as generated
    root: Path
    manifest_path: Path

    @property
    def regions(self) -> tuple:
        return self.manifest.labeled + self.manifest.unlabeled + self.manifest.test


def images_by_id(cfg: SynthConfig) -> dict:
    """The generated images of cfg, by source id; regenerated, not kept."""
    images, _ = synthetic.synthesize(cfg)
    return {img.source_id: img for img in images}


def unlabeled_truth(cfg: SynthConfig, manifest) -> list:
    """True subcategory of each unlabeled region, in manifest order.

    The generator draws regions by subcategory index, then split, then
    sample index, so the unlabeled split holds counts["unlabeled"] regions
    of each subcategory in index order.
    """
    truth = [s for s in cfg.subcategories() for _ in range(cfg.counts["unlabeled"])]
    if [s.equipment_type for s in truth] != [r.equipment_type for r in manifest.unlabeled]:
        raise SetupError("unlabeled regions are not in generation order")
    return truth


class Workload:
    """Base: subclasses define set-up, one timed pass and the final checks."""

    name = ""
    n_datasets = 1
    kept: tuple[str, ...] = ()  # output kinds that finish() reads

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.ledger = Ledger(self.kept)
        self.datasets: list[Dataset] = []

    def synth_config(self, seed: int) -> SynthConfig:
        return default_synth_config(seed)

    def setup(self) -> list[float]:
        """Prepare every dataset; returns the set-up time of each."""
        times = []
        for i in range(self.n_datasets):
            t0 = perf_counter()
            self.datasets.append(self.make_dataset(i))
            times.append(perf_counter() - t0)
        return times

    def setup_sample(self, k: int) -> None:
        """The set-up a fresh process makes before its first pass: one dataset."""
        self.make_dataset(k % self.n_datasets)

    def make_dataset(self, i: int) -> Dataset:
        cfg = self.synth_config(1000 * self.seed + i)
        images, manifest = synthetic.synthesize(cfg)
        root = self.work_dir / f"data{i}"
        manifest_path = synthetic.write_dataset(images, manifest, root)
        return Dataset(i, cfg, manifest, root, manifest_path)

    @property
    def cycle(self) -> int:
        """Passes before the inputs repeat: one per dataset."""
        return len(self.datasets)

    @property
    def min_passes(self) -> int:
        """Enough for the tail percentile, and at least one whole cycle."""
        return max(MIN_PASSES, self.cycle)

    def pass_truth(self, i: int) -> list:
        d = self.datasets[i % len(self.datasets)]
        return unlabeled_truth(d.cfg, d.manifest)

    def run_pass(self, i: int) -> tuple[int, list]:
        """The timed work of pass i: (regions carried, pending outputs)."""
        raise NotImplementedError

    def record(self, pending: list) -> None:
        """Untimed: read each pending operation's output into the ledger."""
        for kind, key, ok, paths in pending:
            self.ledger.add(kind, key, _read(paths) if ok else None)

    def finish(self) -> dict[str, float]:
        """Untimed checks against the reference; returns the accuracies."""
        raise NotImplementedError

    @property
    def regions_per_pass(self) -> int:
        return len(self.datasets[0].regions)

    @property
    def pixels_per_region(self) -> int:
        cfg = self.datasets[0].cfg
        return cfg.region_width * cfg.region_height


class CliChain(Workload):
    """extract -> train --mode weak -> classify, over each dataset in turn.

    A "fit" is one trained model: dataset d with train variant v (the MLP
    seed, for model_fit). Ledger keys are (dataset index, variant).
    """

    n_datasets = 3
    fits_per_dataset = 1
    kept = ("classify", "classify_sup")

    @property
    def cycle(self) -> int:
        return len(self.datasets) * self.fits_per_dataset

    def fit(self, i: int) -> tuple[Dataset, int]:
        n = len(self.datasets)
        return self.datasets[i % n], (i // n) % self.fits_per_dataset

    def features_path(self, d: Dataset) -> Path:
        return d.root / "out" / "features.json"

    def train_args(self, d: Dataset, v: int, mode: str) -> list[str]:
        return ["--mode", mode, "--alpha", str(reference.ALPHA)]

    def classify_args(self, model: Path) -> list[str]:
        return []

    def model_files(self, model: Path) -> dict[str, Path]:
        return {"model": model}

    def run_chain(self, d: Dataset, v: int, mode: str, pending: list) -> None:
        tag = "" if mode == "weak" else "_sup"
        out = d.root / "out"
        model = out / f"model{tag}.json"
        preds = out / f"predictions{tag}.jsonl"
        features = self.features_path(d)
        ok = call_cli(
            ["train", "--features", str(features), "--out", str(model)]
            + self.train_args(d, v, mode)
        )
        pending.append((f"train{tag}", (d.index, v), ok, self.model_files(model)))
        ok = call_cli(
            ["classify", "--model", str(model), "--features", str(features), "--out", str(preds)]
            + self.classify_args(model)
        )
        pending.append((f"classify{tag}", (d.index, v), ok, {"predictions": preds}))

    def run_pass(self, i: int) -> tuple[int, list]:
        d, v = self.fit(i)
        pending: list = []
        features = self.features_path(d)
        ok = call_cli(["extract", "--manifest", str(d.manifest_path), "--out", str(features)])
        pending.append(("extract", (d.index, v), ok, {"features": features}))
        self.run_chain(d, v, "weak", pending)
        return len(d.regions), pending

    def reference_inputs(self, d: Dataset, v: int, mode: str):
        """(labeled, unlabeled, all-region) feature rows for the reference."""
        feats = reference.region_features(images_by_id(d.cfg), d.regions)
        n_lab, n_unl = len(d.manifest.labeled), len(d.manifest.unlabeled)
        return feats[:n_lab], feats[n_lab : n_lab + n_unl], feats

    def finish(self) -> dict[str, float]:
        hits = {"weak": [0, 0], "supervised": [0, 0]}
        for i in range(self.cycle):
            d, v = self.fit(i)
            pending: list = []
            self.run_chain(d, v, "supervised", pending)
            self.record(pending)
            for mode, kind in (("weak", "classify"), ("supervised", "classify_sup")):
                out = self.ledger.output(kind, (d.index, v))
                if out is None:
                    continue
                rows = [json.loads(line) for line in out["predictions"].decode().splitlines()]
                got = [(r["predicted"]["equipment_type"], r["predicted"]["status"]) for r in rows]
                inputs = self.reference_inputs(d, v, mode)
                if inputs is None:
                    self.ledger.mark_wrong(kind, (d.index, v), "no trained model to check against")
                    continue
                labeled, unlabeled, queries = inputs
                want = reference.predict(
                    labeled,
                    [r.subcategory for r in d.manifest.labeled],
                    unlabeled,
                    queries,
                    weak=mode == "weak",
                )
                if got != [(s.equipment_type.value, s.status.value) for s in want]:
                    self.ledger.mark_wrong(kind, (d.index, v), "labels differ from the reference")
                for r, label in zip(rows, got):
                    if r["split"] == "test":
                        hits[mode][0] += label == (r["equipment_type"], r["status"])
                        hits[mode][1] += 1
        return {
            f"acc_{mode}": (h[0] / h[1] if h[1] else 0.0) for mode, h in hits.items()
        }


class DeskChain(CliChain):
    name = "desk_chain"


class ModelFit(CliChain):
    """train --embedder mlp then classify --embedder-file; features made in set-up.

    Each dataset is fitted with three MLP seeds, so the accuracies pool
    twelve trained models.
    """

    name = "model_fit"
    n_datasets = 4
    fits_per_dataset = 3
    kept = CliChain.kept + ("train", "train_sup")

    def make_dataset(self, i: int) -> Dataset:
        d = super().make_dataset(i)
        features = self.features_path(d)
        if not call_cli(["extract", "--manifest", str(d.manifest_path), "--out", str(features)]):
            raise SetupError(f"extract failed while setting up dataset {i}")
        return d

    def train_args(self, d: Dataset, v: int, mode: str) -> list[str]:
        mlp_seed = str(10 * d.cfg.seed + v)
        return super().train_args(d, v, mode) + ["--embedder", "mlp", "--seed", mlp_seed]

    def classify_args(self, model: Path) -> list[str]:
        return ["--embedder-file", f"{model}.embedder.json"]

    def model_files(self, model: Path) -> dict[str, Path]:
        return {"model": model, "embedder": Path(f"{model}.embedder.json")}

    def run_pass(self, i: int) -> tuple[int, list]:
        d, v = self.fit(i)
        pending: list = []
        self.run_chain(d, v, "weak", pending)
        return len(d.regions), pending

    def reference_inputs(self, d: Dataset, v: int, mode: str):
        """The set-up features, embedded by the MLP that this mode's train wrote."""
        trained = self.ledger.output("train" if mode == "weak" else "train_sup", (d.index, v))
        if trained is None:
            return None
        embedder = json.loads(trained["embedder"])
        records = json.loads(self.features_path(d).read_text())["records"]
        feats = np.stack([r["feature"]["values"] for r in records])
        split = np.array([r["split"] for r in records])
        x = reference.mlp_embed(embedder, feats)
        return x[split == "labeled"], x[split == "unlabeled"], x


class SeedStudy(Workload):
    """harness.run_both over a cycle of consecutive seeds, all in memory."""

    name = "seed_study"
    n_seeds = 20
    kept = ("run_both",)

    def setup(self) -> list[float]:
        self.seeds = [1000 * self.seed + k for k in range(self.n_seeds)]
        self.base = self.synth_config(0)
        return []

    def setup_sample(self, k: int) -> None:
        self.setup()

    def config(self, seed: int) -> harness.ExperimentConfig:
        return harness.ExperimentConfig(synth=self.base, seed=seed)

    def pass_truth(self, i: int) -> list:
        seed = self.seeds[i % len(self.seeds)]
        _, manifest = synthetic.synthesize(dataclasses.replace(self.base, seed=seed))
        return unlabeled_truth(self.base, manifest)

    @property
    def cycle(self) -> int:
        return len(self.seeds)

    def run_pass(self, i: int) -> tuple[int, list]:
        seed = self.seeds[i % len(self.seeds)]
        try:
            reports = harness.run_both(self.config(seed))
        except Exception:  # a raising operation counts as failed; the run goes on
            traceback.print_exc(file=sys.stderr)
            reports = None
        return self.regions_per_pass, [("run_both", seed, reports)]

    def record(self, pending: list) -> None:
        for kind, key, reports in pending:
            if reports is None:
                self.ledger.add(kind, key, None)
                continue
            text = json.dumps([harness.report_to_dict(r) for r in reports], sort_keys=True)
            self.ledger.add(kind, key, reports, hashlib.sha256(text.encode()).hexdigest())

    def finish(self) -> dict[str, float]:
        hits = {"supervised": [0, 0], "weak": [0, 0]}
        for seed in self.seeds:
            reports = self.ledger.output("run_both", seed)
            if reports is None:
                continue
            cfg = dataclasses.replace(self.base, seed=seed)
            images, manifest = synthetic.synthesize(cfg)
            by_id = {img.source_id: img for img in images}
            lab = reference.region_features(by_id, manifest.labeled)
            unl = reference.region_features(by_id, manifest.unlabeled)
            tst = reference.region_features(by_id, manifest.test)
            truth = [r.subcategory for r in manifest.test]
            for report, mode in zip(reports, ("supervised", "weak")):
                want = reference.predict(
                    lab, [r.subcategory for r in manifest.labeled], unl, tst, weak=mode == "weak"
                )
                if _row_counts(report) != _expected_counts(truth, want):
                    why = f"{mode} report differs from the reference"
                    self.ledger.mark_wrong("run_both", seed, why)
                hits[mode][0] += report.overall.correct_normal + report.overall.correct_fault
                hits[mode][1] += report.overall.n_normal + report.overall.n_fault
        return {f"acc_{mode}": (h[0] / h[1] if h[1] else 0.0) for mode, h in hits.items()}

    @property
    def regions_per_pass(self) -> int:
        return 10 * sum(self.base.counts.values())

    @property
    def pixels_per_region(self) -> int:
        return self.base.region_width * self.base.region_height


def _row_counts(report) -> list[tuple]:
    rows = list(report.rows) + [report.overall]
    return [
        (r.label, r.n_normal, r.n_fault, r.correct_normal, r.correct_fault) for r in rows
    ]


def _expected_counts(truth: list, predicted: list) -> list[tuple]:
    """The report rows that the reference predictions imply."""
    cells: dict = {}
    for t, p in zip(truth, predicted):
        cell = cells.setdefault(t.equipment_type, [0, 0, 0, 0])
        fault = int(t.status is Status.FAULT)
        cell[fault] += 1
        cell[2 + fault] += int(p == t)
    order = sorted(cells, key=lambda et: min(s.index for s in truth if s.equipment_type is et))
    rows = [(et.value, *cells[et]) for et in order]
    total = tuple(sum(r[k] for r in rows) for k in range(1, 5))
    return rows + [("entirety", *total)]


WORKLOADS = {w.name: w for w in (DeskChain, SeedStudy, ModelFit)}
