"""In-memory spans around the public functions of each thermofault module.

The tracer wraps a fixed list of library functions. Modules that bind an
imported name (``from .images import load_thermal`` in ``cli`` and
``harness``) hold their own reference, so a wrapper replaces the function
in every loaded ``thermofault`` module namespace that refers to it, not
only in the defining module. ``density.kde_values`` and
``silverman_bandwidth`` are looked up as module globals when
``feature_vector`` runs, so their spans nest under ``feature_vector``.

Each span records its name, start, end, parent span and pass id, plus the
work counts its hook computed from the call's arguments and result. The
counts are derived ("computed"), never timed, so they repeat exactly.
A target the library no longer defines stops the run (TracerError), and a
hook that cannot compute its counts raises through the traced call, which
then counts as a failed operation: a renamed or reshaped function never
reads as a layer whose cost dropped to zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

SETUP = "setup"
MIB = float(1 << 20)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    pass_id: int | str  # timed pass index, or SETUP
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _hook_load_thermal(span, bound, result, tracer):
    span.counts["cells"] = result.width * result.height
    span.counts["bytes"] = os.path.getsize(bound["path"])


def _hook_save_thermal(span, bound, result, tracer):
    span.counts["bytes"] = os.path.getsize(bound["path"])


def _hook_feature_vector(span, bound, result, tracer):
    span.counts["pixels"] = int(np.asarray(bound["samples"]).size)


def _hook_kde_values(span, bound, result, tracer):
    evals = int(np.asarray(bound["points"]).size) * int(bound["est"].n_samples)
    span.counts["kernel_evals"] = evals
    span.counts["temp_bytes"] = 8 * evals  # one float64 (grid x samples) array


def _hook_train_embedder(span, bound, result, tracer):
    span.counts["episodes"] = int(bound["cfg"].episodes)


def _hook_refine_centers(span, bound, result, tracer):
    """Pseudo-label health from refine_centers' inputs and the generator's truth.

    The first refinement pass assigns each unlabeled vector to the nearest
    of the model's current centers; this recomputes that assignment and
    scores it against the truth the benchmark holds for the dataset.
    """
    model = bound["model"]
    x = np.asarray(bound["unlabeled"], dtype=np.float64)
    truth = tracer.unlabeled_truth
    if x.ndim != 2 or truth is None or len(truth) != x.shape[0] or x.shape[0] == 0:
        raise ValueError(f"refine_centers got {x.shape} unlabeled rows, no matching truth")
    centers = np.asarray(model.centers_refined, dtype=np.float64)
    d2 = np.square(x[:, None, :] - centers[None, :, :]).sum(axis=2)
    assign = np.argmin(d2, axis=1)
    span.counts["pseudo_attempts"] = int(x.shape[0])
    span.counts["pseudo_correct"] = sum(
        int(model.classes[a] == t) for a, t in zip(assign, truth)
    )
    span.counts["empty_classes"] = int(model.n_classes - np.unique(assign).size)


def _hook_cli_out(span, bound, result, tracer):
    span.counts["out_bytes"] = os.path.getsize(bound["args"].out)


# span name -> (module, attribute, count hook)
TARGETS = {
    "images.load_thermal": ("thermofault.images", "load_thermal", _hook_load_thermal),
    "images.extract_region": ("thermofault.images", "extract_region", None),
    "images.save_thermal": ("thermofault.images", "save_thermal", _hook_save_thermal),
    "images.load_manifest": ("thermofault.images", "load_manifest", None),
    "synthetic.synthesize": ("thermofault.synthetic", "synthesize", None),
    "synthetic.write_dataset": ("thermofault.synthetic", "write_dataset", None),
    "density.feature_vector": ("thermofault.density", "feature_vector", _hook_feature_vector),
    "density.kde_values": ("thermofault.density", "kde_values", _hook_kde_values),
    "density.silverman_bandwidth": ("thermofault.density", "silverman_bandwidth", None),
    "embedding.train_embedder": ("thermofault.embedding", "train_embedder", _hook_train_embedder),
    "embedding.embed_many": ("thermofault.embedding", "embed_many", None),
    "prototypes.posterior": ("thermofault.prototypes", "posterior", None),
    "prototypes.classify_many": ("thermofault.prototypes", "classify_many", None),
    "prototypes.build_model": ("thermofault.prototypes", "build_model", None),
    "prototypes.refine_centers": ("thermofault.prototypes", "refine_centers", _hook_refine_centers),
    "harness.run_both": ("thermofault.harness", "run_both", None),
    "harness.prepare_features": ("thermofault.harness", "prepare_features", None),
    "cli.extract": ("thermofault.cli", "cmd_extract", _hook_cli_out),
    "cli.train": ("thermofault.cli", "cmd_train", None),
    "cli.classify": ("thermofault.cli", "cmd_classify", _hook_cli_out),
}


class TracerError(RuntimeError):
    """A traced function is missing from the library."""


class Tracer:
    """Records spans while installed; install/uninstall swap the wrappers in."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id: int | str = SETUP
        self.unlabeled_truth = None  # SubcategoryIds of the current unlabeled split
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] | None = None

    def _wrap(self, name, fn, hook):
        tracer = self
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            span = Span(name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.pass_id)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(span, bound.arguments, result, tracer)
            return result

        return wrapper

    def _build_patches(self):
        patches = []
        missing = [
            name
            for name, (modname, attr, _) in TARGETS.items()
            if not callable(getattr(importlib.import_module(modname), attr, None))
        ]
        if missing:
            raise TracerError("the library no longer defines " + ", ".join(missing))
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "thermofault"]
        for name, (modname, attr, hook) in TARGETS.items():
            fn = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, fn, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        patches.append((mod, key, fn, wrapper))
        return patches

    def install(self) -> None:
        if self._patches is None:
            self._patches = self._build_patches()
        for mod, key, _, wrapper in self._patches:
            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original, _ in reversed(self._patches or []):
            setattr(mod, key, original)

    def to_json(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.pass_id, s.counts] for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration - covered)
    return out


# Span names whose work happens only while a dataset is set up; their
# metrics are per set-up. Every other metric is per traced timed pass.
PER_SETUP = ("images.save_thermal", "synthetic.write_dataset")


def layer_metrics(tracer: Tracer, n_passes: int, n_setups: int) -> dict[str, float]:
    """Per-layer metrics from the spans of traced passes (and set-ups).

    Calls, seconds and counts are means per traced pass, except for the
    PER_SETUP spans, which are means per dataset set-up.
    """
    selfs = self_times(tracer.spans)
    agg: dict[str, dict[str, float]] = {}
    for span, self_s in zip(tracer.spans, selfs):
        per_setup = span.name in PER_SETUP
        if (span.pass_id == SETUP) != per_setup:
            continue
        a = agg.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "max_temp": 0})
        a["calls"] += 1
        a["s"] += span.duration
        a["self_s"] += self_s
        for k, v in span.counts.items():
            a[k] = a.get(k, 0) + v
        a["max_temp"] = max(a["max_temp"], span.counts.get("temp_bytes", 0))

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    def per(name, key, scale=1.0):
        n = n_setups if name in PER_SETUP else n_passes
        return get(name, key) / scale / n if n else 0.0

    m: dict[str, float] = {}
    load_s = get("images.load_thermal", "s")
    m["images.load_thermal.calls"] = per("images.load_thermal", "calls")
    m["images.load_thermal.s"] = per("images.load_thermal", "s")
    m["images.load_thermal.cells_per_s"] = (
        get("images.load_thermal", "cells") / load_s if load_s else 0.0
    )
    m["images.load_thermal.mb_read"] = per("images.load_thermal", "bytes", MIB)
    m["images.extract_region.calls"] = per("images.extract_region", "calls")
    m["images.extract_region.s"] = per("images.extract_region", "s")
    m["images.save_thermal.calls"] = per("images.save_thermal", "calls")
    m["images.save_thermal.s"] = per("images.save_thermal", "s")
    m["images.save_thermal.mb_written"] = per("images.save_thermal", "bytes", MIB)
    m["images.load_manifest.s"] = per("images.load_manifest", "s")
    m["synthetic.synthesize.s"] = per("synthetic.synthesize", "s")
    m["synthetic.write_dataset.s"] = per("synthetic.write_dataset", "s")
    m["density.feature_vector.calls"] = per("density.feature_vector", "calls")
    m["density.feature_vector.s"] = per("density.feature_vector", "s")
    m["density.feature_vector.pixels"] = per("density.feature_vector", "pixels")
    m["density.kde_values.s"] = per("density.kde_values", "s")
    m["density.silverman_bandwidth.s"] = per("density.silverman_bandwidth", "s")
    m["density.kde.kernel_evals"] = per("density.kde_values", "kernel_evals")
    m["density.kde.temp_mb_max"] = get("density.kde_values", "max_temp") / MIB
    m["embedding.train_embedder.calls"] = per("embedding.train_embedder", "calls")
    m["embedding.train_embedder.s"] = per("embedding.train_embedder", "s")
    m["embedding.train_embedder.episodes"] = per("embedding.train_embedder", "episodes")
    m["embedding.embed_many.calls"] = per("embedding.embed_many", "calls")
    m["embedding.embed_many.s"] = per("embedding.embed_many", "s")
    for fn in ("posterior", "classify_many"):
        m[f"prototypes.{fn}.calls"] = per(f"prototypes.{fn}", "calls")
        m[f"prototypes.{fn}.s"] = per(f"prototypes.{fn}", "s")
    m["prototypes.build_model.s"] = per("prototypes.build_model", "s")
    m["prototypes.refine_centers.s"] = per("prototypes.refine_centers", "s")
    attempts = get("prototypes.refine_centers", "pseudo_attempts")
    refines = get("prototypes.refine_centers", "calls")
    m["prototypes.refine.pseudo_label_acc"] = (
        get("prototypes.refine_centers", "pseudo_correct") / attempts if attempts else 0.0
    )
    m["prototypes.refine.empty_classes"] = (
        get("prototypes.refine_centers", "empty_classes") / refines if refines else 0.0
    )
    m["harness.run_both.calls"] = per("harness.run_both", "calls")
    m["harness.run_both.s"] = per("harness.run_both", "s")
    m["harness.run_both.self_s"] = per("harness.run_both", "self_s")
    m["harness.prepare_features.s"] = per("harness.prepare_features", "s")
    for cmd in ("extract", "train", "classify"):
        m[f"cli.{cmd}.s"] = per(f"cli.{cmd}", "s")
        m[f"cli.{cmd}.self_s"] = per(f"cli.{cmd}", "self_s")
    m["cli.features_json.mb"] = per("cli.extract", "out_bytes", MIB)
    m["cli.predictions.mb"] = per("cli.classify", "out_bytes", MIB)
    return m


# Metrics that are derived from arguments and results, not timed.
COMPUTED = (
    "images.load_thermal.mb_read",
    "images.save_thermal.mb_written",
    "density.feature_vector.pixels",
    "density.kde.kernel_evals",
    "density.kde.temp_mb_max",
    "embedding.train_embedder.episodes",
    "prototypes.refine.pseudo_label_acc",
    "prototypes.refine.empty_classes",
    "cli.features_json.mb",
    "cli.predictions.mb",
)
