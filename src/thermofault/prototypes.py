"""Nearest-center classification over density features.

Each subcategory gets a center vector (the mean of its labeled feature
vectors). Prediction picks the center with the smallest Euclidean
distance. Unlabeled vectors can sharpen the centers: they are assigned to
their nearest center, and each center is re-blended as

    refined = alpha * labeled_center + (1 - alpha) * mean(assigned)

so alpha = 1 keeps the labeled centers untouched and alpha = 0 trusts the
pseudo-labeled mean alone. Centers with no assigned vectors keep their
labeled value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .density import FeatureGrid
from .taxonomy import SubcategoryId, check_keys, quote, read_array, read_scalar


@dataclass(frozen=True)
class PrototypeModel:
    classes: tuple[SubcategoryId, ...]
    centers_labeled: np.ndarray
    centers_refined: np.ndarray
    alpha: float

    def __post_init__(self):
        if not self.classes:
            raise ValueError("model needs at least one class")
        if list(self.classes) != sorted(self.classes):
            raise ValueError("classes must be sorted by subcategory index")
        if len(set(self.classes)) != len(self.classes):
            raise ValueError("duplicate class in model")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        k = len(self.classes)
        for name in ("centers_labeled", "centers_refined"):
            c = np.asarray(getattr(self, name), dtype=np.float64)
            if c.ndim != 2 or c.shape[0] != k:
                raise ValueError(f"{name} must be a (n_classes, dim) array")
            if not np.isfinite(c).all():
                raise ValueError(f"{name} must be finite")
            c.flags.writeable = False
            object.__setattr__(self, name, c)
        if self.centers_labeled.shape != self.centers_refined.shape:
            raise ValueError("labeled and refined centers must share a shape")

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def feature_dim(self) -> int:
        return int(self.centers_labeled.shape[1])


def compute_centers(
    pairs: Iterable[tuple[SubcategoryId, np.ndarray]],
) -> tuple[tuple[SubcategoryId, ...], np.ndarray]:
    """Per-class mean vectors, classes sorted by subcategory index."""
    buckets: dict[SubcategoryId, list[np.ndarray]] = {}
    dim = None
    for subcat, vec in pairs:
        v = np.asarray(vec, dtype=np.float64).reshape(-1)
        if not np.isfinite(v).all():
            raise ValueError(f"non-finite feature vector for {subcat.label}")
        if dim is None:
            dim = v.size
        elif v.size != dim:
            raise ValueError(f"feature dim mismatch: {v.size} vs {dim}")
        buckets.setdefault(subcat, []).append(v)
    if dim is None:
        raise ValueError("no labeled vectors provided")
    ordered = tuple(sorted(buckets))
    centers = np.stack([np.mean(buckets[c], axis=0) for c in ordered])
    return ordered, centers


def build_model(
    labeled_pairs: Iterable[tuple[SubcategoryId, np.ndarray]], alpha: float = 0.5
) -> PrototypeModel:
    ordered, centers = compute_centers(labeled_pairs)
    return PrototypeModel(
        classes=ordered, centers_labeled=centers, centers_refined=centers, alpha=alpha
    )


class DistanceOverflow(ValueError):
    """A row of vectors with a squared distance to a center that is not finite."""

    def __init__(self, row: int):
        super().__init__(f"vector row {row}: a squared distance to a center is not finite")
        self.row = row


def sq_dists(x, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances from each row of x to each center.

    The direct difference, unlike the |x|^2 - 2 x.c + |c|^2 expansion, has
    no cancellation, and a row gets the same bits alone as in a batch. One
    center at a time keeps the temporaries at (n, dim), not (n, k, dim).
    A row with a distance that is not finite is a DistanceOverflow naming it.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != centers.shape[1]:
        raise ValueError(f"vectors must be (n, {centers.shape[1]}), got shape {x.shape}")
    with np.errstate(over="ignore"):
        sq = np.stack([np.square(x - c).sum(axis=1) for c in centers], axis=1)
    bad = np.flatnonzero(~np.isfinite(sq).all(axis=1))
    if bad.size:  # values of about 1e154 and more overflow the square
        raise DistanceOverflow(int(bad[0]))
    return sq


@dataclass(frozen=True)
class Posterior:
    """Scores of one vector (1-D arrays, one class) or of n rows ((n, k) arrays, n classes)."""

    classes: tuple[SubcategoryId, ...]
    distances: np.ndarray
    probs: np.ndarray
    predicted: SubcategoryId | tuple[SubcategoryId, ...]


def posterior(vectors, model: PrototypeModel) -> Posterior:
    """Distances to the refined centers, softmax(-distance) probabilities,
    and the nearest class, for an (n, dim) array or one 1-D vector.

    The prediction is the argmin of the squared distances (first class on
    exact ties, i.e. the lowest subcategory index), not an argmax over the
    floating-point probabilities or the rounded square roots.
    """
    x = np.asarray(vectors, dtype=np.float64)
    sq = sq_dists(np.atleast_2d(x), model.centers_refined)
    d = np.sqrt(sq)
    e = np.exp(d.min(axis=1, keepdims=True) - d)
    probs = e / e.sum(axis=1, keepdims=True)
    d.flags.writeable = probs.flags.writeable = False
    predicted = tuple(model.classes[i] for i in np.argmin(sq, axis=1))
    if x.ndim < 2:
        return Posterior(model.classes, d[0], probs[0], predicted[0])
    return Posterior(model.classes, d, probs, predicted)


def classify_many(vectors, model: PrototypeModel) -> list[SubcategoryId]:
    return list(posterior(vectors, model).predicted)


def refine_centers(model: PrototypeModel, unlabeled, iters: int = 1) -> PrototypeModel:
    """Blend labeled centers with pseudo-labeled unlabeled means.

    Each pass assigns every unlabeled vector to its nearest current center,
    then sets refined = alpha * labeled + (1 - alpha) * assigned-mean. The
    blend is always anchored to the labeled centers; only the assignment
    uses the centers from the previous pass. With alpha = 1 or with no
    unlabeled vectors, the refined centers equal the labeled centers
    exactly.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    x = np.asarray(unlabeled, dtype=np.float64)
    if x.size == 0:
        x = x.reshape(0, model.feature_dim)
    labeled = model.centers_labeled
    current = model.centers_refined
    alpha = model.alpha
    for _ in range(iters):
        updated = labeled.copy()
        assign = np.argmin(sq_dists(x, current), axis=1)
        for m in range(model.n_classes):
            members = x[assign == m]
            if members.shape[0] > 0:
                updated[m] = alpha * labeled[m] + (1.0 - alpha) * members.mean(axis=0)
        current = updated
    return PrototypeModel(
        classes=model.classes,
        centers_labeled=labeled,
        centers_refined=current,
        alpha=alpha,
    )


def model_to_dict(model: PrototypeModel, grid: FeatureGrid, embedder: str | None) -> dict:
    """The model file: the model, the grid of the features it was fit on and
    the sha256 of the embedder file its vectors went through (None: none)."""
    return {
        "alpha": model.alpha,
        "feature_dim": model.feature_dim,
        "grid": grid.to_dict(),
        "embedder": embedder,
        "classes": [c.to_dict() for c in model.classes],
        "centers_labeled": model.centers_labeled.tolist(),
        "centers_refined": model.centers_refined.tolist(),
    }


# the keys that older model files lack, and what each holds
_STAMPS = {
    "grid": "the grid of the features it was trained on",
    "embedder": "the sha256 of its embedder file, or null",
}


def model_from_dict(d: dict) -> tuple[PrototypeModel, FeatureGrid, str | None]:
    """The model, its feature grid and its embedder digest, as model_to_dict
    writes them."""
    keys = ("alpha", "feature_dim", *_STAMPS, "classes", "centers_labeled", "centers_refined")
    missing = [k for k in _STAMPS if isinstance(d, dict) and k not in d]
    if missing:
        raise ValueError(
            f"model needs key(s): {', '.join(f'{k!r}, {_STAMPS[k]}' for k in missing)};"
            " older model files lack them, so re-run train to write them"
        )
    check_keys(d, keys, "model", keys)
    read_scalar(d, "classes", list, "model")
    embedder = d["embedder"]
    if embedder is not None and not isinstance(embedder, str):
        message = f"model 'embedder' must be a sha256 hex digest or null, got {quote(embedder)}"
        raise ValueError(message)
    grid = FeatureGrid.from_dict(d["grid"], "model grid")
    model = PrototypeModel(
        classes=tuple(SubcategoryId.from_dict(c) for c in d["classes"]),
        centers_labeled=read_array(d, "centers_labeled", "model"),
        centers_refined=read_array(d, "centers_refined", "model"),
        alpha=read_scalar(d, "alpha", float, "model"),
    )
    if model.feature_dim != read_scalar(d, "feature_dim", int, "model"):
        raise ValueError("feature_dim does not match the stored centers")
    return model, grid, embedder

