"""Independent reference predictions for the benchmark's output check.

Written from the method's definition rather than from the library code:
a Gaussian KDE with Silverman's bandwidth on the CLI's default grid,
renormalized to unit rectangle-rule mass; per-class mean centers; one
alpha-blended refinement pass over pseudo-labeled unlabeled vectors; and
nearest-center labels. Labels are compared, not feature bytes, so
summation-order differences in the library's features do not matter.
"""

from __future__ import annotations

import numpy as np

GRID = np.linspace(-20.0, 120.0, 128)  # the CLI's default extract grid
BANDWIDTH_FLOOR = 1e-6
ALPHA = 0.5  # the CLI's default train --alpha


def density_feature(samples: np.ndarray) -> np.ndarray:
    x = np.sort(np.asarray(samples, dtype=np.float64).reshape(-1))
    q1, q3 = np.quantile(x, [0.25, 0.75])
    spread = min(float(np.sqrt(np.var(x) * x.size / (x.size - 1))), (q3 - q1) / 1.34)
    h = max(1.06 * spread * x.size ** -0.2, BANDWIDTH_FLOOR)
    # Constant factors 1 / (n h sqrt(2 pi)) cancel in the renormalization.
    raw = np.exp(-0.5 * np.square((GRID[:, None] - x[None, :]) / h)).sum(axis=1)
    return raw / (raw.sum() * (GRID[1] - GRID[0]))


def region_features(images_by_id: dict, regions) -> np.ndarray:
    rows = []
    for r in regions:
        x, y, w, h = r.bbox
        rows.append(density_feature(images_by_id[r.image_ref].temps[y : y + h, x : x + w]))
    return np.stack(rows)


def predict(labeled, labeled_truth, unlabeled, queries, weak: bool) -> list:
    """Nearest-center class for each query row.

    labeled_truth holds one sortable class key per labeled row; the
    returned labels are those keys.
    """
    classes = sorted(set(labeled_truth))
    truth = np.array([classes.index(c) for c in labeled_truth])
    centers = np.stack([labeled[truth == k].mean(axis=0) for k in range(len(classes))])
    if weak and len(unlabeled):
        nearest = _nearest(unlabeled, centers)
        refined = centers.copy()
        for k in range(len(classes)):
            members = unlabeled[nearest == k]
            if len(members):
                refined[k] = ALPHA * centers[k] + (1.0 - ALPHA) * members.mean(axis=0)
        centers = refined
    return [classes[k] for k in _nearest(queries, centers)]


def _nearest(rows: np.ndarray, centers: np.ndarray) -> np.ndarray:
    d = np.linalg.norm(rows[:, None, :] - centers[None, :, :], axis=2)
    return np.argmin(d, axis=1)


def mlp_embed(embedder: dict, rows: np.ndarray) -> np.ndarray:
    """Forward pass of the one-hidden-layer tanh MLP stored in embedder JSON."""
    w1, b1 = np.asarray(embedder["W1"]), np.asarray(embedder["b1"])
    w2, b2 = np.asarray(embedder["W2"]), np.asarray(embedder["b2"])
    return np.tanh(rows @ w1.T + b1) @ w2.T + b2
