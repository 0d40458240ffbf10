"""Optional feature embedding: identity (default) or a small tanh MLP.

The MLP is trained episodically: each episode draws one support and one
query vector per class, builds prototypes from the embedded supports, and
minimizes the negative log-likelihood of each query under the
softmax-over-negative-distance posterior. Gradients are hand-written so
they can be checked against finite differences.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterable

import numpy as np

from .taxonomy import SubcategoryId, check_keys

KIND_IDENTITY = "identity"
KIND_MLP = "mlp"

_GRAD_EPS = 1e-12


@dataclass
class Embedder:
    """Identity pass-through or one-hidden-layer tanh MLP with linear output."""

    kind: str
    W1: np.ndarray | None = None
    b1: np.ndarray | None = None
    W2: np.ndarray | None = None
    b2: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == KIND_IDENTITY:
            if any(p is not None for p in (self.W1, self.b1, self.W2, self.b2)):
                raise ValueError("identity embedder takes no parameters")
            return
        if self.kind != KIND_MLP:
            raise ValueError(f"unknown embedder kind {self.kind!r}")
        for name in ("W1", "b1", "W2", "b2"):
            p = getattr(self, name)
            if p is None:
                raise ValueError(f"mlp embedder missing parameter {name}")
            setattr(self, name, np.asarray(p, dtype=np.float64))
        if self.W1.ndim != 2 or self.W2.ndim != 2 or self.b1.ndim != 1 or self.b2.ndim != 1:
            raise ValueError("W1/W2 must be matrices, b1/b2 vectors")
        h, g = self.W1.shape
        d, h2 = self.W2.shape
        if h2 != h or self.b1.shape != (h,) or self.b2.shape != (d,):
            raise ValueError("inconsistent mlp parameter shapes")
        for name in ("W1", "b1", "W2", "b2"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"non-finite values in {name}")

    @property
    def dims(self) -> tuple[int, int, int] | None:
        """(input, hidden, output) sizes; None for the identity embedder."""
        if self.kind == KIND_IDENTITY:
            return None
        return (self.W1.shape[1], self.W1.shape[0], self.W2.shape[0])


def identity_embedder() -> Embedder:
    return Embedder(kind=KIND_IDENTITY)


def init_mlp(in_dim: int, hidden: int, out_dim: int, seed: int) -> Embedder:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per layer."""
    if min(in_dim, hidden, out_dim) < 1:
        raise ValueError("all mlp dimensions must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    s1 = 1.0 / np.sqrt(in_dim)
    s2 = 1.0 / np.sqrt(hidden)
    return Embedder(
        kind=KIND_MLP,
        W1=rng.uniform(-s1, s1, size=(hidden, in_dim)),
        b1=rng.uniform(-s1, s1, size=hidden),
        W2=rng.uniform(-s2, s2, size=(out_dim, hidden)),
        b2=rng.uniform(-s2, s2, size=out_dim),
    )


def embed_many(e: Embedder, vectors) -> np.ndarray:
    """Embed each row of vectors; one 1-D vector is one row, no vectors give 0 rows."""
    x = np.asarray(vectors, dtype=np.float64)
    if x.size == 0 and x.ndim < 2:
        x = x.reshape(0, 0 if e.dims is None else e.dims[0])
    x = np.atleast_2d(x)
    if e.kind == KIND_IDENTITY:
        return x.copy()
    if x.shape[1] != e.W1.shape[1]:
        raise ValueError(f"input dim {x.shape[1]} does not match embedder dim {e.W1.shape[1]}")
    h = np.tanh(x @ e.W1.T + e.b1)
    return h @ e.W2.T + e.b2


def embed(e: Embedder, v) -> np.ndarray:
    return embed_many(e, np.asarray(v, dtype=np.float64).reshape(1, -1))[0]


@dataclass(frozen=True)
class Episode:
    """Support/query split for one training step.

    Both lists hold (subcategory, vector) pairs. Every query class must
    appear in the support, and the support must span at least two classes.
    """

    support: tuple[tuple[SubcategoryId, np.ndarray], ...]
    query: tuple[tuple[SubcategoryId, np.ndarray], ...]

    def __post_init__(self):
        support_classes = {c for c, _ in self.support}
        if len(support_classes) < 2:
            raise ValueError("episode needs at least 2 distinct support classes")
        missing = {c for c, _ in self.query} - support_classes
        if missing:
            raise ValueError(f"query classes missing from support: {sorted(missing)}")
        dims = {np.asarray(v).reshape(-1).size for _, v in self.support + self.query}
        if len(dims) != 1:
            raise ValueError(f"mixed vector sizes in episode: {sorted(dims)}")


def _episode_arrays(ep: Episode):
    classes = tuple(sorted({c for c, _ in ep.support}))
    index = {c: i for i, c in enumerate(classes)}
    xs = np.stack([np.asarray(v, dtype=np.float64).reshape(-1) for _, v in ep.support])
    ys = np.array([index[c] for c, _ in ep.support])
    xq = np.stack([np.asarray(v, dtype=np.float64).reshape(-1) for _, v in ep.query])
    yq = np.array([index[c] for c, _ in ep.query])
    return classes, xs, ys, xq, yq


def proto_loss(e: Embedder, ep: Episode) -> tuple[float, dict[str, np.ndarray]]:
    """Mean query NLL and per-parameter gradients.

    Prototypes are class means of the embedded support; the posterior is
    softmax over negative Euclidean distances. The identity embedder has
    no parameters, so its gradient dict is empty.
    """
    if not ep.query:
        raise ValueError("episode has no query points")
    _, xs, ys, xq, yq = _episode_arrays(ep)
    n_classes = int(ys.max()) + 1
    n_query = xq.shape[0]

    if e.kind == KIND_IDENTITY:
        es, eq = xs, xq
    else:
        a_s = xs @ e.W1.T + e.b1
        hs = np.tanh(a_s)
        es = hs @ e.W2.T + e.b2
        a_q = xq @ e.W1.T + e.b1
        hq = np.tanh(a_q)
        eq = hq @ e.W2.T + e.b2

    counts = np.bincount(ys, minlength=n_classes).astype(np.float64)
    protos = np.zeros((n_classes, es.shape[1]))
    np.add.at(protos, ys, es)
    protos /= counts[:, None]

    diff = eq[:, None, :] - protos[None, :, :]
    dist = np.sqrt(np.square(diff).sum(axis=2))
    z = -dist
    z_shift = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z_shift).sum(axis=1, keepdims=True))
    log_probs = z_shift - log_norm
    loss = float(-log_probs[np.arange(n_query), yq].mean())

    if e.kind == KIND_IDENTITY:
        return loss, {}

    g_z = np.exp(log_probs)
    g_z[np.arange(n_query), yq] -= 1.0
    g_z /= n_query
    g_dist = -g_z
    g_diff = (g_dist / np.maximum(dist, _GRAD_EPS))[:, :, None] * diff
    g_eq = g_diff.sum(axis=1)
    g_protos = -g_diff.sum(axis=0)
    g_es = g_protos[ys] / counts[ys][:, None]

    g_out = np.concatenate([g_es, g_eq], axis=0)
    h_all = np.concatenate([hs, hq], axis=0)
    x_all = np.concatenate([xs, xq], axis=0)
    g_w2 = g_out.T @ h_all
    g_b2 = g_out.sum(axis=0)
    g_h = g_out @ e.W2
    g_a = g_h * (1.0 - np.square(h_all))
    g_w1 = g_a.T @ x_all
    g_b1 = g_a.sum(axis=0)
    return loss, {"W1": g_w1, "b1": g_b1, "W2": g_w2, "b2": g_b2}


@dataclass(frozen=True)
class TrainConfig:
    """Shape and schedule of an MLP embedder; the seed is given at training."""

    hidden: int = 32
    out_dim: int = 16
    episodes: int = 200
    lr: float = 0.05

    def __post_init__(self):
        if self.hidden < 1 or self.out_dim < 1:
            raise ValueError("hidden and out_dim must be >= 1")
        if self.episodes < 0:
            raise ValueError("episodes must be >= 0")
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")

    def to_dict(self) -> dict:
        return {"kind": KIND_MLP, **asdict(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        defaults = asdict(cls())
        check_keys(d, ["kind", *defaults], "mlp embedder config")
        if d.get("kind") != KIND_MLP:
            raise ValueError(f"not an mlp embedder config: kind {d.get('kind')!r}")
        return cls(**{k: type(v)(d[k]) for k, v in defaults.items() if k in d})


@dataclass(frozen=True)
class TrainResult:
    embedder: Embedder
    losses: np.ndarray = field(repr=False)


def train_embedder(
    labeled: Iterable[tuple[SubcategoryId, np.ndarray]], cfg: TrainConfig, seed: int
) -> TrainResult:
    """Plain gradient descent over cfg.episodes episodes.

    Each episode draws, per class in sorted order, one support and one
    query vector without replacement (classes with a single vector join
    the support only). Deterministic for a fixed seed; episodes = 0
    returns the seeded initialization untouched.
    """
    buckets: dict[SubcategoryId, list[np.ndarray]] = {}
    for subcat, vec in labeled:
        buckets.setdefault(subcat, []).append(np.asarray(vec, dtype=np.float64).reshape(-1))
    rich = [c for c, vs in buckets.items() if len(vs) >= 2]
    if len(rich) < 2:
        raise ValueError("training needs at least 2 classes with 2+ labeled vectors each")
    dims = {v.size for vs in buckets.values() for v in vs}
    if len(dims) != 1:
        raise ValueError(f"mixed feature sizes: {sorted(dims)}")
    in_dim = dims.pop()

    e = init_mlp(in_dim, cfg.hidden, cfg.out_dim, seed)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 1])))
    classes = sorted(buckets)
    losses = []
    for _ in range(cfg.episodes):
        support, query = [], []
        for c in classes:
            vs = buckets[c]
            if len(vs) >= 2:
                i, j = rng.permutation(len(vs))[:2]
                support.append((c, vs[i]))
                query.append((c, vs[j]))
            else:
                support.append((c, vs[0]))
        loss, grads = proto_loss(e, Episode(support=tuple(support), query=tuple(query)))
        for name, g in grads.items():
            setattr(e, name, getattr(e, name) - cfg.lr * g)
        losses.append(loss)
    return TrainResult(embedder=e, losses=np.asarray(losses, dtype=np.float64))


def embedder_to_dict(e: Embedder) -> dict:
    if e.kind == KIND_IDENTITY:
        return {"kind": KIND_IDENTITY}
    g, h, d = e.dims
    return {
        "kind": KIND_MLP,
        "dims": [g, h, d],
        "W1": [[float(v) for v in row] for row in e.W1],
        "b1": [float(v) for v in e.b1],
        "W2": [[float(v) for v in row] for row in e.W2],
        "b2": [float(v) for v in e.b2],
    }


def embedder_from_dict(d: dict) -> Embedder:
    kind = d.get("kind")
    if kind == KIND_IDENTITY:
        return identity_embedder()
    if kind != KIND_MLP:
        raise ValueError(f"unknown embedder kind {kind!r}")
    e = Embedder(
        kind=KIND_MLP,
        W1=np.asarray(d["W1"], dtype=np.float64),
        b1=np.asarray(d["b1"], dtype=np.float64),
        W2=np.asarray(d["W2"], dtype=np.float64),
        b2=np.asarray(d["b2"], dtype=np.float64),
    )
    if "dims" in d and tuple(d["dims"]) != e.dims:
        raise ValueError(f"declared dims {d['dims']} do not match parameters {list(e.dims)}")
    return e


__all__ = [
    "Embedder",
    "Episode",
    "TrainConfig",
    "TrainResult",
    "embed",
    "embed_many",
    "embedder_from_dict",
    "embedder_to_dict",
    "identity_embedder",
    "init_mlp",
    "proto_loss",
    "train_embedder",
]
