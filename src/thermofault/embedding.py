"""Optional feature embedding: a small tanh MLP.

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

from .taxonomy import SubcategoryId, check_keys, quote, read_array, read_scalar

KIND_MLP = "mlp"
# The kind for no embedder, in configs (so in every config_hash) and `train --embedder`
NO_EMBEDDER_KIND = "identity"
EMBEDDER_KINDS = (NO_EMBEDDER_KIND, KIND_MLP)  # `train --embedder` choices, its default first
# The Embedder's parameter arrays, in field order
_PARAMS = ("W1", "b1", "W2", "b2")

_GRAD_EPS = 1e-12


@dataclass
class Embedder:
    """One-hidden-layer tanh MLP with linear output."""

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        for name in _PARAMS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if self.W1.ndim != 2 or self.W2.ndim != 2 or self.b1.ndim != 1 or self.b2.ndim != 1:
            raise ValueError("W1/W2 must be matrices, b1/b2 vectors")
        h, g = self.W1.shape
        d, h2 = self.W2.shape
        if h2 != h or self.b1.shape != (h,) or self.b2.shape != (d,):
            raise ValueError("inconsistent mlp parameter shapes")
        for name in _PARAMS:
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"non-finite values in {name}")

    @property
    def dims(self) -> tuple[int, int, int]:
        """(input, hidden, output) sizes."""
        return (self.W1.shape[1], self.W1.shape[0], self.W2.shape[0])


def init_mlp(in_dim: int, hidden: int, out_dim: int, seed: int) -> Embedder:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per layer."""
    if min(in_dim, hidden, out_dim) < 1:
        raise ValueError("all mlp dimensions must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    s1 = 1.0 / np.sqrt(in_dim)
    s2 = 1.0 / np.sqrt(hidden)
    return Embedder(
        W1=rng.uniform(-s1, s1, size=(hidden, in_dim)),
        b1=rng.uniform(-s1, s1, size=hidden),
        W2=rng.uniform(-s2, s2, size=(out_dim, hidden)),
        b2=rng.uniform(-s2, s2, size=out_dim),
    )


def embed_many(e: Embedder, vectors) -> np.ndarray:
    """Embed each row of vectors; one 1-D vector is one row, no vectors give 0 rows."""
    x = np.asarray(vectors, dtype=np.float64)
    if x.size == 0 and x.ndim < 2:
        x = x.reshape(0, e.dims[0])
    x = np.atleast_2d(x)
    if x.shape[1] != e.W1.shape[1]:
        raise ValueError(f"input dim {x.shape[1]} does not match embedder dim {e.W1.shape[1]}")
    h = np.tanh(x @ e.W1.T + e.b1)
    return h @ e.W2.T + e.b2


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
    return xs, ys, xq, yq


def proto_loss(e: Embedder, ep: Episode) -> tuple[float, dict[str, np.ndarray]]:
    """Mean query NLL and per-parameter gradients.

    Prototypes are class means of the embedded support; the posterior is
    softmax over negative Euclidean distances.
    """
    if not ep.query:
        raise ValueError("episode has no query points")
    xs, ys, xq, yq = _episode_arrays(ep)
    counts = np.bincount(ys).astype(np.float64)  # support rows per class
    n_query = xq.shape[0]
    query_rows = np.arange(n_query)

    hs = np.tanh(xs @ e.W1.T + e.b1)
    es = hs @ e.W2.T + e.b2
    hq = np.tanh(xq @ e.W1.T + e.b1)
    eq = hq @ e.W2.T + e.b2

    protos = np.zeros((counts.shape[0], es.shape[1]))
    np.add.at(protos, ys, es)
    protos /= counts[:, None]

    diff = eq[:, None, :] - protos[None, :, :]
    dist = np.sqrt(np.square(diff).sum(axis=2))
    z = -dist
    z_shift = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z_shift).sum(axis=1, keepdims=True))
    log_probs = z_shift - log_norm
    loss = float(-log_probs[query_rows, yq].mean())

    g_z = np.exp(log_probs)
    g_z[query_rows, yq] -= 1.0
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
    return loss, dict(zip(_PARAMS, (g_w1, g_b1, g_w2, g_b2)))


def _episode_step(
    e: Embedder, vectors: np.ndarray, rows: np.ndarray, own: np.ndarray, lr: float
) -> np.ndarray:
    """One gradient step of proto_loss, e updated in place, on the episode
    vectors[rows]: support row k of class k, then the queries, whose classes
    own one-hot encodes. Returns the queries' log-probabilities. One support
    row per class gives proto_loss's bits: its prototypes are the support
    embeddings (np.add.at into zeros, then / 1, is es + 0.0, -0.0 included)."""
    x = vectors[rows]
    n_query = own.shape[0]
    n_support = x.shape[0] - n_query

    h = x @ e.W1.T
    h += e.b1
    np.tanh(h, out=h)
    out = h @ e.W2.T
    out += e.b2

    diff = out[n_support:, None, :] - (out[:n_support] + 0.0)
    dist = np.square(diff).sum(axis=2)
    np.sqrt(dist, out=dist)
    z = -dist
    z -= z.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))

    g_z = np.exp(log_probs)
    g_z -= own  # x - 0.0 is x
    g_z /= n_query
    np.negative(g_z, out=g_z)
    g_z /= np.maximum(dist, _GRAD_EPS)
    g_diff = g_z[:, :, None] * diff
    g_out = np.empty_like(out)
    np.negative(g_diff.sum(axis=0), out=g_out[:n_support])
    g_diff.sum(axis=1, out=g_out[n_support:])

    g_w2 = g_out.T @ h
    g_b2 = g_out.sum(axis=0)
    g_a = g_out @ e.W2
    g_a *= 1.0 - np.square(h)
    g_w1 = g_a.T @ x
    g_b1 = g_a.sum(axis=0)
    for param, g in ((e.W1, g_w1), (e.b1, g_b1), (e.W2, g_w2), (e.b2, g_b2)):
        g *= lr
        param -= g
    return log_probs


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
        defaults, what = asdict(cls()), "mlp embedder config"
        check_keys(d, ["kind", *defaults], what)
        if d.get("kind") != KIND_MLP:
            raise ValueError(f"not an mlp embedder config: kind {quote(d.get('kind'))}")
        return cls(**{k: read_scalar(d, k, type(v), what) for k, v in defaults.items() if k in d})


def embedder_config_to_dict(cfg: TrainConfig | None) -> dict:
    """The JSON form of an embedder config: {"kind": NO_EMBEDDER_KIND} for none."""
    return {"kind": NO_EMBEDDER_KIND} if cfg is None else cfg.to_dict()


def embedder_config_from_dict(d) -> TrainConfig | None:
    """The embedder config that embedder_config_to_dict writes as d."""
    return None if d == {"kind": NO_EMBEDDER_KIND} else TrainConfig.from_dict(d)


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
    the support only): one of the n(n-1) ordered pairs of distinct rows of
    a class of n, uniformly. Every episode's draws are one integers call
    made before the first step; an array of bounds takes the generator
    stream as the same calls one episode and class at a time would, so the
    result is the same. Deterministic for a fixed seed; episodes = 0
    returns the seeded initialization untouched.
    """
    buckets: dict[SubcategoryId, list[np.ndarray]] = {}
    for subcat, vec in labeled:
        buckets.setdefault(subcat, []).append(np.asarray(vec, dtype=np.float64).reshape(-1))
    classes = sorted(buckets)
    sizes = [len(buckets[c]) for c in classes]
    rich = [k for k, n in enumerate(sizes) if n >= 2]
    if len(rich) < 2:
        raise ValueError("training needs at least 2 classes with 2+ labeled vectors each")
    dims = {v.size for vs in buckets.values() for v in vs}
    if len(dims) != 1:
        raise ValueError(f"mixed feature sizes: {sorted(dims)}")
    in_dim = dims.pop()

    e = init_mlp(in_dim, cfg.hidden, cfg.out_dim, seed)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 1])))
    # Every episode's support row k is a vector of class k, and its query
    # rows are one vector of each class in rich: only the rows drawn change.
    vectors = np.stack([v for c in classes for v in buckets[c]])
    starts = np.cumsum([0, *sizes[:-1]])
    # per episode and class in rich, one of its n(n-1) ordered pairs of distinct rows
    n = np.array([sizes[k] for k in rich])
    s, q = np.divmod(rng.integers(0, n * (n - 1), size=(cfg.episodes, n.size)), n - 1)
    q += q >= s  # the query skips the support row
    # a class with one vector always supports with it
    supports = np.tile(starts, (cfg.episodes, 1))
    supports[:, rich] += s
    rows = np.concatenate([supports, starts[rich] + q], axis=1)
    own = np.eye(len(classes))[rich]
    log_probs = [_episode_step(e, vectors, r, own, cfg.lr) for r in rows]
    # each episode's own-class log-probabilities, a C-order row, so that its
    # mean is summed as proto_loss sums its 1-D array
    picked = np.array(log_probs).reshape(-1, *own.shape)[:, own == 1.0]
    return TrainResult(embedder=e, losses=-np.ascontiguousarray(picked).mean(axis=1))


def embedder_to_dict(e: Embedder) -> dict:
    return {"kind": KIND_MLP, "dims": list(e.dims), **{k: getattr(e, k).tolist() for k in _PARAMS}}


def embedder_from_dict(d: dict) -> Embedder:
    check_keys(d, ("kind", "dims", *_PARAMS), "embedder", ("kind", *_PARAMS))
    if d["kind"] != KIND_MLP:
        raise ValueError(f"embedder kind must be {KIND_MLP!r}, got {quote(d['kind'])}")
    e = Embedder(*(read_array(d, k, "embedder") for k in _PARAMS))
    if d.get("dims", list(e.dims)) != list(e.dims):
        raise ValueError(f"declared dims {quote(d['dims'])} do not match parameters {list(e.dims)}")
    return e

