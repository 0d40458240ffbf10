"""Optional feature embedding: a small tanh MLP.

The MLP is trained episodically: each episode draws one support and one
query vector per class, builds prototypes from the embedded supports, and
minimizes the negative log-likelihood of each query under the
softmax-over-negative-distance posterior. Gradients are hand-written so
they can be checked against finite differences.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .taxonomy import SubcategoryId, check_keys, read_array, read_scalar

KIND_MLP = "mlp"

_GRAD_EPS = 1e-12


@dataclass
class Embedder:
    """One-hidden-layer tanh MLP with linear output."""

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        for name in ("W1", "b1", "W2", "b2"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
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


class _Labels(NamedTuple):
    """Class indices of an episode's support and query rows, and the arrays
    the loss derives from them alone; training builds them once."""

    ys: np.ndarray
    yq: np.ndarray
    counts: np.ndarray  # support rows per class, float64
    query_rows: np.ndarray  # arange(len(yq))
    ys_counts: np.ndarray  # counts[ys] as a column


def _labels(ys: np.ndarray, yq: np.ndarray) -> _Labels:
    counts = np.bincount(ys, minlength=int(ys.max()) + 1).astype(np.float64)
    return _Labels(ys, yq, counts, np.arange(yq.shape[0]), counts[ys][:, None])


def proto_loss(e: Embedder, ep: Episode) -> tuple[float, dict[str, np.ndarray]]:
    """Mean query NLL and per-parameter gradients.

    Prototypes are class means of the embedded support; the posterior is
    softmax over negative Euclidean distances.
    """
    if not ep.query:
        raise ValueError("episode has no query points")
    xs, ys, xq, yq = _episode_arrays(ep)
    return _proto_loss(e, xs, xq, _labels(ys, yq))


def _proto_loss(
    e: Embedder, xs: np.ndarray, xq: np.ndarray, lab: _Labels
) -> tuple[float, dict[str, np.ndarray]]:
    """proto_loss of support rows xs and query rows xq, labelled by lab."""
    n_classes = lab.counts.shape[0]
    n_query = xq.shape[0]

    hs = np.tanh(xs @ e.W1.T + e.b1)
    es = hs @ e.W2.T + e.b2
    hq = np.tanh(xq @ e.W1.T + e.b1)
    eq = hq @ e.W2.T + e.b2

    protos = np.zeros((n_classes, es.shape[1]))
    np.add.at(protos, lab.ys, es)
    protos /= lab.counts[:, None]

    diff = eq[:, None, :] - protos[None, :, :]
    dist = np.sqrt(np.square(diff).sum(axis=2))
    z = -dist
    z_shift = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z_shift).sum(axis=1, keepdims=True))
    log_probs = z_shift - log_norm
    loss = float(-log_probs[lab.query_rows, lab.yq].mean())

    g_z = np.exp(log_probs)
    g_z[lab.query_rows, lab.yq] -= 1.0
    g_z /= n_query
    g_dist = -g_z
    g_diff = (g_dist / np.maximum(dist, _GRAD_EPS))[:, :, None] * diff
    g_eq = g_diff.sum(axis=1)
    g_protos = -g_diff.sum(axis=0)
    g_es = g_protos[lab.ys] / lab.ys_counts

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
        what = "mlp embedder config"
        return cls(**{k: read_scalar(d, k, type(v), what) for k, v in defaults.items() if k in d})


@dataclass(frozen=True)
class TrainResult:
    embedder: Embedder
    losses: np.ndarray = field(repr=False)


# At most this many indices are shuffled in one permuted call (512 KiB).
_DRAW_BLOCK = 1 << 16


def _draw_pairs(rng: np.random.Generator, sizes: list[int], episodes: int) -> np.ndarray:
    """rng.permutation(n)[:2] for each n in sizes, episode after episode, as
    an (episodes, len(sizes), 2) array.

    Generator.permuted along axis 1 shuffles one row after another exactly
    as successive permutation calls do, so each run of equal consecutive
    sizes takes one call (in blocks of at most _DRAW_BLOCK indices), and
    the rows and the generator's final state are those of the calls made
    one by one (the tests check this on the installed numpy). A run of one
    row calls permutation, which is cheaper there.
    """
    flat = np.tile(np.asarray(sizes, dtype=np.intp), episodes)
    pairs = np.empty((flat.size, 2), dtype=np.intp)
    starts = np.flatnonzero(np.diff(flat, prepend=-1))
    for lo, end in zip(starts.tolist(), [*starts[1:].tolist(), flat.size]):
        n = int(flat[lo])
        step = max(1, _DRAW_BLOCK // n)
        for a in range(lo, end, step):
            b = min(a + step, end)
            if b - a == 1:
                pairs[a] = rng.permutation(n)[:2]
            else:
                rows = rng.permuted(np.broadcast_to(np.arange(n), (b - a, n)), axis=1)
                pairs[a:b] = rows[:, :2]
    return pairs.reshape(episodes, len(sizes), 2)


def train_embedder(
    labeled: Iterable[tuple[SubcategoryId, np.ndarray]], cfg: TrainConfig, seed: int
) -> TrainResult:
    """Plain gradient descent over cfg.episodes episodes.

    Each episode draws, per class in sorted order, one support and one
    query vector without replacement (classes with a single vector join
    the support only). Every episode's draws are made before the first
    step, from the same generator stream as one draw per episode and
    class (see _draw_pairs), so the result is the same. Deterministic for
    a fixed seed; episodes = 0 returns the seeded initialization untouched.
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
    lab = _labels(np.arange(len(classes)), np.array(rich))
    pairs = _draw_pairs(rng, [sizes[k] for k in rich], cfg.episodes)
    # a class with one vector always supports with it
    supports = np.tile(starts, (cfg.episodes, 1))
    supports[:, rich] += pairs[:, :, 0]
    queries = starts[rich] + pairs[:, :, 1]
    losses = []
    for support, query in zip(supports, queries):
        loss, grads = _proto_loss(e, vectors[support], vectors[query], lab)
        for name, g in grads.items():
            setattr(e, name, getattr(e, name) - cfg.lr * g)
        losses.append(loss)
    return TrainResult(embedder=e, losses=np.asarray(losses, dtype=np.float64))


def embedder_to_dict(e: Embedder) -> dict:
    g, h, d = e.dims
    return {
        "kind": KIND_MLP,
        "dims": [g, h, d],
        "W1": e.W1.tolist(),
        "b1": e.b1.tolist(),
        "W2": e.W2.tolist(),
        "b2": e.b2.tolist(),
    }


def embedder_from_dict(d: dict) -> Embedder:
    params = ("W1", "b1", "W2", "b2")
    check_keys(d, ("kind", "dims", *params), "embedder", ("kind", *params))
    if d["kind"] != KIND_MLP:
        raise ValueError(f"embedder kind must be {KIND_MLP!r}, got {d['kind']!r}")
    e = Embedder(*(read_array(d, k, "embedder") for k in params))
    if d.get("dims", list(e.dims)) != list(e.dims):
        raise ValueError(f"declared dims {d['dims']} do not match parameters {list(e.dims)}")
    return e


__all__ = [
    "Embedder",
    "Episode",
    "TrainConfig",
    "TrainResult",
    "embed_many",
    "embedder_from_dict",
    "embedder_to_dict",
    "init_mlp",
    "proto_loss",
    "train_embedder",
]
