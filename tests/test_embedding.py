import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from thermofault.density import feature_vector
from thermofault.embedding import (
    Embedder,
    Episode,
    TrainConfig,
    embed_many,
    embedder_from_dict,
    embedder_to_dict,
    init_mlp,
    proto_loss,
    train_embedder,
)
from thermofault.harness import SPLITS, ExperimentConfig, extract_features, prepare_features
from thermofault.synthetic import default_synth_config
from thermofault.taxonomy import SUBCATEGORIES

A, B, C = SUBCATEGORIES[0], SUBCATEGORIES[1], SUBCATEGORIES[2]


def make_episode(support, query):
    return Episode(
        support=tuple((s, np.asarray(v, float)) for s, v in support),
        query=tuple((s, np.asarray(v, float)) for s, v in query),
    )


def tanh_mlp(g):
    """The MLP with W1 = W2 = I and zero biases: elementwise tanh."""
    return Embedder(W1=np.eye(g), b1=np.zeros(g), W2=np.eye(g), b2=np.zeros(g))


def random_episode(rng, g, n_classes=2, per_class=2, n_query=2):
    support = []
    for i in range(n_classes):
        for _ in range(per_class):
            support.append((SUBCATEGORIES[i], rng.normal(size=g)))
    query = [
        (SUBCATEGORIES[int(rng.integers(0, n_classes))], rng.normal(size=g))
        for _ in range(n_query)
    ]
    return make_episode(support, query)


# ----------------------------------------------------------------- forward

def test_identity_embed():
    v = np.array([0.1, 0.9, -3.0])
    assert (embed_many(tanh_mlp(3), [v])[0] == np.tanh(v)).all()


def test_zero_weight_mlp_maps_to_zero():
    e = Embedder(
        W1=np.zeros((3, 4)),
        b1=np.zeros(3),
        W2=np.zeros((2, 3)),
        b2=np.zeros(2),
    )
    assert embed_many(e, [np.array([1.0, -2.0, 3.0, 0.5])])[0].tolist() == [0.0, 0.0]


def test_identity_weight_mlp_at_zero():
    assert embed_many(tanh_mlp(3), [np.zeros(3)])[0].tolist() == [0.0, 0.0, 0.0]


def test_embed_matches_manual_forward():
    rng = np.random.Generator(np.random.PCG64(0))
    e = init_mlp(5, 4, 3, seed=1)
    v = rng.normal(size=5)
    h = np.tanh(e.W1 @ v + e.b1)
    out = e.W2 @ h + e.b2
    assert_allclose(embed_many(e, [v])[0], out, rtol=0, atol=1e-15)


def test_embed_dim_mismatch():
    e = init_mlp(5, 4, 3, seed=1)
    with pytest.raises(ValueError):
        embed_many(e, [np.zeros(6)])


def test_embed_many_stacks_rows():
    e = init_mlp(4, 3, 2, seed=2)
    vs = np.random.Generator(np.random.PCG64(3)).normal(size=(6, 4))
    out = embed_many(e, vs)
    assert out.shape == (6, 2)
    for i in range(6):
        assert_allclose(out[i], embed_many(e, [vs[i]])[0], rtol=0, atol=1e-14)


def test_embed_many_of_no_vectors_has_no_rows():
    assert embed_many(init_mlp(4, 3, 2, seed=2), []).shape == (0, 2)
    assert embed_many(init_mlp(4, 3, 2, seed=2), np.zeros((0, 4))).shape == (0, 2)


# -------------------------------------------------------------- init / rng

def test_init_bounds_and_determinism():
    e1 = init_mlp(16, 8, 4, seed=7)
    e2 = init_mlp(16, 8, 4, seed=7)
    for name in ("W1", "b1", "W2", "b2"):
        assert (getattr(e1, name) == getattr(e2, name)).all()
    assert np.abs(e1.W1).max() <= 1 / math.sqrt(16)
    assert np.abs(e1.b1).max() <= 1 / math.sqrt(16)
    assert np.abs(e1.W2).max() <= 1 / math.sqrt(8)
    assert (init_mlp(16, 8, 4, seed=8).W1 != e1.W1).any()


# ------------------------------------------------------------------ loss

def test_equidistant_two_class_loss_is_ln2():
    ep = make_episode(
        support=[(A, [0.0, 1.0]), (B, [0.0, -1.0])],
        query=[(A, [0.0, 0.0])],
    )
    loss, grads = proto_loss(tanh_mlp(2), ep)  # tanh keeps both prototypes equidistant
    assert loss == math.log(2.0)
    assert sorted(grads) == ["W1", "W2", "b1", "b2"]


def test_query_at_own_prototype_far_other_is_near_zero_loss():
    # tanh caps each coordinate at 1, so B is far through 256 of them:
    # its embedded distance is 16 * tanh(25)
    g = 256
    ep = make_episode(
        support=[(A, np.zeros(g)), (B, np.full(g, 25.0))],
        query=[(A, np.zeros(g))],
    )
    loss, _ = proto_loss(tanh_mlp(g), ep)
    assert loss == pytest.approx(math.log1p(math.exp(-16.0 * math.tanh(25.0))), rel=1e-9)
    assert 0.0 <= loss < 1e-6


def test_loss_uses_support_means_as_prototypes():
    # class A prototype = mean of two support points = (0, 0)
    ep = make_episode(
        support=[(A, [-1.0, 0.0]), (A, [1.0, 0.0]), (B, [0.0, 3.0])],
        query=[(A, [0.0, 0.0])],
    )
    loss, _ = proto_loss(tanh_mlp(2), ep)  # tanh maps A's supports to (-t, 0) and (t, 0)
    expected = -math.log(1.0 / (1.0 + math.exp(-math.tanh(3.0))))
    assert loss == pytest.approx(expected, rel=1e-12)


def test_support_permutation_invariance():
    rng = np.random.Generator(np.random.PCG64(4))
    e = init_mlp(6, 4, 3, seed=5)
    support = [(A, rng.normal(size=6)) for _ in range(3)] + [
        (B, rng.normal(size=6)) for _ in range(3)
    ]
    query = [(A, rng.normal(size=6)), (B, rng.normal(size=6))]
    base = make_episode(support, query)
    shuffled = make_episode([support[2], support[0], support[1]] + support[3:], query)
    l1, g1 = proto_loss(e, base)
    l2, g2 = proto_loss(e, shuffled)
    assert l1 == pytest.approx(l2, rel=1e-12)
    for name in g1:
        assert_allclose(g1[name], g2[name], rtol=1e-12, atol=1e-15)


def test_episode_validation():
    with pytest.raises(ValueError):
        make_episode(support=[(A, [1.0])], query=[(A, [1.0])])  # one class only
    with pytest.raises(ValueError):
        make_episode(support=[(A, [1.0]), (B, [2.0])], query=[(C, [1.0])])


# --------------------------------------------------------- gradient check

def finite_difference_grads(e, ep, delta=1e-5):
    grads = {}
    for name in ("W1", "b1", "W2", "b2"):
        param = getattr(e, name)
        g = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            saved = param[idx]
            param[idx] = saved + delta
            lp, _ = proto_loss(e, ep)
            param[idx] = saved - delta
            lm, _ = proto_loss(e, ep)
            param[idx] = saved
            g[idx] = (lp - lm) / (2 * delta)
            it.iternext()
        grads[name] = g
    return grads


def test_gradients_match_finite_differences():
    rng = np.random.Generator(np.random.PCG64(6))
    for trial in range(10):
        g = int(rng.integers(2, 9))
        h = int(rng.integers(2, 5))
        d = int(rng.integers(1, 4))
        e = init_mlp(g, h, d, seed=int(rng.integers(0, 10_000)))
        ep = random_episode(
            rng, g, n_classes=int(rng.integers(2, 4)), per_class=2, n_query=3
        )
        _, analytic = proto_loss(e, ep)
        numeric = finite_difference_grads(e, ep)
        for name in ("W1", "b1", "W2", "b2"):
            a, n = analytic[name], numeric[name]
            err = np.abs(a - n) / np.maximum(np.abs(n), 1e-7)
            assert err.max() < 1e-4, f"trial {trial} {name}: {err.max()}"


# ---------------------------------------------------------------- training

def labeled_toy_dataset(rng, n_classes=4, per_class=5, g=8, sep=6.0):
    pairs = []
    for i in range(n_classes):
        center = np.zeros(g)
        center[i % g] = sep * (1 + i)
        for _ in range(per_class):
            pairs.append((SUBCATEGORIES[i], center + rng.normal(size=g)))
    return pairs


def test_train_zero_episodes_returns_init():
    rng = np.random.Generator(np.random.PCG64(7))
    pairs = labeled_toy_dataset(rng)
    cfg = TrainConfig(hidden=4, out_dim=3, episodes=0, lr=0.05)
    result = train_embedder(pairs, cfg, seed=11)
    ref = init_mlp(8, 4, 3, seed=11)
    for name in ("W1", "b1", "W2", "b2"):
        assert (getattr(result.embedder, name) == getattr(ref, name)).all()
    assert result.losses.size == 0


def test_train_same_seed_identical():
    rng = np.random.Generator(np.random.PCG64(8))
    pairs = labeled_toy_dataset(rng)
    cfg = TrainConfig(hidden=4, out_dim=3, episodes=25, lr=0.05)
    r1 = train_embedder(pairs, cfg, seed=3)
    r2 = train_embedder(pairs, cfg, seed=3)
    for name in ("W1", "b1", "W2", "b2"):
        assert (getattr(r1.embedder, name) == getattr(r2.embedder, name)).all()
    assert (r1.losses == r2.losses).all()


def test_train_loss_decreases_on_toy_data():
    rng = np.random.Generator(np.random.PCG64(9))
    pairs = labeled_toy_dataset(rng, n_classes=6, per_class=6)
    cfg = TrainConfig(hidden=16, out_dim=8, episodes=200, lr=0.05)
    result = train_embedder(pairs, cfg, seed=0)
    losses = np.array(result.losses)
    assert losses.shape == (200,)
    assert losses[-20:].mean() < losses[:20].mean()


def test_train_rejects_insufficient_data():
    cfg = TrainConfig(hidden=4, out_dim=2, episodes=5, lr=0.05)
    with pytest.raises(ValueError):
        train_embedder([(A, np.zeros(4)), (A, np.ones(4))], cfg, seed=0)  # one class
    with pytest.raises(ValueError):
        train_embedder([(A, np.zeros(4)), (B, np.ones(4))], cfg, seed=0)  # singletons


def per_episode_training(labeled, cfg, seed):
    """The training loop written out per episode: an Episode of (class,
    vector) pairs built and checked every step, then proto_loss."""
    buckets = {}
    for c, v in labeled:
        buckets.setdefault(c, []).append(np.asarray(v, dtype=np.float64))
    e = init_mlp(len(labeled[0][1]), cfg.hidden, cfg.out_dim, seed)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 1])))
    losses = []
    for _ in range(cfg.episodes):
        support, query = [], []
        for c in sorted(buckets):
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
    return e, np.asarray(losses, dtype=np.float64)


@pytest.mark.parametrize(
    "seed, sizes, g, hidden, out_dim",
    [
        (0, [2, 2], 3, 4, 2),
        (1, [15] * 10, 128, 32, 16),  # the default synthetic labeled split's shape
        (2, [1, 3, 5, 2, 1], 7, 5, 3),  # two classes only ever in the support
        (3, [4, 1, 9], 16, 8, 8),
        (4, [3, 2, 6, 1, 2, 8, 1], 1, 3, 1),
        (5, [5, 5, 3, 5, 5], 4, 3, 2),  # equal sizes split by a 3: runs of 2, 1 and 4 draws
        (6, [4, 9, 9, 3, 3, 3, 4], 2, 3, 2),
        (7, [20000, 20000], 1, 2, 1),  # runs longer than one block of _DRAW_BLOCK indices
    ],
)
def test_train_embedder_bit_equals_per_episode_loop(seed, sizes, g, hidden, out_dim):
    """Class k, in sorted class order, has sizes[k] vectors, so training draws
    from the sizes in the order given. Each case also runs 1 and 0 episodes."""
    rng = np.random.Generator(np.random.PCG64(seed))
    labeled = [
        (SUBCATEGORIES[k], rng.normal(k, 1.0, size=g))
        for k, n in enumerate(sizes)
        for _ in range(n)
    ]
    labeled = [labeled[i] for i in rng.permutation(len(labeled))]  # unsorted, interleaved
    for episodes in (30, 1, 0):
        cfg = TrainConfig(hidden=hidden, out_dim=out_dim, episodes=episodes, lr=0.1)
        result = train_embedder(labeled, cfg, seed=seed)
        ref, ref_losses = per_episode_training(labeled, cfg, seed)
        for name in ("W1", "b1", "W2", "b2"):
            assert getattr(result.embedder, name).tobytes() == getattr(ref, name).tobytes()
        assert result.losses.tobytes() == ref_losses.tobytes()
        assert result.losses.shape == (episodes,)


@pytest.mark.parametrize("n, m", [(15, 2000), (2, 3), (9, 1), (3, 0)])
def test_permuted_rows_are_successive_permutations(n, m):
    """The fact train_embedder's up-front draws rest on, checked on the
    installed numpy: Generator.permuted along axis 1 gives the rows of m
    successive permutation(n) calls and leaves the generator in their state."""
    one, many = (np.random.Generator(np.random.PCG64(np.random.SeedSequence([4, 1]))) for _ in "ab")
    rows = np.array([one.permutation(n) for _ in range(m)]).reshape(m, n)
    assert (many.permuted(np.broadcast_to(np.arange(n), (m, n)), axis=1) == rows).all()
    assert many.bit_generator.state == one.bit_generator.state


# ------------------------------------------------------------ serialization

def test_serialization_round_trip():
    e = init_mlp(6, 5, 4, seed=13)
    doc = embedder_to_dict(e)
    assert doc["kind"] == "mlp"
    assert doc["dims"] == [6, 5, 4]
    back = embedder_from_dict(doc)
    for name in ("W1", "b1", "W2", "b2"):
        assert (getattr(back, name) == getattr(e, name)).all()


def test_serialization_rejects_dim_mismatch():
    e = init_mlp(6, 5, 4, seed=13)
    doc = embedder_to_dict(e)
    doc["dims"] = [6, 5, 3]
    with pytest.raises(ValueError):
        embedder_from_dict(doc)


# ---------------------------------------------- no-embedder pipeline parity

def test_identity_pipeline_bit_equal_to_raw():
    counts = {"labeled": 2, "unlabeled": 2, "test": 1}
    cfg = ExperimentConfig(synth=dataclasses.replace(default_synth_config(seed=14), counts=counts))
    data = prepare_features(cfg)  # cfg.embedder is None
    manifest, features = extract_features(cfg, feature_vector)
    raw = {split: np.stack([f.values for f in features[split]]) for split in SPLITS}
    assert np.stack([v for _, v in data.labeled]).tobytes() == raw["labeled"].tobytes()
    assert data.unlabeled.tobytes() == raw["unlabeled"].tobytes()
    assert np.stack([v for _, v in data.test]).tobytes() == raw["test"].tobytes()
    assert [c for c, _ in data.labeled] == [r.subcategory for r in manifest.labeled]
    assert [c for c, _ in data.test] == [r.subcategory for r in manifest.test]
