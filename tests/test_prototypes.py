import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from thermofault.cli import EXIT_OK, main
from thermofault.density import DEFAULT_GRID, FeatureGrid
from thermofault.prototypes import (
    DistanceOverflow,
    PrototypeModel,
    build_model,
    classify_many,
    compute_centers,
    model_from_dict,
    model_to_dict,
    posterior,
    refine_centers,
    sq_dists,
)
from thermofault.taxonomy import SUBCATEGORIES, EquipmentType, Status, SubcategoryId

C0, C1, C2, C3 = SUBCATEGORIES[0], SUBCATEGORIES[1], SUBCATEGORIES[2], SUBCATEGORIES[3]


def two_class_model(c0, c1, alpha=0.5):
    return build_model([(C0, np.asarray(c0, float)), (C1, np.asarray(c1, float))], alpha=alpha)


def sq_distance(v, c) -> float:
    """Squared Euclidean distance, summed in Python floats."""
    return sum((float(a) - float(b)) ** 2 for a, b in zip(v, c))


# ----------------------------------------------------------------- centers

def test_single_vector_center_is_the_vector():
    classes, centers = compute_centers([(C0, np.array([3.0, -1.0]))])
    assert classes == (C0,)
    assert centers.tolist() == [[3.0, -1.0]]


def test_center_is_mean():
    classes, centers = compute_centers(
        [(C0, np.array([0.0, 0.0])), (C0, np.array([2.0, 4.0]))]
    )
    assert centers.tolist() == [[1.0, 2.0]]


def test_centers_match_summation_oracle():
    rng = np.random.Generator(np.random.PCG64(1))
    pairs = []
    expected = {}
    for sub in SUBCATEGORIES[:4]:
        vecs = rng.normal(size=(10, 5))
        pairs.extend((sub, v) for v in vecs)
        acc = [0.0] * 5
        for v in vecs:
            for j in range(5):
                acc[j] += float(v[j])
        expected[sub] = [a / 10 for a in acc]
    classes, centers = compute_centers(pairs)
    for sub, row in zip(classes, centers):
        assert_allclose(row, expected[sub], rtol=0, atol=1e-12)


def test_compute_centers_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        compute_centers([(C0, np.array([1.0])), (C1, np.array([1.0, 2.0]))])


# ---------------------------------------------------------------- distance

def test_distance_zero_and_345():
    p = posterior(np.array([[1.0, 2.0], [0.0, 0.0]]), two_class_model([1.0, 2.0], [3.0, 4.0]))
    assert p.distances.tolist() == [[0.0, math.sqrt(8.0)], [math.sqrt(5.0), 5.0]]
    assert not p.distances.flags.writeable and not p.probs.flags.writeable


def test_distance_length_mismatch():
    with pytest.raises(ValueError):
        classify_many(np.ones((3, 1)), two_class_model([0.0, 0.0], [1.0, 1.0]))


# --------------------------------------------------------------- posterior

def test_equidistant_tie_goes_to_lower_index():
    m = two_class_model([0.0, 1.0], [0.0, -1.0])
    p = posterior(np.array([0.0, 0.0]), m)
    assert_allclose(p.probs, [0.5, 0.5], rtol=0, atol=1e-15)
    assert p.predicted == C0


def test_posterior_unit_distance_pair():
    m = two_class_model([0.0, 0.0], [1.0, 0.0])
    p = posterior(np.array([0.0, 0.0]), m)
    expected = 1.0 / (1.0 + math.exp(-1.0))
    assert p.probs[0] == pytest.approx(expected, abs=1e-12)
    assert p.probs[1] == pytest.approx(1.0 - expected, abs=1e-12)
    assert p.probs[0] == pytest.approx(0.7311, abs=5e-5)
    assert p.probs[1] == pytest.approx(0.2689, abs=5e-5)
    assert not p.distances.flags.writeable and not p.probs.flags.writeable


def test_posterior_ten_classes_random():
    rng = np.random.Generator(np.random.PCG64(3))
    pairs = [(sub, rng.normal(size=6)) for sub in SUBCATEGORIES]
    model = build_model(pairs)
    for _ in range(200):
        v = rng.normal(size=6)
        p = posterior(v, model)
        assert abs(p.probs.sum() - 1.0) <= 1e-12
        assert (p.probs > 0).all()
        assert p.predicted == model.classes[int(np.argmin(p.distances))]
        assert int(np.argmax(p.probs)) == int(np.argmin(p.distances))
        order = np.argsort(p.distances)
        assert (np.diff(p.probs[order]) <= 0).all()


center_arrays = st.lists(
    st.lists(st.floats(-50, 50, allow_nan=False), min_size=3, max_size=3),
    min_size=2,
    max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(center_arrays, st.lists(st.floats(-50, 50, allow_nan=False), min_size=3, max_size=3))
def test_posterior_invariants_property(centers, query):
    pairs = [(SUBCATEGORIES[i], np.array(c)) for i, c in enumerate(centers)]
    model = build_model(pairs)
    v = np.array(query)
    p = posterior(v, model)
    assert abs(p.probs.sum() - 1.0) <= 1e-12
    assert (p.probs > 0).all()
    d = p.distances
    for a in range(len(d)):
        for b in range(len(d)):
            if d[a] <= d[b]:
                assert p.probs[a] >= p.probs[b]
            if d[a] + 1e-9 < d[b]:  # gaps below float resolution collapse in exp
                assert p.probs[a] > p.probs[b]
    # translation leaves distances, hence posteriors, unchanged
    t = np.array([7.5, -3.25, 11.0])
    shifted = build_model([(s, c + t) for s, c in pairs], alpha=model.alpha)
    q = posterior(v + t, shifted)
    assert_allclose(q.distances, p.distances, rtol=1e-9, atol=1e-9)
    assert_allclose(q.probs, p.probs, rtol=0, atol=1e-9)
    gaps = np.sort(p.distances)
    if len(gaps) > 1 and gaps[1] - gaps[0] > 1e-6:  # unambiguous nearest center
        assert q.predicted == p.predicted


def test_classify_at_refined_center_is_confident():
    centers = np.array([[0.0, 0.0], [25.0, 0.0], [0.0, 30.0]])
    pairs = [(SUBCATEGORIES[i], centers[i]) for i in range(3)]
    model = build_model(pairs)
    p = posterior(centers[1], model)
    assert p.predicted == SUBCATEGORIES[1]
    assert p.probs[1] > 1.0 - 1e-8


def test_classify_many_matches_classify():
    rng = np.random.Generator(np.random.PCG64(4))
    model = build_model([(sub, rng.normal(size=4)) for sub in SUBCATEGORIES])
    vecs = rng.normal(size=(25, 4))
    batch = classify_many(vecs, model)
    assert batch == [posterior(v, model).predicted for v in vecs]


def test_posterior_dim_mismatch():
    m = two_class_model([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        posterior(np.array([1.0, 2.0, 3.0]), m)


def test_sq_dists_bit_equals_the_broadcast_formula():
    rng = np.random.Generator(np.random.PCG64(11))
    for n, k, dim in [(0, 3, 4), (1, 1, 1), (7, 3, 16), (400, 10, 128), (33, 10, 129)]:
        x = rng.normal(scale=rng.uniform(0.1, 100.0), size=(n, dim))
        centers = rng.normal(size=(k, dim))
        expected = np.square(x[:, None, :] - centers[None, :, :]).sum(axis=2)
        got = sq_dists(x, centers)
        assert got.shape == (n, k)
        assert got.tobytes() == expected.tobytes()


def test_sq_dists_names_the_first_row_whose_distances_are_not_finite():
    """1e200 squares past the largest float; the overflow warns nothing."""
    x = np.zeros((4, 3))
    x[2, 1] = x[3, 0] = 1e200
    with pytest.raises(ValueError, match="^vector row 2: a squared distance"):
        sq_dists(x, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="^vector row 0: a squared distance"):
        sq_dists(np.zeros((1, 3)), np.array([[0.0, 0.0, 0.0], [1e200, 0.0, 0.0]]))


TRANSFORMER_NORMAL = SubcategoryId(EquipmentType.TRANSFORMER, Status.NORMAL)
TRANSFORMER_FAULT = SubcategoryId(EquipmentType.TRANSFORMER, Status.FAULT)


def test_near_tie_is_decided_by_squared_distances(tmp_path):
    """The squared distances are 1 + 2**-52 and 1, but both square roots
    round to 1.0: every scorer, and the CLI, picks the strictly nearer
    center."""
    model = build_model(
        [
            (TRANSFORMER_NORMAL, np.array([1.0, 2.0**-26])),
            (TRANSFORMER_FAULT, np.array([1.0, 0.0])),
        ]
    )
    v = np.zeros(2)
    assert posterior(v, model).distances.tolist() == [1.0, 1.0]
    assert posterior(v, model).predicted == TRANSFORMER_FAULT
    assert posterior([v], model).predicted[0] == TRANSFORMER_FAULT
    assert classify_many([v], model)[0] == TRANSFORMER_FAULT

    model_path, feats, out = tmp_path / "model.json", tmp_path / "f.json", tmp_path / "p.jsonl"
    model_doc = model_to_dict(model, FeatureGrid(0.0, 1.0, 2), None)
    model_path.write_text(json.dumps(model_doc), encoding="utf-8")
    feature = {"values": [0.0, 0.0], "bandwidth": 1.0}
    record = {
        "image_ref": "img",
        "bbox": [0, 0, 1, 1],
        "split": "test",
        "equipment_type": "transformer",
        "status": None,
        "feature": feature,
    }
    feats.write_text(json.dumps({"grid": model_doc["grid"], "records": [record]}), encoding="utf-8")
    argv = ["classify", "--model", model_path, "--features", feats, "--out", out]
    assert main([str(a) for a in argv]) == EXIT_OK
    assert json.loads(out.read_text())["predicted"]["status"] == "fault"


tie_prone = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]) | st.floats(-50, 50, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 10), st.integers(1, 4), st.integers(1, 6))
def test_batch_rows_bit_equal_single_vector_posterior(data, k, dim, n):
    rows = st.lists(tie_prone, min_size=dim, max_size=dim)
    centers = data.draw(st.lists(rows, min_size=k, max_size=k))
    queries = np.array(data.draw(st.lists(rows, min_size=n, max_size=n)))
    model = build_model([(SUBCATEGORIES[i], np.array(c)) for i, c in enumerate(centers)])
    batch = posterior(queries, model)
    assert batch.distances.shape == batch.probs.shape == (n, k)
    assert len(batch.predicted) == n
    for i, q in enumerate(queries):
        one = posterior(q, model)
        assert one.distances.shape == one.probs.shape == (k,)
        assert batch.distances[i].tobytes() == one.distances.tobytes()
        assert batch.probs[i].tobytes() == one.probs.tobytes()
        assert batch.predicted[i] == one.predicted


def test_posterior_of_no_rows_is_empty():
    p = posterior(np.empty((0, 2)), two_class_model([0.0, 0.0], [1.0, 1.0]))
    assert p.distances.shape == p.probs.shape == (0, 2)
    assert p.predicted == ()
    assert classify_many(np.empty((0, 2)), two_class_model([0.0, 0.0], [1.0, 1.0])) == []


def test_permuting_class_order_same_prediction():
    rng = np.random.Generator(np.random.PCG64(5))
    vecs = {sub: rng.normal(size=3) for sub in SUBCATEGORIES[:4]}
    fwd = build_model([(s, v) for s, v in vecs.items()])
    rev = build_model([(s, vecs[s]) for s in reversed(list(vecs))])
    assert fwd.classes == rev.classes  # canonical ordering by index
    queries = rng.normal(size=(50, 3))
    assert classify_many(queries, fwd) == classify_many(queries, rev)


# -------------------------------------------------------------- refinement

def test_refine_alpha_one_identity():
    rng = np.random.Generator(np.random.PCG64(6))
    model = build_model([(sub, rng.normal(size=4)) for sub in SUBCATEGORIES], alpha=1.0)
    refined = refine_centers(model, rng.normal(size=(40, 4)))
    assert (refined.centers_refined == model.centers_labeled).all()


def test_refine_convex_combination_example():
    model = two_class_model([0.0, 0.0], [100.0, 100.0], alpha=0.5)
    unlabeled = np.array([[1.0, 3.0], [3.0, 1.0]])  # both nearest to C0, mean (2,2)
    refined = refine_centers(model, unlabeled)
    assert refined.centers_refined[0].tolist() == [1.0, 1.0]
    assert refined.centers_refined[1].tolist() == [100.0, 100.0]  # empty -> labeled


def test_refine_names_a_non_finite_unlabeled_row():
    """sq_dists checks the unlabeled vectors: a NaN in row 1 names row 1."""
    model = two_class_model([0.0, 1.0], [5.0, 5.0], alpha=0.3)
    with pytest.raises(DistanceOverflow, match="^vector row 1: a squared distance"):
        refine_centers(model, np.array([[0.0, 0.0], [np.nan, 1.0], [2.0, 2.0]]))


def test_refine_empty_unlabeled_is_identity():
    model = two_class_model([0.0, 1.0], [5.0, 5.0], alpha=0.3)
    refined = refine_centers(model, np.empty((0, 2)))
    assert (refined.centers_refined == model.centers_labeled).all()


@settings(max_examples=100, deadline=None)
@given(
    st.floats(0, 1),
    center_arrays,
    st.lists(
        st.lists(st.floats(-50, 50, allow_nan=False), min_size=3, max_size=3),
        min_size=1,
        max_size=12,
    ),
)
def test_refine_coordinatewise_convexity(alpha, centers, unlabeled):
    pairs = [(SUBCATEGORIES[i], np.array(c)) for i, c in enumerate(centers)]
    model = build_model(pairs, alpha=alpha)
    u = np.array(unlabeled)
    refined = refine_centers(model, u)
    assigned = {m: [] for m in range(len(centers))}
    for v in u:
        dists = [sq_distance(v, c) for _, c in pairs]
        assigned[int(np.argmin(dists))].append(v)
    for m, (_, c) in enumerate(pairs):
        if not assigned[m]:
            assert (refined.centers_refined[m] == model.centers_labeled[m]).all()
            continue
        mean = np.mean(assigned[m], axis=0)
        lo = np.minimum(c, mean) - 1e-12
        hi = np.maximum(c, mean) + 1e-12
        r = refined.centers_refined[m]
        assert ((r >= lo) & (r <= hi)).all()


def test_refine_two_step_oracle_ten_classes():
    rng = np.random.Generator(np.random.PCG64(7))
    pairs = [(sub, rng.normal(loc=3.0 * i, size=5)) for i, sub in enumerate(SUBCATEGORIES)]
    model = build_model(pairs, alpha=0.5)
    unlabeled = rng.normal(loc=rng.uniform(0, 27, size=(60, 1)), size=(60, 5))

    groups = {m: [] for m in range(10)}
    for v in unlabeled:
        dists = [sq_distance(v, c) for _, c in pairs]
        groups[int(np.argmin(dists))].append(v)
    expected = model.centers_labeled.copy()
    for m, members in groups.items():
        if members:
            expected[m] = 0.5 * model.centers_labeled[m] + 0.5 * np.mean(members, axis=0)

    refined = refine_centers(model, unlabeled)
    assert_allclose(refined.centers_refined, expected, rtol=0, atol=1e-12)


def test_refine_multi_pass_reassigns_each_pass():
    """Two passes == one pass applied twice from the intermediate model."""
    rng = np.random.Generator(np.random.PCG64(8))
    model = build_model([(sub, rng.normal(size=3)) for sub in SUBCATEGORIES[:3]], alpha=0.4)
    u = rng.normal(size=(20, 3))
    once = refine_centers(model, u)
    twice = refine_centers(model, u, iters=2)
    again = refine_centers(once, u)
    assert (twice.centers_refined == again.centers_refined).all()


# ----------------------------------------------- exhaustive small oracle

def test_small_instance_exhaustive_oracle():
    """Full independent recomputation: centers, assignment, blend, softmax."""
    rng = np.random.Generator(np.random.PCG64(9))
    for trial in range(30):
        k = int(rng.integers(2, 5))
        dim = int(rng.integers(1, 4))
        alpha = float(rng.uniform(0, 1))
        labeled = []
        for i in range(k):
            for _ in range(int(rng.integers(1, 3))):
                labeled.append((SUBCATEGORIES[i], rng.normal(loc=4.0 * i, size=dim)))
        n_u = int(rng.integers(0, 7))
        unlabeled = [rng.normal(loc=rng.uniform(0, 4.0 * k), size=dim) for _ in range(n_u)]

        # oracle: per-class mean from scratch
        by_class = {}
        for sub, v in labeled:
            by_class.setdefault(sub, []).append(v)
        subs = sorted(by_class)
        oracle_centers = {s: np.mean(by_class[s], axis=0) for s in subs}
        groups = {s: [] for s in subs}
        for v in unlabeled:
            best = min(subs, key=lambda s: (sq_distance(v, oracle_centers[s]), s.index))
            groups[best].append(v)
        oracle_refined = {}
        for s in subs:
            if groups[s]:
                oracle_refined[s] = alpha * oracle_centers[s] + (1 - alpha) * np.mean(
                    groups[s], axis=0
                )
            else:
                oracle_refined[s] = oracle_centers[s]

        model = refine_centers(build_model(labeled, alpha=alpha), np.array(unlabeled).reshape(n_u, dim))
        for i, s in enumerate(model.classes):
            assert_allclose(model.centers_labeled[i], oracle_centers[s], rtol=0, atol=1e-12)
            assert_allclose(model.centers_refined[i], oracle_refined[s], rtol=0, atol=1e-12)

        for _ in range(5):
            q = rng.normal(loc=rng.uniform(0, 4.0 * k), size=dim)
            p = posterior(q, model)
            d = np.array([math.sqrt(sq_distance(q, oracle_refined[s])) for s in model.classes])
            e = np.exp(-d - (-d).max())
            assert_allclose(p.probs, e / e.sum(), rtol=0, atol=1e-12)
            assert p.predicted == model.classes[int(np.argmin(d))]


# ------------------------------------------------------------ model object

def test_model_validation():
    with pytest.raises(ValueError):
        two_class_model([0.0], [1.0], alpha=1.5)
    with pytest.raises(ValueError):
        PrototypeModel(
            classes=(C1, C0),  # wrong order
            centers_labeled=np.zeros((2, 2)),
            centers_refined=np.zeros((2, 2)),
            alpha=0.5,
        )
    with pytest.raises(ValueError):
        PrototypeModel(
            classes=(C0, C1),
            centers_labeled=np.array([[0.0, np.inf], [0.0, 0.0]]),
            centers_refined=np.zeros((2, 2)),
            alpha=0.5,
        )


def test_model_serialization_round_trip():
    rng = np.random.Generator(np.random.PCG64(10))
    model = build_model([(sub, rng.normal(size=6)) for sub in SUBCATEGORIES], alpha=0.25)
    model = refine_centers(model, rng.normal(size=(12, 6)))
    digest = "0" * 64
    doc = model_to_dict(model, DEFAULT_GRID, digest)
    assert doc["alpha"] == 0.25
    assert doc["feature_dim"] == 6
    assert doc["grid"] == {"t_lo": -20.0, "t_hi": 120.0, "n_points": 128}
    assert doc["embedder"] == digest
    assert len(doc["classes"]) == 10
    assert {"equipment_type", "status"} == set(doc["classes"][0])
    back, grid, embedder = model_from_dict(doc)
    assert grid == DEFAULT_GRID
    assert embedder == digest
    assert model_from_dict(model_to_dict(model, DEFAULT_GRID, None))[2] is None
    assert back.classes == model.classes
    assert (back.centers_labeled == model.centers_labeled).all()
    assert (back.centers_refined == model.centers_refined).all()
    assert back.alpha == model.alpha


def test_model_from_dict_rejects_dim_mismatch():
    model = two_class_model([0.0, 0.0], [1.0, 1.0])
    doc = model_to_dict(model, DEFAULT_GRID, None)
    doc["feature_dim"] = 3
    with pytest.raises(ValueError):
        model_from_dict(doc)
