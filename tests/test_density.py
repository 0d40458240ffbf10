import dataclasses
import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from thermofault.density import (
    DEFAULT_GRID,
    KERNEL_SUPPORT,
    TRUNCATION_TOLERANCE,
    UNDERFLOW_SUPPORT,
    FeatureGrid,
    KdeEstimator,
    _sorted_quantile,
    anchored_histogram,
    feature_vector,
    histogram,
    interval_probability,
    kde_at,
    kde_values,
    read_features,
    silverman_bandwidth,
)
from thermofault.harness import (
    MODE_SUPERVISED,
    MODE_WEAK,
    SPLITS,
    ExperimentConfig,
    extract_features,
    fit_model,
)
from thermofault.cli import _load_records
from thermofault.images import extract_region
from thermofault.prototypes import build_model, model_from_dict, model_to_dict, posterior
from thermofault.synthetic import case_study_config, default_synth_config, synthesize
from thermofault.taxonomy import SUBCATEGORIES
from thermofault.taxonomy import EquipmentType, Status


def kde_oracle(samples, bandwidth, x):
    """Plain-Python one-term-at-a-time kernel density sum."""
    total = 0.0
    for xi in samples:
        u = (x - xi) / bandwidth
        total += math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    return total / (len(samples) * bandwidth)


def kde_unwindowed(samples, bandwidth, points, support=None):
    """Every point against every sorted sample: the full (points x samples)
    sum. With a support, each term whose exponent is below -support**2/2
    is stored as 0.0; without one, every term is exp's own result."""
    x = np.sort(np.asarray(samples, dtype=np.float64).reshape(-1))
    pts = np.asarray(points, dtype=np.float64).reshape(-1)
    with np.errstate(all="ignore"):
        u = (pts[:, None] - x[None, :]) / bandwidth
        t = -0.5 * np.square(u)
        terms = np.exp(t)
        if support is not None:
            terms[t < -0.5 * support * support] = 0.0
        k = terms.sum(axis=1) / math.sqrt(2.0 * math.pi)
    return k / (x.size * bandwidth)


def silverman_reference(x):
    """Silverman's rule from np.std and np.percentile, floored at 1e-6."""
    q75, q25 = np.percentile(x, [75.0, 25.0])
    scale = min(float(np.std(x, ddof=1)), (q75 - q25) / 1.34)
    return max(1.06 * scale * x.size ** (-0.2), 1e-6)


def truncated_feature(x, w, grid):
    """The KERNEL_SUPPORT raw KDE on the grid, its mass, and the bound on
    the gap from raw / mass to the full-support feature: every grid value
    moves by at most D = e**-72 / (w sqrt(2 pi)), the mass by at most
    n_points * step * D (infinite where the mass is 0)."""
    raw = kde_unwindowed(x, w, grid.points(), support=KERNEL_SUPPORT)
    mass = float(raw.sum() * grid.step)
    if mass == 0.0:
        return raw, mass, math.inf
    d = math.exp(-72.0) / (w * math.sqrt(2.0 * math.pi))
    return raw, mass, d / mass * max(1.0, grid.n_points * grid.step * raw.max() / mass)


def full_support_values(x, w, grid):
    """The renormalized unwindowed KDE: the feature with no term cut."""
    raw = kde_unwindowed(x, w, grid.points())
    return raw / float(raw.sum() * grid.step)


def reference_values(x, w, grid):
    """The feature the guard keeps: truncated where its bound is at most
    2**-60, else the full-support one."""
    raw, mass, bound = truncated_feature(x, w, grid)
    return raw / mass if bound <= 2.0**-60 else full_support_values(x, w, grid)


# ---------------------------------------------------------------- histogram

def test_histogram_counting_example():
    h = histogram([1, 1, 2, 3], bin_origin=0.5, bin_width=1.0)
    assert_allclose(h.probs, [0.5, 0.25, 0.25])
    assert h.bin_origin == 0.5
    assert h.n_samples == 4
    assert not h.probs.flags.writeable


def test_histogram_single_sample():
    h = histogram([7.0], bin_origin=0.0, bin_width=2.0)
    assert h.probs.tolist() == [1.0]
    assert h.bin_origin == 6.0


def test_histogram_rejects_bad_input():
    with pytest.raises(ValueError):
        histogram([])
    with pytest.raises(ValueError):
        histogram([1.0], bin_width=0.0)
    with pytest.raises(ValueError):
        histogram([np.nan])


sample_lists = st.lists(
    st.floats(min_value=-500, max_value=500, allow_nan=False), min_size=1, max_size=60
)


@settings(max_examples=200, deadline=None)
@given(sample_lists, st.floats(-10, 10), st.floats(0.01, 5))
def test_histogram_probs_sum_to_one(samples, origin, width):
    h = histogram(samples, bin_origin=origin, bin_width=width)
    assert abs(h.probs.sum() - 1.0) <= 1e-12
    assert ((h.probs >= 0) & (h.probs <= 1)).all()


def test_histogram_mode_bin_contains_arrester_normal_mean():
    cfg = case_study_config(EquipmentType.ARRESTER, seed=0)
    cfg = dataclasses.replace(cfg, counts={"labeled": 40, "unlabeled": 0, "test": 0})
    images, manifest = synthesize(cfg)
    by_id = {img.source_id: img for img in images}
    pooled = np.concatenate(
        [
            by_id[r.image_ref].temps[
                r.bbox[1] : r.bbox[1] + r.bbox[3], r.bbox[0] : r.bbox[0] + r.bbox[2]
            ].ravel()
            for r in manifest.labeled
            if r.status is Status.NORMAL
        ]
    )
    assert pooled.size >= 10000
    h = histogram(pooled, bin_origin=0.0, bin_width=1.0)
    mode_bin = int(np.argmax(h.probs))
    lo = h.bin_origin + mode_bin * h.bin_width
    assert lo <= 13.9 < lo + h.bin_width


# ---------------------------------------------------- interval probability

def test_interval_example():
    h = histogram([0.25, 0.25, 1.5, 2.5], bin_origin=0.0, bin_width=1.0)
    assert_allclose(h.probs, [0.5, 0.25, 0.25])
    assert interval_probability(h, 0.0, 2.0) == 0.75


def test_interval_degenerate_and_order():
    h = histogram([1.0, 2.0], bin_origin=0.0, bin_width=1.0)
    assert interval_probability(h, 1.3, 1.3) == 0.0
    with pytest.raises(ValueError):
        interval_probability(h, 2.0, 1.0)


def test_interval_full_range_anchored():
    rng = np.random.Generator(np.random.PCG64(5))
    samples = rng.normal(25.0, 4.0, size=500)
    h = anchored_histogram(samples, bin_width=1.0)
    assert interval_probability(h, samples.min(), samples.max()) == 1.0


@settings(max_examples=200, deadline=None)
@given(sample_lists, st.floats(-600, 600), st.floats(-600, 600))
def test_interval_difference_identity_exact(samples, a, b):
    """F(theta, theta') == F(t_min, theta') - F(t_min, theta), bit for bit."""
    h = histogram(samples)
    t_min = h.bin_origin
    theta, theta_prime = sorted([max(a, t_min), max(b, t_min)])
    left = interval_probability(h, theta, theta_prime)
    right = interval_probability(h, t_min, theta_prime) - interval_probability(h, t_min, theta)
    assert left == right


@settings(max_examples=100, deadline=None)
@given(sample_lists, st.floats(-600, 600), st.floats(0, 50), st.floats(0, 50))
# nine bins: numpy's pairwise sum of all nine exceeds the plain sum of the first eight
@example(samples=[0, 0, 0, 0, 0, 1, 1, 3, -5], start=0, w1=2, w2=1)
def test_interval_monotone(samples, start, w1, w2):
    h = histogram(samples)
    inner = interval_probability(h, start, start + w1)
    outer = interval_probability(h, start - w2, start + w1 + w2)
    assert outer >= inner


# ------------------------------------------------------------------ kernel

def unit_kernel(u):
    """The standard Gaussian kernel at u: a one-sample KDE at 0 with bandwidth 1."""
    return kde_values(KdeEstimator([0.0], 1.0), np.atleast_1d(u))


def test_kernel_closed_form_values():
    got = unit_kernel([0.0, 1.0])
    assert got[0] == pytest.approx(0.3989422804014327, abs=1e-16)
    assert got[1] == pytest.approx(0.24197072451914337, abs=1e-16)


@given(st.floats(-30, 30))
def test_kernel_symmetry(u):
    assert unit_kernel(u) == unit_kernel(-u)
    assert unit_kernel(u) <= unit_kernel(0.0)


# --------------------------------------------------------------------- kde

def test_kde_single_sample_peak():
    est = KdeEstimator([4.0], bandwidth=0.7)
    assert kde_at(est, 4.0) == pytest.approx(1.0 / (0.7 * math.sqrt(2 * math.pi)), rel=1e-15)


def test_kde_two_sample_oracle():
    est = KdeEstimator([0.0, 10.0], bandwidth=1.0)
    assert kde_at(est, 5.0) == pytest.approx(kde_oracle([0.0, 10.0], 1.0, 5.0), abs=1e-16)


def test_kde_matches_bruteforce_oracle():
    rng = np.random.Generator(np.random.PCG64(11))
    for trial in range(20):
        n = int(rng.integers(1, 40))
        samples = rng.normal(20.0, 5.0, size=n)
        w = float(rng.uniform(0.1, 3.0))
        est = KdeEstimator(samples, w)
        for x in rng.uniform(0.0, 40.0, size=5):
            assert abs(kde_at(est, float(x)) - kde_oracle(samples.tolist(), w, float(x))) < 1e-12


def test_kde_integrates_to_one():
    rng = np.random.Generator(np.random.PCG64(3))
    samples = rng.normal(30.0, 10.0, size=200)
    w = silverman_bandwidth(samples)
    est = KdeEstimator(samples, w)
    xs = np.linspace(samples.min() - 8 * w, samples.max() + 8 * w, 10_000)
    integral = np.trapezoid(kde_values(est, xs), xs)
    assert abs(integral - 1.0) < 1e-6


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=20), st.floats(0.1, 5))
def test_kde_permutation_invariant_and_nonnegative(samples, w):
    a = KdeEstimator(samples, w)
    b = KdeEstimator(samples[::-1], w)
    xs = np.linspace(min(samples) - 1, max(samples) + 1, 13)
    va, vb = kde_values(a, xs), kde_values(b, xs)
    assert (va >= 0).all()
    assert (va == vb).all()


odd_points = st.one_of(
    st.floats(-1e4, 1e4),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 0.0, -0.0]),
)


def windowed_points(samples, w, points, edge, extra, far, cull):
    """The samples with extra uniform draws, and query points edge, cull and
    far bandwidths outside the sample range and far from single samples."""
    lo, hi = min(samples), max(samples)
    rng = np.random.Generator(np.random.PCG64(extra))
    samples = samples + list(rng.uniform(lo - 40 * w, hi + 40 * w, extra))
    near = [lo - edge * w, hi + edge * w, lo - cull * w, lo - far * w, hi + far * w]
    near += [s + far * w * rng.choice([-1.0, 1.0]) for s in samples[:8]]
    return samples, np.array(points + near)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(-200, 200), min_size=1, max_size=40),
    st.floats(-6, 3),
    st.lists(odd_points, max_size=30),
    st.floats(11, 14),
    st.integers(0, 400),
    st.floats(11, 13),
)
# at 0: kept terms (u = 11.9, 12 - 1e-9, 12.0) and cut ones (u = 12 + 1e-9,
# 12.5); at 500: only cut terms
@example(
    samples=[0.0, 11.9, 12.0 - 1e-9, 12.0, 12.0 + 1e-9, 12.5, 1e3], log10_h=0.0,
    points=[0.0, 5e2], edge=12.0, extra=0, far=12.0,
)
# points 12, 12.5 and 13 bandwidths beyond the extreme samples: the last
# one sits on the point cull's edge, where every term is cut
@example(
    samples=[0.0, 1.0], log10_h=-1.0, points=[-1.2, 2.25, -1.3, 2.3], edge=13.0, extra=0,
    far=12.5,
)
def test_kde_values_bit_identical_to_unwindowed_sum(samples, log10_h, points, edge, extra, far):
    """At KERNEL_SUPPORT: bandwidths 1e-6..1e3, unsorted and far-off points,
    NaN/inf, points 11-14 bandwidths outside the sample range and on the
    point cull's edge, up to 440 samples (numpy sums rows of more than 128
    pairwise), and points 11-13 bandwidths from a sample, whose terms are
    kept or cut."""
    w = 10.0**log10_h
    samples, pts = windowed_points(samples, w, points, edge, extra, far, KERNEL_SUPPORT + 1)
    got = kde_values(KdeEstimator(samples, w), pts)
    want = kde_unwindowed(samples, w, pts, support=KERNEL_SUPPORT)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(-200, 200), min_size=1, max_size=40),
    st.floats(-6, 3),
    st.lists(odd_points, max_size=30),
    st.floats(30, 45),
    st.integers(0, 400),
    st.floats(37, 39),
)
# at 0: normal, subnormal (u = 37.9, 38.3) and zero (u = 38.7) terms; at 500: only zeros
@example(
    samples=[0.0, 37.9, 38.3, 38.7, 1e3], log10_h=0.0, points=[0.0, 5e2],
    edge=30.0, extra=0, far=37.0,
)
# exp(-745.06) is the smallest subnormal, which a 1e-6 bandwidth scales up
@example(samples=[0.0, 0.0], log10_h=-6.0, points=[38.602e-6], edge=30.0, extra=0, far=37.0)
def test_kde_values_at_underflow_support_bit_identical_to_unwindowed_sum(
    samples, log10_h, points, edge, extra, far
):
    """At UNDERFLOW_SUPPORT every term is exp's own result, as in the sum
    with no cut: points 37-39 bandwidths from a sample, whose terms are
    subnormal or exactly 0.0, and about 39-40 bandwidths outside the range."""
    w = 10.0**log10_h
    samples, pts = windowed_points(samples, w, points, edge, extra, far, UNDERFLOW_SUPPORT + 1)
    got = kde_values(KdeEstimator(samples, w), pts, support=UNDERFLOW_SUPPORT)
    assert got.tobytes() == kde_unwindowed(samples, w, pts).tobytes()


def test_kde_values_memory_bounded_on_a_300x300_region():
    rng = np.random.Generator(np.random.PCG64(4))
    samples = rng.normal(40.0, 3.0, size=300 * 300)
    est = KdeEstimator(samples, silverman_bandwidth(samples))
    pts = DEFAULT_GRID.points()
    tracemalloc.start()
    try:
        got = kde_values(est, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    want = np.concatenate(
        [kde_unwindowed(est.samples, est.bandwidth, [p], support=KERNEL_SUPPORT) for p in pts]
    )
    assert got.tobytes() == want.tobytes()
    full = kde_values(est, pts, support=UNDERFLOW_SUPPORT)
    want = np.concatenate([kde_unwindowed(est.samples, est.bandwidth, [p]) for p in pts])
    assert full.tobytes() == want.tobytes()


def test_kde_estimator_validation():
    with pytest.raises(ValueError):
        KdeEstimator([], 1.0)
    with pytest.raises(ValueError):
        KdeEstimator([1.0], 0.0)
    with pytest.raises(ValueError):
        KdeEstimator([np.inf], 1.0)
    with pytest.raises(ValueError, match=r"2 bandwidths for samples of shape \(3, 4\)"):
        KdeEstimator(np.ones((3, 4)), [1.0, 2.0])  # a stack needs one per row
    # one set keeps its 1-D samples and gives 1-D densities; a stack, rows
    est = KdeEstimator([3.0, 1.0, 2.0], 0.5)
    assert est.samples.tolist() == [1.0, 2.0, 3.0] and est.n_samples == 3
    assert kde_values(est, [1.0, 2.0]).shape == (2,)
    stack = KdeEstimator([[3.0, 1.0], [2.0, 4.0]], np.array([0.5, 1.0]))
    assert stack.samples.tolist() == [[1.0, 3.0], [2.0, 4.0]] and stack.n_samples == 4
    assert kde_values(stack, [1.0, 2.0, 3.0]).shape == (2, 3)


# --------------------------------------------------------------- bandwidth

def test_silverman_unit_std_n100():
    rng = np.random.Generator(np.random.PCG64(0))
    x = rng.uniform(-2, 2, size=100)
    x = (x - x.mean()) / np.std(x, ddof=1)  # exact unit sample std
    # uniform-ish spread keeps the IQR guard inactive
    assert np.percentile(x, 75) - np.percentile(x, 25) > 1.34
    w = silverman_bandwidth(x)
    assert w == pytest.approx(1.06 * 100 ** (-0.2), rel=1e-12)
    assert w == pytest.approx(0.4220, abs=5e-5)


def test_silverman_floor_for_constant_samples():
    assert silverman_bandwidth([3.0] * 10) == 1e-6


def test_silverman_scale_homogeneity():
    rng = np.random.Generator(np.random.PCG64(2))
    x = rng.uniform(0, 1, size=50)
    for c in (2.0, 10.0, 0.5):
        assert silverman_bandwidth(c * x) == pytest.approx(c * silverman_bandwidth(x), rel=1e-12)


def test_silverman_needs_two_samples():
    with pytest.raises(ValueError):
        silverman_bandwidth([1.0])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 1000),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["normal", "wide", "ties", "constant"]),
    st.floats(-1e3, 1e3),
    st.floats(-8, 4),
)
def test_silverman_bandwidth_bit_equals_np_std_formula(n, seed, kind, loc, log10_scale):
    rng = np.random.Generator(np.random.PCG64(seed))
    scale = 10.0**log10_scale
    x = {
        "normal": lambda: rng.normal(loc, scale, n),
        "wide": lambda: rng.lognormal(0.0, 8.0, n) * rng.choice([-1.0, 1.0], n),
        "ties": lambda: loc + scale * rng.integers(0, 4, n),
        "constant": lambda: np.full(n, loc),
    }[kind]()
    s = np.sort(x)
    q75, q25 = np.percentile(s, [75.0, 25.0])
    scale = min(float(np.std(s, ddof=1)), (q75 - q25) / 1.34)
    want = max(1.06 * scale * n ** (-0.2), 1e-6)
    assert np.float64(silverman_bandwidth(x)).tobytes() == np.float64(want).tobytes()


def test_sorted_quantile_bit_equals_numpy_percentile():
    """Each row of a sorted stack of four draws per length gets the bytes of
    np.percentile of that row alone."""
    rng = np.random.Generator(np.random.PCG64(6))
    for n in range(2, 1001):
        draws = np.sort([
            rng.normal(30.0, 4.0, n),
            rng.lognormal(0.0, 8.0, n) * rng.choice([-1.0, 1.0], n),  # inexact b - a
            rng.integers(20, 24, n).astype(np.float64),  # ties
            np.full(n, 25.3),  # constant
        ], axis=1)
        for q in (0.25, 0.75):
            got = np.array(_sorted_quantile(draws, q))
            want = [np.percentile(x, 100 * q) for x in draws]
            assert got.tobytes() == np.array(want).tobytes(), (n, q)


# ------------------------------------------------------------ feature grid

def test_grid_points_and_step():
    grid = FeatureGrid(-20.0, 120.0, 128)
    pts = grid.points()
    assert pts.shape == (128,)
    assert pts[0] == -20.0 and pts[-1] == 120.0
    assert pts.tobytes() == np.linspace(-20.0, 120.0, 128).tobytes()
    assert grid.points() is pts and not pts.flags.writeable  # built once, shared
    assert grid.step == pytest.approx((120.0 + 20.0) / 127)
    with pytest.raises(ValueError):
        FeatureGrid(5.0, 5.0, 10)
    with pytest.raises(ValueError):
        FeatureGrid(0.0, 1.0, 1)


# ---------------------------------------------------------- feature vector

def test_feature_vector_peak_at_sample():
    grid = FeatureGrid(-5.0, 5.0, 101)
    feat = feature_vector([0.0], grid, bandwidth=1.0)
    assert int(np.argmax(feat.values)) == 50


def test_feature_vector_matches_pointwise_oracle():
    samples = [3.0, 4.5, 10.0, 11.2, 12.0]
    grid = FeatureGrid(0.0, 20.0, 16)
    feat = feature_vector(samples, grid, bandwidth=0.9)
    raw = np.array([kde_oracle(samples, 0.9, x) for x in grid.points()])
    expected = raw / (raw.sum() * grid.step)
    assert_allclose(feat.values, expected, rtol=0, atol=1e-12)
    assert feat.values.sum() * grid.step == pytest.approx(1.0, abs=1e-9)


def test_feature_vector_permutation_invariant():
    grid = FeatureGrid(0.0, 10.0, 32)
    a = feature_vector([1.0, 2.0, 7.0], grid, bandwidth=0.5)
    b = feature_vector([7.0, 1.0, 2.0], grid, bandwidth=0.5)
    assert (a.values == b.values).all()


def test_feature_vector_auto_shift_consistency():
    rng = np.random.Generator(np.random.PCG64(9))
    samples = rng.normal(30.0, 2.0, size=120)
    grid = FeatureGrid(0.0, 100.0, 101)  # step 1.0
    shift = 20.0
    a = feature_vector(samples, grid, bandwidth="auto")
    b = feature_vector(samples + shift, grid, bandwidth="auto")
    assert b.bandwidth == pytest.approx(a.bandwidth, rel=1e-12)
    assert int(np.argmax(b.values)) - int(np.argmax(a.values)) == int(shift / grid.step)


def test_feature_vector_guards():
    grid = FeatureGrid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        feature_vector([], grid)
    with pytest.raises(ValueError):
        feature_vector([1.0], grid, bandwidth=-1.0)
    with pytest.raises(ValueError):
        feature_vector([1e6], grid, bandwidth=0.1)  # grid far from samples
    for h, samples in itertools.product([math.inf, math.nan], [[1.0, 2.0], [[1.0], [2.0]]]):
        with pytest.raises(ValueError, match=f'"auto" or a positive finite number, got {h}'):
            feature_vector(samples, grid, bandwidth=h)
    # any array that is not 2-D is one region: a PdfFeature with a float
    # bandwidth, the bytes of its one-row stack
    x = np.array([0.2, 0.3, 0.5, 0.6])
    values, bandwidths = feature_vector(x[None], grid)
    assert not values.flags.writeable
    for samples in (x, list(x), x.reshape(2, 1, 2)):
        feat = feature_vector(samples, grid)
        assert type(feat.bandwidth) is float and type(silverman_bandwidth(samples)) is float
        assert not feat.values.flags.writeable
        assert feat.values.tobytes() == values[0].tobytes()
        assert np.float64(feat.bandwidth).tobytes() == bandwidths.tobytes()
    assert feature_vector([0.5], grid, bandwidth=0.1).bandwidth == 0.1


def test_feature_vector_bit_identical_to_full_grid_formula():
    """Every feature of the default synthetic dataset, seeds 0-4, as the
    pipeline extracts it, against Silverman's rule with np.std and
    np.percentile and the unwindowed KDE on all grid points, cut at
    KERNEL_SUPPORT unless the bound sends it to the full support; seed 0
    also on a 64-point grid with a fixed bandwidth."""
    runs = [(seed, DEFAULT_GRID, "auto") for seed in range(5)]
    runs.append((0, FeatureGrid(-20.0, 120.0, 64), 0.8))
    for seed, grid, bandwidth in runs:
        cfg = ExperimentConfig(
            synth=default_synth_config(), seed=seed, grid=grid, bandwidth=bandwidth
        )
        manifest, features = extract_features(cfg, feature_vector)
        images, _ = synthesize(default_synth_config(seed=seed))
        by_id = {img.source_id: img for img in images}
        for split, (values, bandwidths) in features.items():
            regions = getattr(manifest, split)
            assert len(values) == len(bandwidths) == len(regions) > 0
            for region, row, got_w in zip(regions, values, bandwidths):
                x = np.sort(extract_region(by_id[region.image_ref], region.bbox))
                w = silverman_reference(x) if bandwidth == "auto" else bandwidth
                assert got_w == w
                assert row.tobytes() == reference_values(x, w, grid).tobytes()


def test_kernel_support_constants():
    assert (KERNEL_SUPPORT, UNDERFLOW_SUPPORT, TRUNCATION_TOLERANCE) == (12.0, 39.0, 2.0**-60)
    # the Gaussian is 0.0 in float64 beyond 38.6 bandwidths, so the
    # underflow support cuts no term that exp would keep
    assert np.exp(-0.5 * 38.5**2) > 0.0
    assert np.exp(-0.5 * 38.7**2) == 0.0


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 300),
    st.integers(0, 2**32 - 1),
    st.floats(-3, 1),
    st.floats(0, 1),
    st.one_of(st.just("auto"), st.floats(-3, 0.5).map(lambda e: 10.0**e)),
)
# a normal region whose outliers alone reach the grid: the guard falls back
@example(n=256, seed=0, log10_spread=math.log10(0.08), offset=0.5, bandwidth="auto")
# a wide region: the truncated feature is kept
@example(n=256, seed=0, log10_spread=0.5, offset=0.5, bandwidth="auto")
def test_feature_vector_within_its_bound_of_the_full_support_feature(
    n, seed, log10_spread, offset, bandwidth
):
    """Normal regions of 1-300 pixels centred anywhere between two grid
    points, spreads 0.001-10 C, Silverman or fixed bandwidths: a kept
    truncated feature is the cut KDE's bytes and lies within its bound of
    the full-support feature; a feature the guard rejects is the
    full-support feature's bytes."""
    grid = DEFAULT_GRID
    rng = np.random.Generator(np.random.PCG64(seed))
    center = grid.points()[60] + offset * grid.step
    x = np.sort(rng.normal(center, 10.0**log10_spread, n))
    w = bandwidth
    if w == "auto":
        w = silverman_reference(x) if n >= 2 else 1e-6
    if not kde_unwindowed(x, w, grid.points()).sum() > 0.0:
        with pytest.raises(ValueError, match="is 0 at every grid point"):
            feature_vector(x, grid, bandwidth)
        return
    got = feature_vector(x, grid, bandwidth).values
    want = full_support_values(x, w, grid)
    raw, mass, bound = truncated_feature(x, w, grid)
    if bound <= 2.0**-60:
        assert got.tobytes() == (raw / mass).tobytes()
        assert (np.abs(got - want) <= bound).all()
    else:
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "side, spread, cut_mass",
    [
        (16, 0.08, "outliers"),  # h = 0.028, its nearest grid point 19.4 h away
        (300, 0.08, "zero"),  # h = 0.0087
        (300, 0.1, "outliers"),  # h = 0.011
    ],
)
def test_near_uniform_region_falls_back_to_the_full_support(side, spread, cut_mass):
    """A normal region mid-way between two grid points, so narrow that the
    12-bandwidth kernel reaches the grid from at most a few outlier pixels
    or from none: cut there, the region would fail to extract or get a
    feature built from those pixels. The guard evaluates it again at the
    full support, so it extracts with the full-support feature's bytes."""
    grid = DEFAULT_GRID
    pts = grid.points()
    rng = np.random.Generator(np.random.PCG64(0))
    x = np.sort(rng.normal((pts[45] + pts[46]) / 2, spread, side * side))
    w = silverman_reference(x)
    raw, mass, bound = truncated_feature(x, w, grid)
    near = sum(int((np.abs(x - p) <= KERNEL_SUPPORT * w).sum()) for p in pts)
    if cut_mass == "zero":
        assert mass == 0.0 and near == 0
    else:
        assert 0.0 < mass and 0 < near <= 2 and bound > 2.0**-60
    feat = feature_vector(x)
    assert feat.bandwidth == w
    assert feat.values.tobytes() == full_support_values(x, w, grid).tobytes()


def full_support_feature(stack, grid, bandwidth):
    """A featurize for extract_features with no term of the kernel cut."""
    rows = np.sort(np.asarray(stack, dtype=np.float64), axis=1)
    ws = [silverman_reference(x) if bandwidth == "auto" else bandwidth for x in rows]
    return np.stack([full_support_values(x, w, grid) for x, w in zip(rows, ws)]), np.array(ws)


def test_posterior_labels_from_truncated_features_equal_full_support_ones():
    """Seeds 0-4, supervised and weak: a model fitted on the pipeline's
    features labels every region as one fitted on full-support features,
    though about a quarter of the feature values differ between the two."""
    changed = 0
    for seed in range(5):
        cfg = ExperimentConfig(synth=default_synth_config(), seed=seed)
        manifest, cut = extract_features(cfg, feature_vector)
        _, full = extract_features(cfg, full_support_feature)
        for split in SPLITS:
            changed += int((cut[split][0] != full[split][0]).sum())
        for mode in (MODE_SUPERVISED, MODE_WEAK):
            labels = []
            for feats in (cut, full):
                labeled = list(zip((r.subcategory for r in manifest.labeled), feats["labeled"][0]))
                unlabeled = feats["unlabeled"][0]
                model = fit_model(labeled, unlabeled, mode, cfg.alpha, cfg.refine_iters)
                vectors = np.concatenate([feats[split][0] for split in SPLITS])
                labels.append(posterior(vectors, model).predicted)
            assert labels[0] == labels[1]
    assert changed > 50_000  # of 256,000


def test_feature_vector_degenerate_region_names_bandwidth_and_step():
    """A constant region and a 1-pixel region both fall back to the 1e-6
    bandwidth, far below the grid step: no grid point sees any density,
    at the kernel support or at the full one."""
    for samples in ([25.0] * 64, [25.0]):
        with pytest.raises(ValueError) as exc:
            feature_vector(samples)
        assert str(exc.value) == (
            f"bandwidth 1e-06 is too small for the feature grid step {DEFAULT_GRID.step!r}:"
            " the density of the samples [25.0, 25.0] is 0 at every grid point"
        )
    with pytest.raises(ValueError, match="does not overlap"):
        feature_vector([500.0, 501.0])


def test_pdf_feature_serialization_round_trip():
    grid = FeatureGrid(-20.0, 120.0, 16)
    feat = feature_vector([10.0, 30.0, 31.0], grid, bandwidth=2.0)
    doc = feat.to_dict()
    assert set(doc) == {"values", "bandwidth"}
    assert doc["bandwidth"] == feat.bandwidth
    values = read_features([doc], grid)
    assert (values[0] == feat.values).all()


def test_read_features_rows_are_the_bytes_of_each_feature():
    """The bulk reader against the features it reads: the same value bytes,
    row by row; no features give no rows, which allocate nothing even on a
    huge grid."""
    grid = FeatureGrid(-20.0, 120.0, 16)
    rng = np.random.Generator(np.random.PCG64(4))
    feats = [feature_vector(rng.normal(30.0, 3.0, 50), grid) for _ in range(6)]
    docs = json.loads(json.dumps([f.to_dict() for f in feats]))
    values = read_features(docs, grid)
    assert values.shape == (6, 16)
    for row, f in zip(values, feats):
        assert row.tobytes() == f.values.tobytes()
    assert read_features([], grid).shape == (0, 16)
    assert read_features([], FeatureGrid(0.0, 1.0, 10**15)).nbytes == 0


SIX_GRID = FeatureGrid(-20.0, 120.0, 16)


def _six_feature_docs() -> list:
    """Six feature dicts on SIX_GRID."""
    rng = np.random.Generator(np.random.PCG64(4))
    feats = [feature_vector(rng.normal(30.0, 3.0, 50), SIX_GRID) for _ in range(6)]
    return json.loads(json.dumps([f.to_dict() for f in feats]))


@pytest.mark.parametrize(
    "bad", ["x", "0.5", True, False, {}, [0.5]], ids=["x", "0.5", "true", "false", "{}", "[0.5]"]
)
def test_read_features_names_a_value_fault_before_a_later_grid_fault(bad):
    """Each dict is checked and its values decoded in file order, so a
    non-numeric value of dict 2 is named before dict 5's grid key, which a
    feature may not hold."""
    docs = _six_feature_docs()
    docs[2]["values"][7] = bad
    docs[5]["t_lo"] = 10.0
    message = "^feature 2: feature 'values' must be an array of numbers$"
    with pytest.raises(ValueError, match=message):
        read_features(docs, SIX_GRID)


def test_read_features_checks_finite_and_non_negative_after_structure():
    """A null (NaN) or negative value is named only once every dict has
    its keys and shape: the key fault of dict 5 comes first."""
    docs = _six_feature_docs()
    docs[2]["values"][7], docs[3]["values"][7] = None, -1.0
    docs[5]["t_lo"] = 10.0
    with pytest.raises(ValueError, match="^feature 5: unknown feature key\\(s\\): 't_lo';"):
        read_features(docs, SIX_GRID)
    del docs[5]["t_lo"]
    with pytest.raises(ValueError, match="^feature 2: feature 'values' must be finite numbers$"):
        read_features(docs, SIX_GRID)
    docs[2]["values"][7] = 0.0
    with pytest.raises(ValueError, match="^feature 3: density values must be non-negative$"):
        read_features(docs, SIX_GRID)


def test_feature_grid_dict_round_trip():
    grid = FeatureGrid(-20.0, 120.0, 16)
    assert grid.to_dict() == {"t_lo": -20.0, "t_hi": 120.0, "n_points": 16}
    assert FeatureGrid.from_dict(grid.to_dict()) == grid
    # the grid reads exactly its own keys, so an older flat feature dict is not a grid
    feat = feature_vector([10.0, 30.0, 31.0], grid, bandwidth=2.0)
    with pytest.raises(ValueError, match="unknown grid key\\(s\\): 'bandwidth', 'values';"):
        FeatureGrid.from_dict({**grid.to_dict(), **feat.to_dict()})


GOOD_GRID = {"t_lo": -20.0, "t_hi": 120.0, "n_points": 16}


def grid_through(reader: str, grid: dict) -> FeatureGrid:
    """grid as the experiment config's "grid", model.json's "grid" or a
    feature file's "grid", read back by that reader; the feature file is
    features.json in the working directory."""
    if reader == "experiment grid":
        return ExperimentConfig.from_dict({"data": {"manifest": "m.json"}, "grid": grid}).grid
    if reader == "model grid":
        model = build_model([(c, [0.0, 1.0]) for c in SUBCATEGORIES[:2]])
        doc = model_to_dict(model, FeatureGrid(**GOOD_GRID), None)
        return model_from_dict({**doc, "grid": grid})[1]
    path = Path("features.json")
    path.write_text(json.dumps({"grid": grid, "records": []}), encoding="utf-8")
    return _load_records(path)[2]


@pytest.mark.parametrize(
    "reader, prefix, unknown",
    [
        (
            "experiment grid", "experiment grid",
            "unknown experiment grid key(s): 'step'; expected: t_lo, t_hi, n_points",
        ),
        (
            "model grid", "model grid",
            "unknown model grid key(s): 'step'; expected: t_lo, t_hi, n_points",
        ),
        (
            "feature file", "feature file features.json: grid",
            "feature file features.json: unknown grid key(s): 'step';"
            " expected: t_lo, t_hi, n_points",
        ),
    ],
)
def test_every_grid_reader_gives_the_same_messages(reader, prefix, unknown, tmp_path, monkeypatch):
    """FeatureGrid.from_dict is the one reader of the grid keys: each of its
    callers reads a good grid and names a missing key, an unknown key and a
    value of the wrong JSON type as it did when each checked the keys itself."""
    monkeypatch.chdir(tmp_path)
    assert grid_through(reader, GOOD_GRID) == FeatureGrid(**GOOD_GRID)
    missing = {k: v for k, v in GOOD_GRID.items() if k != "n_points"}
    for grid, message in [
        (missing, f"{prefix} needs key(s): 'n_points'"),
        ({**GOOD_GRID, "step": 1.1}, unknown),
        ({**GOOD_GRID, "t_lo": "0"}, f"{prefix} 't_lo' must be a number, got '0'"),
        ({**GOOD_GRID, "n_points": 16.0}, f"{prefix} 'n_points' must be an integer, got 16.0"),
    ]:
        with pytest.raises(ValueError) as info:
            grid_through(reader, grid)
        assert str(info.value) == message


def test_feature_grid_scalar_of_the_wrong_json_type_names_its_key():
    good = {"t_lo": -20.0, "t_hi": 120.0, "n_points": 16}
    for key, bad in [
        ("t_lo", [0.0]), ("t_hi", None), ("n_points", {}), ("n_points", float("inf")),
        ("n_points", 16.0), ("t_lo", "-20"), ("n_points", True),
    ]:
        with pytest.raises(ValueError, match=f"grid '{key}' must be"):
            FeatureGrid.from_dict({**good, key: bad})
    doc = feature_vector([10.0, 30.0, 31.0], FeatureGrid(**good), bandwidth=2.0).to_dict()
    with pytest.raises(ValueError, match="feature 0: feature 'bandwidth' must be a number"):
        read_features([{**doc, "bandwidth": [2.0]}], FeatureGrid(**good))


def test_default_grid():
    assert DEFAULT_GRID == FeatureGrid(-20.0, 120.0, 128)


# ------------------------------------------------- noise robustness claim

def test_kde_beats_matched_histogram_on_mixture():
    """Max-abs error of the KDE against a known two-Gaussian mixture is
    below the bin-width-matched histogram's in at least 80% of 50 seeds."""

    def true_pdf(x):
        a = np.exp(-0.5 * np.square(x)) / math.sqrt(2 * math.pi)
        b = np.exp(-0.5 * np.square(x - 4.0)) / math.sqrt(2 * math.pi)
        return 0.5 * a + 0.5 * b

    grid = np.linspace(-4.0, 8.0, 241)
    wins = 0
    for seed in range(50):
        rng = np.random.Generator(np.random.PCG64(seed))
        comp = rng.integers(0, 2, size=1000)
        x = rng.normal(0.0, 1.0, size=1000) + 4.0 * comp
        w = silverman_bandwidth(x)
        kde_err = np.abs(kde_values(KdeEstimator(x, w), grid) - true_pdf(grid)).max()
        h = histogram(x, bin_origin=0.0, bin_width=w)
        idx = np.floor((grid - h.bin_origin) / h.bin_width).astype(int)
        inside = (idx >= 0) & (idx < h.n_bins)
        dens = np.where(inside, h.probs[np.clip(idx, 0, h.n_bins - 1)] / h.bin_width, 0.0)
        hist_err = np.abs(dens - true_pdf(grid)).max()
        wins += int(kde_err < hist_err)
    assert wins >= 40
