"""Reference check for stacked features: a 2-D feature_vector call gives each
row of a stack of equal-size regions the bandwidth and values, byte for byte,
that a separate 1-D call gives that region alone.

Each test prints a single `stack check (...): PASS` / `FAIL` line, as the
acceptance suite does (`pytest tests/test_feature_stacks.py -v -s`). The
1-D calls are themselves checked against the full-grid formula in
tests/test_density.py.
"""

import contextlib
import json

import numpy as np
import pytest

from thermofault import density, harness
from thermofault.density import (
    DEFAULT_GRID,
    KERNEL_SUPPORT,
    UNDERFLOW_SUPPORT,
    FeatureGrid,
    feature_vector,
)
from thermofault.harness import SPLITS, ExperimentConfig, extract_features
from thermofault.images import (
    ThermalImage,
    extract_region,
    load_manifest,
    load_thermal,
    save_thermal,
)
from thermofault.synthetic import default_synth_config, synthesize


@contextlib.contextmanager
def stack_check(label: str):
    try:
        yield
    except BaseException:
        print(f"stack check ({label}): FAIL", flush=True)
        raise
    print(f"stack check ({label}): PASS", flush=True)


def one_at_a_time(rows, grid=DEFAULT_GRID, bandwidth="auto"):
    """The (values, bandwidths) of separate 1-D calls, one per row."""
    feats = [feature_vector(row, grid, bandwidth) for row in rows]
    return np.array([f.values for f in feats]), np.array([f.bandwidth for f in feats])


def assert_same_bytes(got, want):
    assert got[0].shape == want[0].shape and got[1].shape == want[1].shape
    assert got[1].tobytes() == want[1].tobytes()
    assert got[0].tobytes() == want[0].tobytes()


def default_regions(seed: int) -> np.ndarray:
    """The (400, 256) pixels of every region of the default data, manifest order."""
    images, manifest = synthesize(default_synth_config(seed=seed))
    by_id = {img.source_id: img for img in images}
    regions = [r for split in SPLITS for r in getattr(manifest, split)]
    return np.array([extract_region(by_id[r.image_ref], r.bbox) for r in regions])


def near_uniform_region(seed: int, side: int = 16, spread: float = 0.08) -> np.ndarray:
    """A normal region mid-way between two grid points, so narrow that its
    feature falls back to UNDERFLOW_SUPPORT (see tests/test_density.py)."""
    pts = DEFAULT_GRID.points()
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.normal((pts[45] + pts[46]) / 2, spread, side * side)


def test_stacks_of_the_default_data_equal_one_region_calls():
    """Seeds 0-19: the whole 400-region stack and the 32-region stacks that
    extract_features makes; seed 0 also on a 64-point grid at a fixed
    bandwidth."""
    with stack_check("default data, seeds 0-19"):
        for seed in range(20):
            x = default_regions(seed)
            want = one_at_a_time(x)
            assert_same_bytes(feature_vector(x), want)
            parts = [feature_vector(x[i : i + 32]) for i in range(0, len(x), 32)]
            assert_same_bytes(tuple(np.concatenate(p) for p in zip(*parts)), want)
        grid = FeatureGrid(-20.0, 120.0, 64)
        x = default_regions(0)
        assert_same_bytes(feature_vector(x, grid, 0.8), one_at_a_time(x, grid, 0.8))


def test_permuted_stacks_permute_their_rows():
    with stack_check("permuted rows"):
        x = default_regions(3)
        want = one_at_a_time(x)
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(len(x))
            got = feature_vector(x[order])
            assert_same_bytes(got, (want[0][order], want[1][order]))


def test_a_row_that_falls_back_to_the_full_support_keeps_its_bytes(monkeypatch):
    """Two near-uniform rows among ordinary ones: one more kde_values call
    at UNDERFLOW_SUPPORT evaluates those two rows only."""
    with stack_check("fallback rows"):
        x = default_regions(0)[:6].copy()
        x[1] = near_uniform_region(0)
        x[4] = near_uniform_region(1)
        calls = []
        original = density.kde_values

        def recording(est, points, support=KERNEL_SUPPORT):
            calls.append((support, len(est.samples)))
            return original(est, points, support)

        monkeypatch.setattr(density, "kde_values", recording)
        got = feature_vector(x)
        assert calls == [(KERNEL_SUPPORT, 6), (UNDERFLOW_SUPPORT, 2)]
        monkeypatch.undo()
        assert_same_bytes(got, one_at_a_time(x))


def test_a_stack_of_one_region_is_computed_as_a_one_region_call(monkeypatch):
    """A (1, n) stack, as a region whose pixel count no other region shares
    gives, takes the 1-D path (kde_values gets 1-D samples, the fallback
    too) and returns that call's bytes as a one-row stack."""
    with stack_check("stacks of one"):
        ndims = []
        original = density.kde_values

        def recording(est, points, support=KERNEL_SUPPORT):
            ndims.append(est.samples.ndim)
            return original(est, points, support)

        monkeypatch.setattr(density, "kde_values", recording)
        rows = [default_regions(0)[0], near_uniform_region(0)]
        got = [feature_vector(row[None]) for row in rows]
        assert ndims == [1, 1, 1]  # the near-uniform region falls back
        monkeypatch.undo()
        for row, (values, bandwidths) in zip(rows, got):
            assert_same_bytes((values, bandwidths), one_at_a_time([row]))


@pytest.mark.parametrize("bad", ["constant", "nan"])
def test_a_stack_with_a_failing_row_raises_that_rows_error(bad):
    """A constant row has no density on the grid; a NaN row is not finite.
    The stack raises the message the row raises alone."""
    with stack_check(f"{bad} row"):
        x = default_regions(0)[:5].copy()
        if bad == "constant":
            x[2] = 25.0
        else:
            x[2, 17] = np.nan
        with pytest.raises(ValueError) as alone:
            feature_vector(x[2])
        with pytest.raises(ValueError) as stacked:
            feature_vector(x)
        assert str(stacked.value) == str(alone.value)
        expected = {
            "constant": "the density of the samples [25.0, 25.0] is 0 at every grid point",
            "nan": "samples must be finite",
        }[bad]
        assert expected in str(alone.value)


@pytest.mark.parametrize("stack_samples", [None, 40])
def test_a_mixed_size_manifest_extracts_each_region_as_alone(tmp_path, monkeypatch, stack_samples):
    """Regions of 7, 15, 16 and 36 pixels (16 in four shapes) over three
    images, in every split: each row of extract_features is the region's
    1-D feature, in manifest order: computed at the end, or, with
    stack_samples, after each image whose regions bring the pending ones to
    40 pixels."""
    with stack_check(f"mixed-size manifest, stack_samples {stack_samples}"):
        if stack_samples is not None:
            monkeypatch.setattr(harness, "STACK_SAMPLES", stack_samples)
        rng = np.random.default_rng(7)
        names = ("a", "b", "c")
        for name in names:
            temps = rng.normal(20.0 + 10.0 * rng.random(), 2.0, (24, 24))
            save_thermal(ThermalImage(24, 24, temps, name), tmp_path / f"{name}.rtm")
        sizes = [(4, 4), (8, 2), (2, 8), (5, 3), (6, 6), (4, 4), (1, 16), (7, 1)]

        def region(i, status):
            w, h = sizes[i % len(sizes)]
            return {"image_ref": names[i % 3], "bbox": [i % 5, i % 7, w, h],
                    "equipment_type": "bushing" if i % 2 else "arrester", "status": status}

        doc = {
            "images": [{"id": name, "path": f"{name}.rtm"} for name in names],
            "labeled": [region(i, "normal") for i in range(0, 16)],
            "unlabeled": [region(i, None) for i in range(16, 24)],
            "test": [region(i, "normal") for i in range(24, 32)],
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        manifest, features = extract_features(
            ExperimentConfig(manifest_path=str(path)), feature_vector
        )
        assert manifest == load_manifest(path)
        images = {name: load_thermal(tmp_path / f"{name}.rtm", name) for name in names}
        for split in SPLITS:
            regions = getattr(manifest, split)
            crops = [extract_region(images[r.image_ref], r.bbox) for r in regions]
            want = [feature_vector(c) for c in crops]
            values, bandwidths = features[split]
            assert len(values) == len(bandwidths) == len(regions) > 0
            assert bandwidths.tobytes() == np.array([f.bandwidth for f in want]).tobytes()
            assert values.tobytes() == np.array([f.values for f in want]).tobytes()
