"""The benchmark tracer's contract with the library.

``perfbench/tracing.py`` wraps the library functions named in ``TARGETS``
and its count hooks read arguments by name (``bound["samples"]``). A
renamed function or parameter makes traced benchmark runs fail, so the
names are checked here, with the fast tests, instead of by a traced run.
"""

import ast
import dataclasses
import importlib
import inspect
import json
import sys
import textwrap
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import run as bench  # noqa: E402
from perfbench import workloads  # noqa: E402
from perfbench.tracing import TARGETS, Tracer  # noqa: E402


def arguments_read(hook) -> set[str]:
    """The names a hook looks up in its ``bound`` argument mapping."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(hook)))
    return {
        node.slice.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == "bound"
        and isinstance(node.slice, ast.Constant)
    }


def test_every_traced_target_resolves():
    for name, (modname, attr, _) in TARGETS.items():
        fn = getattr(importlib.import_module(modname), attr, None)
        assert callable(fn), f"{name}: {modname}.{attr} is gone"


def test_hooked_functions_keep_the_parameters_their_hooks_read():
    hooked = 0
    for name, (modname, attr, hook) in TARGETS.items():
        if hook is None:
            continue
        read = arguments_read(hook)
        assert read, f"{name}: no argument lookups found in {hook.__name__}"
        params = set(inspect.signature(getattr(importlib.import_module(modname), attr)).parameters)
        assert read <= params, f"{name}: hook reads {sorted(read - params)}, not parameters"
        hooked += 1
    assert hooked >= 5


def test_feature_vector_calls_the_traced_kde_functions():
    """The tracer patches module globals, so feature_vector's spans only nest
    its KDE layers while it looks them up there."""
    from thermofault import density

    tracer = Tracer()
    tracer.install()
    try:
        density.feature_vector(np.random.default_rng(0).normal(30.0, 2.0, 64))
    finally:
        tracer.uninstall()
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [
        ("density.feature_vector", -1),
        ("density.silverman_bandwidth", 0),
        ("density.kde_values", 0),
    ]


def test_a_stacked_feature_vector_call_nests_its_kde_layers():
    """A 2-D stack is one feature_vector span over one silverman_bandwidth
    span and its kde_values spans, and the kde_values hook counts grid
    points x stack pixels, so the traced per-layer numbers of stacked and
    one-region calls compare."""
    from thermofault import density

    stack = np.random.default_rng(1).normal(30.0, 2.0, (5, 64))
    tracer = Tracer()
    tracer.install()
    try:
        values, bandwidths = density.feature_vector(stack)
    finally:
        tracer.uninstall()
    assert values.shape == (5, density.DEFAULT_GRID.n_points) and bandwidths.shape == (5,)
    root = [i for i, s in enumerate(tracer.spans) if s.parent == -1]
    assert [tracer.spans[i].name for i in root] == ["density.feature_vector"]
    assert tracer.spans[root[0]].counts["pixels"] == stack.size
    children = [s for s in tracer.spans if s.parent == root[0]]
    names = [s.name for s in children]
    assert names.count("density.silverman_bandwidth") == 1
    kde = [s for s in children if s.name == "density.kde_values"]
    assert kde and len(names) == 1 + len(kde)
    assert kde[0].counts["kernel_evals"] == density.DEFAULT_GRID.n_points * stack.size


def test_batch_labels_that_differ_from_the_reference_fail_the_run(monkeypatch):
    """The benchmark's reference label check sees what ``classify`` writes:
    a scorer that rotates every label by one class fails the run there,
    not by raising."""
    import thermofault.cli

    default = workloads.default_synth_config
    monkeypatch.setattr(bench, "MIN_SETUP_SAMPLES", 1)
    monkeypatch.setattr(bench, "SETUP_SHARE", 0.0)
    monkeypatch.setattr(
        workloads,
        "default_synth_config",
        lambda seed: dataclasses.replace(
            default(seed), counts={"labeled": 2, "unlabeled": 2, "test": 1}
        ),
    )
    monkeypatch.setattr(workloads.DeskChain, "n_datasets", 1)
    original = thermofault.cli.posterior

    def rotated(vectors, model):
        post = original(vectors, model)
        k = model.n_classes
        wrong = tuple(model.classes[(model.classes.index(c) + 1) % k] for c in post.predicted)
        return dataclasses.replace(post, predicted=wrong)

    monkeypatch.setattr(thermofault.cli, "posterior", rotated)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    argv = ["--workload", "desk_chain", "--seed", "3", "--seconds", "0.2", "--trace", "0"]
    _, details, failures = bench.run(bench.parse_args(argv), spec)
    assert failures and details["ops_failed"] == len(failures)
    assert all("labels differ from the reference" in f for f in failures), failures[:3]
