"""The benchmark tracer's contract with the library.

``perfbench/tracing.py`` wraps the library functions named in ``TARGETS``
and its count hooks read arguments by name (``bound["samples"]``). A
renamed function or parameter makes traced benchmark runs fail, so the
names are checked here, with the fast tests, instead of by a traced run.
"""

import ast
import importlib
import inspect
import sys
import textwrap
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

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
