"""Source checks that need no linter: every imported name is used, no
JSON is written through Python's pure-Python encoder, and every name the
README's library example imports exists."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# The package __init__ imports names to re-export them, so it is left out.
SOURCES = sorted(
    p
    for p in [*(ROOT / "src" / "thermofault").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    if p.name != "__init__.py"
)

PACKAGE = sorted((ROOT / "src" / "thermofault").glob("*.py"))
# json.dump (a stream) and any indent run the pure-Python encoder, not the C one
SLOW_JSON = ("json.dump(", "indent=")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that the module never reads and does not list
    in __all__."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_sources_are_found():
    assert {"cli.py", "harness.py", "bench_pairs.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_reported():
    source = "import os\nimport sys\nfrom typing import Any, List\n__all__ = ['List']\nsys.exit(0)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: Any"]


def slow_json_writes(source: str) -> list[str]:
    return [
        f"line {n}: {pattern}"
        for n, line in enumerate(source.splitlines(), 1)
        for pattern in SLOW_JSON
        if pattern in line
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_slow_json_writes(path):
    assert slow_json_writes(path.read_text(encoding="utf-8")) == []


def test_a_slow_json_write_is_reported():
    assert {"cli.py", "taxonomy.py", "__init__.py"} <= {p.name for p in PACKAGE}
    source = "json.dumps(x)\njson.dump(x, fh)\njson.dumps(x, indent=2)\n"
    assert slow_json_writes(source) == ["line 2: json.dump(", "line 3: indent="]


def readme_library_imports() -> list[tuple[str, str]]:
    """(module, name) of each name the README's "Library use" example imports."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = section.split("```python", 1)[1].split("```", 1)[0]
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def test_readme_library_imports_resolve():
    imports = readme_library_imports()
    assert ("thermofault", "run_both") in imports
    missing = [f"{m}.{n}" for m, n in imports if not hasattr(importlib.import_module(m), n)]
    assert missing == []
