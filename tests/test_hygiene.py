"""Source checks that need no linter: every imported name is used, every
module the package imports is declared, every top-level name of the
package is read, no JSON is written through
Python's pure-Python encoder, only taxonomy.py creates files, no package
line is longer than LINE_LIMIT characters, and every name the README's
library example imports exists."""

import ast
import importlib
import re
import sys
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
# Longest package line: the src/ line count can then fall only by deleting
# code, not by packing more of it onto each line
LINE_LIMIT = 100


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


def imported_modules(source: str) -> list[tuple[int, str]]:
    """(line, top-level module) of each absolute import, in a function too."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return sorted(found)


def undeclared_imports(source: str, declared: set[str]) -> list[str]:
    """Imports of a module that is neither in the standard library, the
    package itself, nor in declared."""
    allowed = set(sys.stdlib_module_names) | {"thermofault"} | declared
    return [f"line {n}: {module}" for n, module in imported_modules(source) if module not in allowed]


def declared_dependencies() -> set[str]:
    """The distribution names of pyproject.toml's [project] dependencies."""
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_import_is_declared(path):
    declared = declared_dependencies()
    assert {"numpy", "orjson"} <= declared
    assert undeclared_imports(path.read_text(encoding="utf-8"), declared) == []


def test_an_undeclared_import_is_reported():
    source = (
        "from __future__ import annotations\nimport os.path, numpy\nfrom . import taxonomy\n"
        "from thermofault.images import load_thermal\nimport scipy.stats\n"
        "def f():\n    import orjson\n    from yaml import safe_load\n"
    )
    assert undeclared_imports(source, {"numpy"}) == [
        "line 5: scipy", "line 7: orjson", "line 8: yaml"
    ]


def top_level_names(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each name a module binds at its top level, by def,
    class or assignment."""
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return bound


def read_names(tree: ast.Module, imports: bool) -> set[str]:
    """The names a module reads, as a name or as an attribute, and, if
    imports, the names it imports by name."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif imports and isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_names(bound_in: dict[str, str], read_in: dict[str, str], private: bool) -> list[str]:
    """The private names (one leading underscore), or else the public ones,
    that a module of bound_in binds at its top level and that no module of
    read_in reads. An import by name counts as a read of a public name only:
    the package __init__ imports to re-export, so its import of a private
    name that nothing else reads is still reported."""
    read = set().union(
        *(read_names(ast.parse(source), imports=not private) for source in read_in.values())
    )
    return [
        f"{name} line {line}: {ident}"
        for name, source in bound_in.items()
        for line, ident in top_level_names(ast.parse(source))
        if ident not in read
        and (ident.startswith("_") and not ident.startswith("__") if private else ident[0] != "_")
    ]


def test_every_private_name_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unread_names(sources, sources, private=True) == []


def test_an_unread_private_name_is_reported():
    sources = {
        "a.py": "_A = 1\n_B: int = 2\n__all__ = []\ndef _f():\n    return _A\nclass _C: pass\n",
        "b.py": "from a import _f\n_f()\nprint(x._C)\nx._B = _D = 3\n_E = 4\n",
        "__init__.py": "from .b import _E\n",
    }
    assert unread_names(sources, sources, private=True) == [
        "a.py line 2: _B",
        "b.py line 4: _D",
        "b.py line 5: _E",
    ]


def test_every_public_name_is_read():
    """Each public top-level name of the package (but its __init__, which
    only re-exports) is read somewhere in the package, tests, benchmark or
    scripts."""
    readers = {
        str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
        for d in ("src", "tests", "perfbench", "scripts")
        for p in sorted((ROOT / d).rglob("*.py"))
    }
    assert {"tests/test_hygiene.py", "perfbench/run.py", "scripts/bench_pairs.py"} <= set(readers)
    package = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE if p.name != "__init__.py"}
    assert unread_names(package, readers, private=False) == []


def test_an_unread_public_name_is_reported():
    package = {
        "a.py": "A = 1\nB: int = 2\n_C = 3\ndef f():\n    return A\nclass G: pass\nclass H: pass\n"
    }
    readers = {**package, "b.py": "from a import f\nprint(x.G)\n__all__ = ['B']\n"}
    assert unread_names(package, readers, private=False) == ["a.py line 2: B", "a.py line 7: H"]


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


def long_lines(source: str) -> list[str]:
    return [
        f"line {n}: {len(line)} characters"
        for n, line in enumerate(source.splitlines(), 1)
        if len(line) > LINE_LIMIT
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_line_over_the_limit(path):
    assert long_lines(path.read_text(encoding="utf-8")) == []


def test_a_long_line_is_reported():
    source = "x" * LINE_LIMIT + "\n" + "y" * (LINE_LIMIT + 1) + "\n\u00e9" * LINE_LIMIT
    assert long_lines(source) == [f"line 2: {LINE_LIMIT + 1} characters"]


# Path methods that write a file or make a directory
WRITE_METHODS = ("write_text", "write_bytes", "mkdir")
READ_MODE = set("rbt")


def file_writes(source: str) -> list[str]:
    """Calls that write a file: open or .open with a mode other than reading
    (a mode that is not a constant counts), or a Path's write methods."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in WRITE_METHODS:
            found.append((node.lineno, f".{func.attr}("))
        elif isinstance(func, ast.Name) and func.id == "open" or (
            isinstance(func, ast.Attribute) and func.attr == "open"
        ):
            at = 1 if isinstance(func, ast.Name) else 0  # Path.open takes no path
            mode = [*node.args[at : at + 1], *(k.value for k in node.keywords if k.arg == "mode")]
            if mode and not (
                isinstance(mode[0], ast.Constant) and set(mode[0].value) <= READ_MODE
            ):
                found.append((node.lineno, f"open(..., {ast.unparse(mode[0])})"))
    return [f"line {n}: {call}" for n, call in sorted(found)]


@pytest.mark.parametrize(
    "path", [p for p in PACKAGE if p.name != "taxonomy.py"], ids=lambda p: p.name
)
def test_only_taxonomy_writes_files(path):
    """taxonomy.create_text makes every artifact: UTF-8, "\\n" newlines,
    parent directories made."""
    assert file_writes(path.read_text(encoding="utf-8")) == []


def test_a_file_write_is_reported():
    taxonomy = (ROOT / "src" / "thermofault" / "taxonomy.py").read_text(encoding="utf-8")
    assert file_writes(taxonomy) != []
    source = (
        "open(p)\nopen(p, 'rb')\nopen(p, mode='r')\nPath(p).open()\n"
        "p.mkdir(parents=True)\nopen(p, 'w', encoding='ascii')\nopen(p, mode=m)\n"
        "p.open('ab')\np.write_text(t)\nwrite_text(p, t)\np.write_bytes(b)\n"
    )
    assert file_writes(source) == [
        "line 5: .mkdir(",
        "line 6: open(..., 'w')",
        "line 7: open(..., m)",
        "line 8: open(..., 'ab')",
        "line 9: .write_text(",
        "line 11: .write_bytes(",
    ]


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
