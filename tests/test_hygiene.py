"""Source checks that need no linter: every imported name is used, every
private top-level name of the package is read, no JSON is written through
Python's pure-Python encoder, only taxonomy.py creates files, and every
name the README's library example imports exists."""

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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private names (one leading underscore) that a module binds at its
    top level, by def, class or assignment, and that no source reads, as a
    name or as an attribute."""
    bound = []
    read = set()
    for name, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.append((name, node.lineno, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound += [(name, node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [
        f"{name} line {line}: {ident}"
        for name, line, ident in bound
        if ident.startswith("_") and not ident.startswith("__") and ident not in read
    ]


def test_every_private_name_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unread_private_names(sources) == []


def test_an_unread_private_name_is_reported():
    sources = {
        "a.py": "_A = 1\n_B: int = 2\n__all__ = []\ndef _f():\n    return _A\nclass _C: pass\n",
        "b.py": "from a import _f\n_f()\nprint(x._C)\nx._B = _D = 3\n",
    }
    assert unread_private_names(sources) == ["a.py line 2: _B", "b.py line 4: _D"]


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
