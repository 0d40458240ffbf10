"""The default-grid CLI chain's outputs against their committed sha256 digests.

    PYTHONPATH=src python tests/test_chain_digests.py

runs the chain (synth --seed 11, extract, train weak, classify) and
rewrites tests/chain_digests.json from this tree, so a change of output
bytes shows as a reviewed diff of that file. The digests hold only on the
platform recorded beside them: the features pass through np.exp and the
distances through BLAS, whose bytes may differ with the numpy build and
the CPU features it dispatches to. On another platform the test skips,
naming both platforms.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import orjson
import pytest

from thermofault.cli import EXIT_OK, main

DIGESTS = Path(__file__).with_name("chain_digests.json")
# The chain's outputs, each digested alone; the RTM files are one output
OUTPUTS = ("data/manifest.json", "features.json", "weak.json", "weak.jsonl")


def platform_key() -> dict:
    """What the chain's bytes may depend on besides the code: the Python,
    numpy and orjson versions, and the CPU's SIMD targets that numpy uses."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # a numpy whose private layout differs
        simd = None
    else:
        simd = sorted(t for t in __cpu_dispatch__ if __cpu_features__.get(t))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "orjson": orjson.__version__,
        "machine": platform.machine(),
        "simd": simd,
    }


def run_chain(root: Path) -> dict[str, str]:
    """Runs the chain in-process, writing into root, and returns the sha256
    of each output: of each file of OUTPUTS, and of the RTM files as one
    (each file's name and digest, a line each, in name order)."""
    for command in (
        ["synth", "--out", root / "data", "--seed", 11],
        ["extract", "--manifest", root / "data" / "manifest.json", "--out", root / "features.json"],
        ["train", "--features", root / "features.json", "--out", root / "weak.json"],
        [
            "classify", "--model", root / "weak.json", "--features", root / "features.json",
            "--out", root / "weak.jsonl",
        ],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([str(a) for a in command]) == EXIT_OK, command
    rtm = "".join(
        f"{p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}\n"
        for p in sorted((root / "data").glob("*.rtm"))
    )
    digests = {"data/*.rtm": hashlib.sha256(rtm.encode()).hexdigest()}
    for name in OUTPUTS:
        digests[name] = hashlib.sha256((root / name).read_bytes()).hexdigest()
    return digests


def test_the_default_chain_writes_the_recorded_bytes(tmp_path):
    """Every output of the chain has the committed digest: a change of one
    byte in any of them fails here."""
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if recorded["platform"] != platform_key():
        pytest.skip(f"digests recorded on {recorded['platform']}, not on {platform_key()}")
    assert run_chain(tmp_path) == recorded["digests"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        doc = {"platform": platform_key(), "digests": run_chain(Path(tmp))}
    DIGESTS.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}", file=sys.stderr)
