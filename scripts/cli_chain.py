#!/usr/bin/env python3
"""The CLI chain whose artifacts a same-behaviour change leaves byte-identical.

    python3 scripts/cli_chain.py SRC OUT

Runs `python -m thermofault.cli` for each command of COMMANDS in turn, in
the directory OUT (made if missing), with SRC, the directory that holds
the thermofault package (the `src` of a checkout), first on PYTHONPATH.
Stops at the first command that fails and exits with its code. The chain:
synth; extract on the default grid and on a 64-point grid with a fixed
bandwidth; train weak, supervised, through an mlp embedder, and weak on
the 64-point features; classify with each model; eval of both modes; an
alpha sweep.

To check a change, run it on a `git archive` copy of the parent commit
and on the change, into two directories, then compare them with
`diff -r OUT1 OUT2`. A full run takes a few seconds.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

# The chain's command lines, their paths relative to OUT
COMMANDS = [
    ["synth", "--out", "data", "--seed", "11"],
    ["extract", "--manifest", "data/manifest.json", "--out", "features.json"],
    [
        "extract", "--manifest", "data/manifest.json", "--out", "features64.json",
        "--grid-points", "64", "--bandwidth", "0.8",
    ],
    ["train", "--features", "features.json", "--out", "weak.json"],
    ["train", "--features", "features.json", "--out", "supervised.json", "--mode", "supervised"],
    [
        "train", "--features", "features.json", "--out", "mlp.json",
        "--embedder", "mlp", "--seed", "5",
    ],
    ["train", "--features", "features64.json", "--out", "weak64.json"],
    ["classify", "--model", "weak.json", "--features", "features.json", "--out", "weak.jsonl"],
    [
        "classify", "--model", "supervised.json", "--features", "features.json",
        "--out", "supervised.jsonl",
    ],
    [
        "classify", "--model", "mlp.json", "--features", "features.json", "--out", "mlp.jsonl",
        "--embedder-file", "mlp.json.embedder.json",
    ],
    [
        "classify", "--model", "weak64.json", "--features", "features64.json",
        "--out", "weak64.jsonl",
    ],
    ["eval", "--out", "eval_both", "--mode", "both", "--seed", "3"],
    ["eval", "--out", "eval_sweep", "--sweep", "alpha", "--values", "0,0.5,1"],
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, help="directory that holds the thermofault package")
    parser.add_argument("out", type=Path, help="directory to write the chain's artifacts in")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    path = [str(args.src.resolve()), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    for command in COMMANDS:
        code = subprocess.run(
            [sys.executable, "-m", "thermofault.cli", *command], cwd=args.out, env=env
        ).returncode
        if code:
            print(f"exit {code}: thermofault {' '.join(command)}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
