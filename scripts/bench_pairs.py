#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, kept as before/after files.

    python3 scripts/bench_pairs.py --parent REV --tag TAG --seeds 61-70

For each seed and each workload in BENCHMARK.json, runs `perfbench/run.py
--trace 0` at the benchmark's run_seconds once on the parent and once on
the change, alternating which side runs first (even pairs the parent, odd
pairs the change). The change is this checkout's working tree; the parent
is a `git archive` copy of REV in a temporary directory, removed at the
end. Writes BENCH_<TAG>_parent.json and BENCH_<TAG>.json at the repository
root: one entry per run with its workload, seed, order in its pair (0
first, 1 second), exit code and the final JSON line the benchmark printed.
Then prints, per workload, the runs of each side that failed (non-zero exit
or no final JSON line) and, per metric, each side's median and quartiles
over the pairs where both runs succeeded, the pairs the change won (ties
count for neither) and a verdict. "claim met" when the change won at
least nine tenths of all pairs run and its median is better than the
parent's by more than the parent's interquartile range, else "claim not
met"; "WORSE than its bound B" when the change's median is worse than the
parent's by more than the fraction B of it that BENCHMARK.json fixes for
that end-to-end metric. Such a metric is "unresolved" instead when either
side's interquartile range exceeds B times the parent's median, unless
every change run beats every parent run: the runs spread too widely to
tell. Exits 1 if any run failed. Run it from any
directory; of the benchmark it reads only its output and BENCHMARK.json
(workloads, run_seconds and the metric directions and bounds).
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def export_tree(rev: str, dest: Path) -> str:
    """Extract the committed files of rev into dest; returns its full hash."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", commit],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"exit_code": done.returncode, "result": result}


def failed(run: dict) -> bool:
    return run["exit_code"] != 0 or run["result"] is None


def summarize(spec: dict, parent: list[dict], change: list[dict]) -> int:
    """Prints the comparison; returns the number of failed runs on both sides."""
    higher = {m["name"] for m in spec["end_to_end"] if m["better"] == "higher"}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    n_failed = 0
    for workload in dict.fromkeys(r["workload"] for r in parent):
        runs = [(p, c) for p, c in zip(parent, change) if p["workload"] == workload]
        fails = [sum(failed(pair[i]) for pair in runs) for i in (0, 1)]
        n_failed += sum(fails)
        pairs = [(p, c) for p, c in runs if not failed(p) and not failed(c)]
        print(
            f"{workload}: {len(pairs)} of {len(runs)} pairs;"
            f" failed runs: parent {fails[0]}, change {fails[1]}"
        )
        for metric in pairs[0][0]["result"]["metrics"] if pairs else ():
            a = np.array([p["result"]["metrics"][metric]["value"] for p, _ in pairs])
            b = np.array([c["result"]["metrics"][metric]["value"] for _, c in pairs])
            sign = 1.0 if metric in higher else -1.0  # sign * (b - a) > 0: the change is better
            wins = int((sign * (b - a) > 0).sum())
            qa, qb = np.percentile(a, [25, 50, 75]), np.percentile(b, [25, 50, 75])
            gain = sign * (qb[1] - qa[1])
            met = wins >= 0.9 * len(runs) and gain > qa[2] - qa[0]
            verdict = "claim met" if met else "claim not met"
            if metric in bounds:
                limit = bounds[metric] * abs(qa[1])
                spread = max(qa[2] - qa[0], qb[2] - qb[0]) > limit
                if spread and (sign * b).min() <= (sign * a).max():  # not every change run wins
                    verdict = "unresolved"
                elif gain < -limit:
                    verdict += f"; WORSE than its bound {bounds[metric]:g}"
            print(
                f"  {metric:16s} parent {qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}]"
                f"  change {qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}]"
                f"  change/parent {qb[1] / qa[1]:.3f}  change better in {wins}/{len(pairs)}"
                f"  {verdict}"
            )
    return n_failed


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--tag", required=True, help="names the output files BENCH_<tag>*.json")
    ap.add_argument("--seeds", type=seed_range, required=True, help="benchmark seeds, LO-HI")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp)
        commit = export_tree(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for i, seed in enumerate(args.seeds):
            for workload in workloads:
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for position, side in enumerate(order):
                    run = run_once(trees[side], workload, seed, seconds)
                    entry = {"workload": workload, "seed": seed, "order": position}
                    runs[side].append({**entry, **run})
                    print(f"{workload} seed {seed} {side}: exit {run['exit_code']}", flush=True)

    sources = {
        "parent": {"commit": commit},
        "change": {
            "commit": git("rev-parse", "HEAD"),
            "uncommitted": bool(git("status", "--porcelain")),
        },
    }
    names = {"parent": f"BENCH_{args.tag}_parent.json", "change": f"BENCH_{args.tag}.json"}
    for side, name in names.items():
        doc = {"side": side, **sources[side], "seconds": seconds, "runs": runs[side]}
        (ROOT / name).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 1 if summarize(spec, runs["parent"], runs["change"]) else 0


if __name__ == "__main__":
    sys.exit(main())
