"""Run one thermofault benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk_chain --seed 0 --seconds 36 --trace 0

Run from the repository root. The workload's inputs come from --seed. With
--trace 0 the run measures the end-to-end metrics named in BENCHMARK.json;
with --trace 1 it alternates untraced and traced cycles of passes and
reports the per-layer metrics from the spans of the traced ones. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 when every operation
passed its output check, 1 when one failed and 2 when the run could not
start (for example, when ``src/thermofault`` is absent, or a traced
library function is).
"""

from __future__ import annotations

import os

# One compute thread: pin BLAS before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# An untraced run spends about this share of its seconds on set-up samples,
# interleaved with its passes, and makes at least MIN_SETUP_SAMPLES of them.
SETUP_SHARE = 1 / 5
MIN_SETUP_SAMPLES = 5

# What a fresh process does before its first timed pass: start Python,
# import the library and the workload, and make one dataset. It prints the
# monotonic clock, which all processes share, when its set-up is done.
_SETUP_CODE = """\
import pathlib, sys, time
sys.path[:0] = [{src!r}, {root!r}]
from perfbench import workloads
workloads.WORKLOADS[{name!r}]({seed}, pathlib.Path({work!r})).setup_sample({k})
print(time.perf_counter())
"""


def setup_sample(wl, k: int) -> float:
    """Seconds from starting a fresh process to the end of its set-up.

    The end is read from the process itself, so neither its exit nor the
    wait for it is timed.
    """
    work = wl.work_dir / "setup_sample"
    code = _SETUP_CODE.format(
        src=str(SRC), root=str(ROOT), name=wl.name, seed=wl.seed, work=str(work), k=k
    )
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code], check=True, timeout=120, stdout=subprocess.PIPE, text=True
    )
    shutil.rmtree(work, ignore_errors=True)
    return float(done.stdout.split()[-1]) - t0


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"  # not a git checkout of its own
    return lines[1]


def _context(wl, args) -> dict:
    import numpy

    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))
        ),
        "datasets": wl.cycle,
        "regions_per_pass": wl.regions_per_pass,
        "pixels_per_region": wl.pixels_per_region,
    }


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten passes beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure(wl, seconds: float, tracer) -> tuple[list[tuple[float, int, bool]], list[float]]:
    """One warm-up pass, then timed passes until `seconds` have passed and
    enough passes exist.

    Returns (wall seconds, regions, traced) per pass, and the set-up
    samples. Without a tracer, fresh-process set-ups are interleaved with
    the passes so that they take SETUP_SHARE of the run: on a shared
    machine, CPU speed can change for seconds at a time, and samples
    spread over the run see the same mix of slow and fast spells as its
    passes. With a tracer,
    there are no set-up samples, and whole cycles over the workload's
    datasets alternate untraced and traced.
    """
    min_passes = wl.min_passes if tracer is None else max(wl.min_passes, 2 * wl.cycle)
    min_samples, share = (MIN_SETUP_SAMPLES, SETUP_SHARE) if tracer is None else (0, 0.0)
    _, pending = wl.run_pass(0)  # untimed warm-up; its outputs are still checked
    wl.record(pending)
    passes, samples = [], []
    start = time.perf_counter()
    sampling = 0.0  # wall time spent on set-up samples
    i = 0
    while i < min_passes or len(samples) < min_samples or time.perf_counter() - start < seconds:
        now = time.perf_counter()
        if sampling < share * (now - start) or (
            now - start >= seconds and len(samples) < min_samples
        ):
            samples.append(setup_sample(wl, len(samples)))
            sampling += time.perf_counter() - now
            continue
        traced = tracer is not None and (i // wl.cycle) % 2 == 1
        if traced:
            tracer.pass_id = i
            tracer.unlabeled_truth = wl.pass_truth(i)
            tracer.install()
        t0 = time.perf_counter()
        regions, pending = wl.run_pass(i)
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        wl.record(pending)
        passes.append((elapsed, regions, traced))
        i += 1
    return passes, samples


def run(args, spec: dict) -> tuple[dict, dict, list[str]]:
    """Set up, measure and check one workload; returns (metrics, details, failures)."""
    from perfbench import tracing, workloads

    work_dir = OUT / f"work-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    tracer = tracing.Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install()
        try:
            setup_times = wl.setup()
        finally:
            if tracer is not None:
                tracer.uninstall()
        passes, setup_samples = measure(wl, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        accuracy = wl.finish()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    timed = [p for p in passes if not p[2]]
    tail_s, tail_pct = tail([p[0] for p in timed]) if not tracer else (0.0, 0.0)
    failures = wl.ledger.failures()
    details = {
        "context": _context(wl, args),
        "setup_samples_s": setup_samples,
        "dataset_setup_s": setup_times,
        "pass_times_s": [p[0] for p in timed],
        "pass_s_tail_percentile": tail_pct,
        "passes": len(timed),
        "ops_attempted": wl.ledger.attempted,
        "ops_failed": len(failures),
        "ops_failed_ratio": len(failures) / wl.ledger.attempted,
    }
    if tracer is None:
        metrics = {
            "regions_per_s": sum(p[1] for p in timed) / sum(p[0] for p in timed),
            "pass_s_tail": tail_s,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb,
            **accuracy,
        }
        names = spec["end_to_end"]
    else:
        traced = [p[0] for p in passes if p[2]]
        metrics = tracing.layer_metrics(tracer, len(traced), len(setup_times))
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(
            [p[0] for p in timed]
        )
        details["spans"] = tracer.to_json()
        names = spec["per_layer"]
    ordered = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names}
    return ordered, details, failures


def report(args, metrics: dict, details: dict, failures: list[str]) -> None:
    """Human-readable lines, then the result object as the last line."""
    from perfbench.tracing import COMPUTED

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, m in metrics.items():
        note = ""
        if name == "pass_s_tail":
            note = f"  (p{details['pass_s_tail_percentile']:.1f} of {details['passes']} passes)"
        elif name == "setup_s":
            note = f"  (median of {len(details['setup_samples_s'])} fresh-process set-ups)"
        elif name in COMPUTED:
            note = "  (computed)"
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}{note}")
    print(
        f"  {'ops_failed_ratio':40s} {details['ops_failed_ratio']:.6g} fraction"
        f"  ({details['ops_failed']} of {details['ops_attempted']} operations)"
    )
    print("context " + json.dumps(details["context"], sort_keys=True))
    for line in failures[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": details["ops_attempted"],
                "failed": details["ops_failed"],
                "metrics": metrics,
            }
        )
    )


def _write_details(args, metrics: dict, details: dict) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps({"metrics": metrics, **details}) + "\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except OSError as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import thermofault
    except ImportError as exc:
        print(f"error: cannot import thermofault from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(thermofault.__file__).resolve().parent.parent != SRC:
        print(f"error: thermofault was imported from {thermofault.__file__}", file=sys.stderr)
        return 2
    from perfbench import tracing, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        metrics, details, failures = run(args, spec)
    except tracing.TracerError as exc:
        print(f"error: cannot trace: {exc}", file=sys.stderr)
        return 2
    _write_details(args, metrics, details)
    report(args, metrics, details, failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
