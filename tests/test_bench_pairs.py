"""The verdicts that scripts/bench_pairs.py prints for its run pairs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [{"name": "regions_per_s", "better": "higher", "bound": 0.25}]}
STEADY = [100.0 + i for i in range(10)]  # quartile distance 4.5, a twentieth of the median
SPREAD = [50.0 + 100.0 * (i % 2) + 5.0 * i for i in range(10)]  # quartile distance over 90


def runs(workload: str, values: list) -> list:
    results = ({"metrics": {"regions_per_s": {"value": v}}} for v in values)
    return [{"workload": workload, "exit_code": 0, "result": r} for r in results]


@pytest.mark.parametrize(
    "parent, change, verdict",
    [
        (STEADY, [v + 30.0 for v in STEADY], "claim met"),
        (STEADY, [v - 40.0 for v in STEADY], "claim not met; WORSE than its bound 0.25"),
        (SPREAD, SPREAD[::-1], "unresolved"),
        (STEADY, [v - 40.0 for v in SPREAD], "unresolved"),
        # every change run beats every parent run: the spread does not hide the gain
        (SPREAD, [v + 200.0 for v in SPREAD], "claim met"),
    ],
    ids=["gain", "worse", "both-spread", "change-spread", "spread-but-every-run-wins"],
)
def test_summarize_verdicts(capsys, parent, change, verdict):
    assert bench_pairs.summarize(SPEC, runs("w", parent), runs("w", change)) == 0
    head, line = capsys.readouterr().out.splitlines()
    assert head == "w: 10 of 10 pairs; failed runs: parent 0, change 0"
    assert line.startswith("  regions_per_s") and line.endswith(f"  {verdict}"), line
