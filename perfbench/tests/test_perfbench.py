"""Tests for the benchmark itself.

Run from the repository root:  PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import sys

import pytest

from perfbench import run as bench
from perfbench.tracing import SETUP, Span, self_times

sys.path.insert(0, str(bench.SRC))

from perfbench import workloads  # noqa: E402  (needs thermofault on sys.path)

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY_COUNTS = {"labeled": 2, "unlabeled": 2, "test": 1}


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    """Shrink every workload in this process to a seconds-long run.

    The set-up samples run in fresh processes at full size; one per run.
    """
    default = workloads.default_synth_config
    monkeypatch.setattr(bench, "MIN_SETUP_SAMPLES", 1)
    monkeypatch.setattr(bench, "SETUP_SHARE", 0.0)
    monkeypatch.setattr(
        workloads,
        "default_synth_config",
        lambda seed: dataclasses.replace(default(seed), counts=TINY_COUNTS),
    )
    for cls in (workloads.DeskChain, workloads.ModelFit):
        monkeypatch.setattr(cls, "n_datasets", 1)
    monkeypatch.setattr(workloads.SeedStudy, "n_seeds", 2)


def _argv(workload: str, trace: int) -> list[str]:
    return ["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)]


def _main(capsys, workload: str, trace: int = 0):
    code = bench.main(_argv(workload, trace))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def _spans(workload: str) -> list[Span]:
    _, details, failures = bench.run(bench.parse_args(_argv(workload, 1)), SPEC)
    assert not failures
    return [Span(*row) for row in details["spans"]]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(capsys, workload, trace, section):
    code, lines, result = _main(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    for m in SPEC[section]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        printed = [line.split() for line in lines if line.split()[:1] == [m["name"]]]
        assert printed and printed[0][2] == m["unit"]
        if section == "end_to_end":
            assert got["value"] > 0


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        Span("cli.extract", 0.0, 10.0, -1, 0),
        Span("images.load_thermal", 1.0, 3.0, 0, 0),
        Span("density.feature_vector", 4.0, 8.0, 0, 0),
        Span("density.kde_values", 5.0, 7.0, 2, 0),
        Span("cli.train", 10.0, 12.0, -1, 0),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 2.0, 2.0, 2.0])


def test_stage_self_time_plus_child_time_is_the_stage_span():
    spans = _spans("desk_chain")
    selfs = self_times(spans)
    stages = [i for i, s in enumerate(spans) if s.name.startswith("cli.") and s.pass_id != SETUP]
    assert {spans[i].name for i in stages} == {"cli.extract", "cli.train", "cli.classify"}
    for i in stages:
        children = sum(c.duration for c in spans if c.parent == i)
        assert selfs[i] + children == pytest.approx(spans[i].duration, abs=1e-9)


def test_seed_study_bypasses_images_io_and_the_cli():
    names = [s.name for s in _spans("seed_study")]
    assert "harness.run_both" in names and "density.feature_vector" in names
    assert "images.load_thermal" not in names
    assert not [n for n in names if n.startswith("cli.")]


def test_model_fit_passes_make_no_density_calls():
    names = [s.name for s in _spans("model_fit") if s.pass_id != SETUP]
    assert "embedding.train_embedder" in names
    assert not [n for n in names if n.startswith("density.")]


def test_wrong_labels_fail_the_run(capsys, monkeypatch):
    import thermofault.cli

    original = thermofault.cli.posterior

    def off_by_one(v, model, use_refined=True):
        post = original(v, model, use_refined)
        wrong = model.classes[(model.classes.index(post.predicted) + 1) % model.n_classes]
        return dataclasses.replace(post, predicted=wrong)

    monkeypatch.setattr(thermofault.cli, "posterior", off_by_one)
    code, _, result = _main(capsys, "desk_chain")
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0


def test_output_that_changes_between_passes_fails_the_run(capsys, monkeypatch):
    import thermofault.cli

    original = thermofault.cli.feature_vector
    calls = [0]

    def drifting(samples, grid, bandwidth):
        calls[0] += 1
        return original(samples + 1e-9 * calls[0], grid, bandwidth)

    monkeypatch.setattr(thermofault.cli, "feature_vector", drifting)
    code, _, result = _main(capsys, "desk_chain")
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0


def test_a_missing_traced_function_stops_the_traced_run(capsys, monkeypatch):
    import thermofault.prototypes

    monkeypatch.delattr(thermofault.prototypes, "posterior")
    assert bench.main(_argv("desk_chain", 1)) == 2
    assert "prototypes.posterior" in capsys.readouterr().err


def test_a_failing_count_hook_fails_the_run(capsys, monkeypatch):
    from perfbench import tracing

    def broken(span, bound, result, tracer):
        raise KeyError("out")

    module, attr, _ = tracing.TARGETS["cli.classify"]
    monkeypatch.setitem(tracing.TARGETS, "cli.classify", (module, attr, broken))
    code, _, result = _main(capsys, "desk_chain", trace=1)
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0


def test_the_ledger_holds_only_the_outputs_the_checks_read():
    ledger = workloads.Ledger(kept=("classify",))
    ledger.add("extract", 0, {"features": b"[1, 2]"})
    ledger.add("classify", 0, {"predictions": b"{}"})
    assert ledger.output("extract", 0) is None
    assert ledger.output("classify", 0) == {"predictions": b"{}"}
    ledger.add("extract", 0, {"features": b"[1, 3]"})
    assert ledger.failures() == ["extract[0]: output differs from the first pass"]
