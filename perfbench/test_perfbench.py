"""Tests of the benchmark itself, at its smallest size (one cycle per phase).

    python3 -m pytest -q perfbench
"""

import argparse
import json
import time
from pathlib import Path

import pytest

import run

run.load_superpos()

import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
COUNTS = ("calls_per_item", "_per_solve", "ls_accept_ratio", "relaxed_return_frac", "eigh_per_call",
          "_share")


@pytest.fixture
def smallest(monkeypatch):
    """One cycle per phase, one set-up, and a support-3 probe in place of the support-5 one."""
    monkeypatch.setattr(run, "MIN_ITEMS", 1)
    monkeypatch.setattr(run, "SETUP_PROBES", 0)
    monkeypatch.setattr(workloads, "PROBE_RANK", 3)


def _run(name: str, trace: int) -> dict:
    args = argparse.Namespace(workload=name, seed=0, seconds=0.0, trace=trace, setup_probe=False)
    return run.run_one(args)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_completes_and_emits_every_metric(smallest, name, trace, section):
    result = _run(name, trace)
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] >= workloads.WORKLOADS[name].slots_per_cycle
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK[section]]
    for m in BENCHMARK[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_timed_phase_runs_a_fixed_item_set(monkeypatch):
    """Slower items do not change which items run, so failures repeat from run to run."""
    monkeypatch.setattr(run, "MIN_ITEMS", 1)
    wl = workloads.WORKLOADS["game-sim"](0)
    seconds = 2 * wl.nominal_cycle_s
    fast = run.timed_phase(wl, seconds)
    run_item = wl.run

    def slow_run(slot):
        time.sleep(wl.nominal_cycle_s / wl.slots_per_cycle)
        return run_item(slot)

    monkeypatch.setattr(wl, "run", slow_run)
    slow = run.timed_phase(wl, seconds)
    assert len(fast[1]) == len(slow[1]) == run.cycle_count(wl, seconds) == 2
    assert [o.fingerprint() for _, _, o in fast[0]] == [o.fingerprint() for _, _, o in slow[0]]


def _traced(wl, slots):
    tracer = spans.Tracer()
    tracer.install()
    try:
        items, _ = run.run_slots(wl, slots, tracer)
    finally:
        tracer.uninstall()
    for _, slot, outcome in items:
        wl.classify(slot, outcome)
    labels = {i: outcome.labels for i, _, outcome in items}
    metrics = spans.layer_metrics(tracer.spans, labels, set(labels))
    return items, {k: v for k, v in metrics.items() if any(c in k for c in COUNTS)}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tracing_changes_no_output_and_counts_repeat(name):
    wl = workloads.WORKLOADS[name](0)
    plain, _ = run.run_slots(wl, wl.cycle(0))
    traced, counts = _traced(wl, wl.cycle(0))
    again, counts_again = _traced(wl, wl.cycle(0))
    fingerprints = [o.fingerprint() for _, _, o in plain]
    assert [o.fingerprint() for _, _, o in traced] == fingerprints
    assert [o.fingerprint() for _, _, o in again] == fingerprints
    assert counts == counts_again
    assert any(counts.values())


def test_tracer_restores_every_binding():
    import numpy as np
    import superpos.measures
    before = (superpos.measures.solve_cover, np.linalg.eigvalsh, superpos.LmiProblem.from_matrices)
    tracer = spans.Tracer()
    tracer.install()
    assert superpos.measures.solve_cover is not before[0]
    tracer.uninstall()
    assert (superpos.measures.solve_cover, np.linalg.eigvalsh, superpos.LmiProblem.from_matrices) == before
