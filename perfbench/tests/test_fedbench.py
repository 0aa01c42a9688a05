"""Small-size runs of every workload, and faults the output checks catch.

Run from the repository root::

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os

import pytest

import fedbench
from repro.environment.registry import ApplicationRegistry
from repro.federation import Federation
from repro.mediation.mediator import Mediator

with open(os.path.join(os.path.dirname(__file__), "..", "..", "BENCHMARK.json")) as handle:
    CONTRACT = json.load(handle)
END_TO_END = [metric["name"] for metric in CONTRACT["end_to_end"]]
PER_LAYER = [metric["name"] for metric in CONTRACT["per_layer"]]
#: per-layer figures that are timings, so they differ between reruns
TIMED = {"bench.host_scale", "bench.trace_overhead_ratio", "bench.write_us_p50"}


def small(workload: str, trace: bool = False, seed: int = 5, ops: int = 320) -> dict:
    return fedbench.measure(
        workload, seed, 0.0, trace,
        count_window=ops, trace_window=ops, setup_repeats=1,
    )


@pytest.mark.parametrize("workload", fedbench.WORKLOADS)
def test_small_run_passes_its_checks(workload):
    result = small(workload)
    assert result["violations"] == []
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == END_TO_END
    assert all(value > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("workload", fedbench.WORKLOADS)
def test_traced_counts_repeat_exactly_per_seed(workload):
    first, second = small(workload, trace=True), small(workload, trace=True)
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == PER_LAYER
    counts = [
        name for name in first["metrics"]
        if not name.endswith("self_us_per_op") and name not in TIMED
    ]
    assert {n: first["metrics"][n] for n in counts} == {
        n: second["metrics"][n] for n in counts
    }


def test_workloads_exercise_their_layers():
    batch = small("cross_batch", trace=True)["metrics"]
    churn = small("cross_churn", trace=True)["metrics"]
    intra = small("intra_steady", trace=True)["metrics"]
    assert intra["environment.route_hit_ratio"] == 1.0
    assert intra["sim.engine.events_per_op"] == 0.0
    assert 0 < batch["federation.relays_per_op"] < 0.5
    assert churn["mediation.plan_hit_ratio"] > 0
    assert churn["environment.evictions_per_write"] > 0
    assert churn["federation.retries_per_relay"] > 0


def test_dropped_delivery_callback_is_caught(monkeypatch):
    original = ApplicationRegistry.deliver
    calls = []

    def deliver(self, app_name, person_id, document, info):
        calls.append(person_id)
        if len(calls) != 4100:  # past the 4,096 warm-up deliveries
            original(self, app_name, person_id, document, info)

    monkeypatch.setattr(ApplicationRegistry, "deliver", deliver)
    result = small("intra_steady")
    assert not result["correct"]
    assert any("with 0 delivery callbacks" in v for v in result["violations"])


def test_stale_home_delivery_is_caught(monkeypatch):
    # a move the federation acknowledges but never applies
    monkeypatch.setattr(
        Federation, "move_person", lambda self, person_id, to_domain: None
    )
    result = small("cross_churn", ops=1200)
    assert not result["correct"]
    assert any("but their home is" in v for v in result["violations"])


def test_below_floor_delivery_is_caught(monkeypatch):
    original = Mediator.translate

    def translate(self, source, target, document, min_fidelity=0.0):
        return original(self, source, target, document, min_fidelity=0.0)

    monkeypatch.setattr(Mediator, "translate", translate)
    result = small("cross_churn", ops=1200)
    assert not result["correct"]
    assert any("below its floor" in v for v in result["violations"])
