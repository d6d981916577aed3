"""Self-check of the traced run and of the tracer's patching.

    python3 -m pytest bench/test_layertrace.py

Runs the timed and the counting pass of every workload once (seed 0, the
same fixed ops as the benchmark's traced run) and checks that every
wrapped entry point is called on the workload meant to exercise it, that
the predicted bypasses hold exactly, and that the layers' self times
account for the traced time.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
import workloads as W  # noqa: E402
from layertrace import COUNTED, ENTRY_POINTS, Tracer  # noqa: E402


def passes(role: str) -> dict:
    return {
        workload: bench.spawn(["--workload", workload, "--seed", "0", "--role", role], 300)[2]
        for workload in W.WORKLOADS
    }


@pytest.fixture(scope="module")
def traced():
    return passes("trace")


@pytest.fixture(scope="module")
def counted():
    return passes("count")


def test_traced_answers_are_correct(traced, counted):
    for summaries in (traced, counted):
        for workload, summary in summaries.items():
            assert summary["failed"] == 0 and summary["warmup_failed"] == 0, summary["errors"]
            assert len(summary["latencies"]) == W.TRACE_OPS[workload]
            assert summary["ops_digest"] == traced[workload]["ops_digest"]


def test_every_entry_point_is_called_on_its_workload(traced, counted):
    missed = []
    for _layer, name, workload in ENTRY_POINTS:
        summaries = counted if name in COUNTED else traced
        if sum(summaries[workload]["entry_calls"][name].values()) == 0:
            missed.append((workload, name))
    assert missed == []


def test_passes_wrap_disjoint_entry_points(traced, counted):
    for workload in W.WORKLOADS:
        assert set(counted[workload]["entry_calls"]) == COUNTED
        assert not COUNTED & set(traced[workload]["entry_calls"])


def test_bypass_predictions_hold_exactly(traced):
    query = traced["query"]["layers"]
    assert query["untwisted.mode_calls"] == 0
    assert query["twisted.mode_calls"] == 0
    assert traced["modes"]["layers"]["fusion.upper_bound_calls"] == 0
    assert query["fusion.upper_bound_calls"] == W.TRACE_OPS["query"]
    assert query["fusion.engine_build_s"] > 0


def test_self_times_account_for_the_traced_time(traced):
    for workload, summary in traced.items():
        self_total = sum(summary["layers"][f"{layer}.self_s"] for layer in W.LAYERS)
        op_total = sum(summary["latencies"])
        assert 0.9 * op_total <= self_total <= op_total, workload


def test_patching_reaches_every_namespace():
    modules = W.load_program(bench.ROOT)
    originals = {}
    for layer, name, _workload in ENTRY_POINTS:
        if "." in name:
            cls_name, attr = name.split(".")
            originals[name] = vars(getattr(modules[layer], cls_name))[attr]
        else:
            originals[name] = getattr(modules[layer], name)
    Tracer(W.LAYERS).install(modules)
    Tracer(W.LAYERS, counted=True).install(modules)
    left = [
        (mod_name, key)
        for mod_name, mod in sys.modules.items()
        if mod_name == "orbifold_voa" or mod_name.startswith("orbifold_voa.")
        for key, value in vars(mod).items()
        if any(value is fn for fn in originals.values())
    ]
    assert left == []
    # the same check for methods, including aliases such as __rmul__
    for layer, name, _workload in ENTRY_POINTS:
        if "." in name:
            cls = getattr(modules[layer], name.split(".")[0])
            assert all(value is not originals[name] for value in vars(cls).values()), name
