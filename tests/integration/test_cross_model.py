"""Cross-model integration tests on the packaged workloads.

Small-scale runs (footprints shrink with scale, so these check
*invariants and orderings that must hold at any scale*, not the
full-scale calibrated magnitudes — those are asserted by the benchmark
suite)."""

from dataclasses import replace

import pytest

from repro.harness import (ABLATION_FACTORIES, MODEL_FACTORIES, TraceCache,
                           run_model)
from repro.machine import MachineConfig
from repro.memory.configs import config1_hierarchy

SCALE = 0.06
WORKLOADS = ("mcf", "gzip", "crafty", "equake")
MODELS = ("inorder", "multipass", "runahead", "ooo", "ooo-realistic")


@pytest.fixture(scope="module")
def cache():
    return TraceCache(SCALE)


@pytest.fixture(scope="module")
def results(cache):
    out = {}
    for workload in WORKLOADS:
        trace = cache.trace(workload)
        out[workload] = {m: run_model(m, trace) for m in MODELS}
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_model_commits_the_trace(results, cache, workload):
    n = len(cache.trace(workload))
    for model, stats in results[workload].items():
        assert stats.instructions == n, model


@pytest.mark.parametrize("workload", WORKLOADS)
def test_breakdowns_account_for_all_cycles(results, workload):
    for model, stats in results[workload].items():
        assert sum(stats.cycle_breakdown.values()) == stats.cycles, model


@pytest.mark.parametrize("workload", WORKLOADS)
def test_multipass_at_least_matches_inorder(results, workload):
    base = results[workload]["inorder"].cycles
    mp = results[workload]["multipass"].cycles
    assert mp <= base * 1.08 + 32, workload


@pytest.mark.parametrize("workload", WORKLOADS)
def test_ideal_ooo_is_the_upper_bound(results, workload):
    ooo = results[workload]["ooo"].cycles
    for model in ("inorder", "multipass", "runahead"):
        assert ooo <= results[workload][model].cycles * 1.05, model


@pytest.mark.parametrize("workload", ("mcf", "equake"))
def test_memory_bound_ordering(results, workload):
    """On miss-dominated workloads: OOO <= MP <= runahead-ish <= base."""
    r = results[workload]
    assert r["ooo"].cycles < r["inorder"].cycles
    assert r["multipass"].cycles < r["inorder"].cycles
    assert r["multipass"].cycles <= r["runahead"].cycles * 1.10


def test_ipc_bounded_by_issue_width(results):
    for workload in WORKLOADS:
        for model, stats in results[workload].items():
            assert stats.ipc <= 6.0 + 1e-9, (workload, model)


def test_memory_stats_populated(results):
    for workload in WORKLOADS:
        for stats in results[workload].values():
            assert stats.memory is not None
            assert stats.memory.accesses["L1D"] > 0


def test_alternate_hierarchy_slows_memory_workloads(cache):
    trace = cache.trace("mcf")
    base = run_model("inorder", trace)
    slow = run_model(
        "inorder", trace,
        MachineConfig().with_hierarchy(config1_hierarchy()))
    assert slow.cycles > base.cycles   # 200- vs 145-cycle main memory


@pytest.fixture(scope="module")
def single_mshr():
    """mcf at scale 0.05 on a machine with one MSHR, and inorder's cycles."""
    trace = TraceCache(0.05).trace("mcf")
    config = MachineConfig().with_hierarchy(
        replace(MachineConfig().hierarchy, max_outstanding_misses=1))
    return trace, config, run_model("inorder", trace, config).cycles


@pytest.mark.parametrize("model", sorted(
    (set(MODEL_FACTORIES) | set(ABLATION_FACTORIES)) - {"inorder"}))
def test_single_mshr_miss_overlap_stays_bounded(single_mshr, model):
    """With one MSHR there is no miss overlap to exploit, so no model may
    take much longer than inorder (a pending lower-level fill once was
    counted twice behind a full MSHR file, doubling the wait per miss)."""
    trace, config, inorder_cycles = single_mshr
    assert run_model(model, trace, config).cycles < 2 * inorder_cycles


def test_summary_renders(results):
    text = results["mcf"]["multipass"].summary()
    assert "multipass/mcf" in text
    assert "execution" in text
