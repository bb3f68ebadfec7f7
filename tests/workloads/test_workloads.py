"""Tests for the twelve SPEC-like workload kernels."""

import pytest

from repro.compiler import compile_program
from repro.isa import execute
from repro.workloads import (ALL_WORKLOADS, CFP, CINT, build_workload,
                             registry)

from .test_program_digests import program_digest

SCALE = 0.05


@pytest.fixture(scope="module")
def traces():
    out = {}
    for name in ALL_WORKLOADS:
        program = compile_program(build_workload(name, SCALE))
        out[name] = execute(program, max_instructions=2_000_000)
    return out


def test_registry_complete():
    specs = registry()
    assert set(specs) == set(ALL_WORKLOADS)
    assert len(ALL_WORKLOADS) == 12
    assert set(CINT) | set(CFP) == set(ALL_WORKLOADS)
    assert len(CINT) == 8 and len(CFP) == 4


def test_suites_labelled():
    specs = registry()
    for name in CINT:
        assert specs[name].suite == "CINT2000"
    for name in CFP:
        assert specs[name].suite == "CFP2000"
    for spec in specs.values():
        assert spec.description


def test_unknown_workload_rejected():
    with pytest.raises(KeyError):
        build_workload("specfp-imaginary")


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_workloads_terminate(traces, name):
    trace = traces[name]
    assert not trace.truncated
    assert len(trace) > 500


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_workloads_deterministic_build(name):
    """A rebuild in the same process is the same program, every field.

    ``test_program_digests`` pins one build per process; this catches a
    generator whose output depends on an earlier build's state.
    """
    assert program_digest(build_workload(name, SCALE)) == \
        program_digest(build_workload(name, SCALE))


def test_restart_insertion_matches_paper(traces):
    """Critical-SCC RESTARTs land in bzip2, gap, mcf — and only there."""
    for name in ALL_WORKLOADS:
        restarts = traces[name].dynamic_counts()["restarts"]
        if name in ("bzip2", "gap", "mcf"):
            assert restarts > 0, name
        else:
            assert restarts == 0, name


def test_memory_kernels_load_heavy(traces):
    for name in ("mcf", "gap", "equake"):
        counts = traces[name].dynamic_counts()
        assert counts["loads"] / counts["total"] > 0.08, name


def test_fp_kernels_use_fp(traces):
    for name in CFP:
        counts = traces[name].dynamic_counts()
        assert counts["fp"] / counts["total"] > 0.15, name


def test_int_kernels_mostly_integer(traces):
    for name in ("crafty", "gzip", "twolf"):
        counts = traces[name].dynamic_counts()
        assert counts["fp"] == 0, name


def test_branchy_kernels_branch(traces):
    for name in ("twolf", "parser", "gzip"):
        counts = traces[name].dynamic_counts()
        assert counts["branches"] / counts["total"] > 0.04, name


def test_scaling_grows_work():
    small = execute(compile_program(build_workload("crafty", 0.03)),
                    max_instructions=2_000_000)
    large = execute(compile_program(build_workload("crafty", 0.08)),
                    max_instructions=2_000_000)
    assert len(large) > len(small)


def test_metadata_present():
    p = build_workload("mcf", SCALE)
    assert "n_basis" in p.metadata and "n_arcs" in p.metadata


def test_predication_used(traces):
    """EPIC kernels rely on if-conversion; several must nullify ops."""
    nullified_anywhere = sum(
        traces[name].dynamic_counts()["nullified"] for name in ALL_WORKLOADS)
    assert nullified_anywhere > 100
