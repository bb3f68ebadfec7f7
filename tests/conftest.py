"""Shared test helpers: program construction and trace compilation.

Also registers the hypothesis profiles the property suites run under:

``dev`` (default)
    Stock randomized search — good at finding new counterexamples
    locally, where a flaky failure is a lead rather than a blocked
    merge.

``ci`` (loaded when ``REPRO_CI=1``)
    Derandomized: the example sequence is derived from each test's
    source, so two CI runs of the same tree explore the same examples
    and a red gate always reproduces locally with ``REPRO_CI=1``.
    The example budget is raised (the differential suites are the
    main correctness gate for the columnar kernels), except where a
    test pins its own ``max_examples`` for runtime reasons — per-test
    ``@settings`` take precedence over the profile by design.
"""

import os

import pytest
from hypothesis import HealthCheck, settings

from repro.compiler import CompileOptions, compile_program
from repro.isa import ProgramBuilder, execute
from repro.memory import CacheConfig

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", settings.get_profile("default"))
settings.load_profile("ci" if os.environ.get("REPRO_CI") == "1" else "dev")

#: A direct-mapped L1I of two 64-byte lines: no packaged or generated
#: program's code fits, so fetch probes the L1I through
#: ``hierarchy.access`` and stalls on its misses.
TWO_LINE_L1I = CacheConfig("L1I", 128, 64, 1, 1)


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="regenerate the tests/golden/ per-workload stats instead of "
             "comparing against them (commit the diff deliberately)")


def build_trace(body_fn, name="t", compile_opts=None, max_instructions=500_000):
    """Assemble, compile and functionally execute a small program.

    ``body_fn(builder)`` populates the program; the returned trace is ready
    for any timing model.
    """
    builder = ProgramBuilder(name)
    body_fn(builder)
    program = compile_program(builder.build(),
                              compile_opts or CompileOptions())
    return execute(program, max_instructions=max_instructions)


@pytest.fixture
def make_trace():
    return build_trace
