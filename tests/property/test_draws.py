"""The workload draw helpers consume ``random.Random`` as ``randrange`` does.

Every workload generator draws its data through
:func:`repro.workloads.common.below` and
:func:`repro.workloads.common.locality_draw`, which run CPython's own
``randrange`` loop without its per-call argument handling.  The
programs they build are pinned in
``tests/workloads/test_program_digests.py``; if a future CPython changes
how ``randrange`` uses its generator, those 24 pins fail together and
these properties name the cause.
"""

import random

import pytest

hypothesis = pytest.importorskip(
    "hypothesis", reason="property tests need hypothesis")
import hypothesis.strategies as st  # noqa: E402
from hypothesis import given  # noqa: E402

from repro.workloads.common import below, locality_draw  # noqa: E402

seeds = st.integers(0, 2**64 - 1)
bounds = st.integers(1, 2**40)

#: One step of a draw plan: ``randrange(n)``, ``randrange(a, a + width)``
#: or a ``random()`` between them.
steps = st.one_of(
    st.tuples(st.just("below"), bounds),
    st.tuples(st.just("range"), st.integers(-2**40, 2**40), bounds),
    st.tuples(st.just("random")),
)


def reference_locality_address(rng, base, hot_words, total_words,
                               cold_fraction):
    """One locality draw as the generators made it on ``rng.randrange``
    (``workloads.common.locality_address``, before ``locality_draw``)."""
    if total_words <= hot_words:
        return base + rng.randrange(total_words) * 4
    if rng.random() < cold_fraction:
        return base + rng.randrange(hot_words, total_words) * 4
    return base + rng.randrange(hot_words) * 4


@given(seeds, st.lists(steps, max_size=40))
def test_below_is_randrange_call_for_call(seed, plan):
    ref, rng = random.Random(seed), random.Random(seed)
    expected, got = [], []
    for step in plan:
        if step[0] == "below":
            expected.append(ref.randrange(step[1]))
            got.append(below(rng, step[1])())
        elif step[0] == "range":
            _, a, width = step
            expected.append(ref.randrange(a, a + width))
            got.append(a + below(rng, width)())
        else:
            expected.append(ref.random())
            got.append(rng.random())
    assert got == expected
    assert rng.getstate() == ref.getstate()


@given(seeds, bounds, st.lists(st.booleans(), max_size=60))
def test_one_draw_serves_a_whole_loop(seed, n, pattern):
    """A draw made once and called per iteration, between ``random()``
    calls, still matches ``randrange(n)`` draw for draw."""
    ref, rng = random.Random(seed), random.Random(seed)
    draw = below(rng, n)
    for is_draw in pattern:
        if is_draw:
            assert draw() == ref.randrange(n)
        else:
            assert rng.random() == ref.random()
    assert rng.getstate() == ref.getstate()


@given(seeds, st.integers(0, 2**32), st.integers(1, 2**20),
       st.integers(-2**10, 2**20), st.floats(0.0, 1.0),
       st.integers(1, 30))
def test_locality_matches_the_randrange_form(seed, base, hot_words, extra,
                                             cold_fraction, count):
    total_words = max(1, hot_words + extra)
    args = (base, hot_words, total_words, cold_fraction)
    ref, rng = random.Random(seed), random.Random(seed)
    expected = [reference_locality_address(ref, *args) for _ in range(count)]
    draw = locality_draw(rng, *args)
    assert [draw() for _ in range(count)] == expected
    assert rng.getstate() == ref.getstate()


def test_empty_range_is_refused():
    """``randrange(0)`` raises; so does ``below`` (it would spin forever:
    ``getrandbits(0)`` is always 0)."""
    with pytest.raises(ValueError):
        below(random.Random(0), 0)
