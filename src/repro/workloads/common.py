"""Shared infrastructure for the synthetic SPEC CPU2000-like workloads.

Each workload implements the *algorithmic skeleton* of its namesake
benchmark in the target ISA — the memory-access pattern (pointer chasing,
hash probing, streaming, indexed gathers), the dependence structure
(recurrences that become critical SCCs), the branch behaviour and the
functional-unit mix are what the paper's evaluation exercises, so those are
reproduced; the surrounding application logic is not.

Workloads accept a ``scale`` factor so tests can run miniature versions
while benchmarks use the calibrated defaults.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..isa.builder import ProgramBuilder
from ..isa.program import WORD_SIZE, Program


@dataclass(frozen=True)
class WorkloadSpec:
    """Registry entry for one benchmark kernel."""

    name: str
    suite: str            # "CINT2000" or "CFP2000"
    description: str
    build: Callable[[float], Program]

    def __call__(self, scale: float = 1.0) -> Program:
        return self.build(scale)


class Allocator:
    """Bump allocator for laying out data regions in the flat memory."""

    def __init__(self, base: int = 0x1000, align: int = 64):
        self._next = base
        self.align = align

    def alloc(self, n_words: int, align: Optional[int] = None) -> int:
        """Reserve ``n_words`` 4-byte words; returns the base byte address."""
        align = align or self.align
        base = (self._next + align - 1) // align * align
        self._next = base + n_words * WORD_SIZE
        return base


def scaled(value: int, scale: float, minimum: int = 1) -> int:
    """Scale an iteration count / footprint knob, with a floor."""
    return max(minimum, int(round(value * scale)))


def rng_for(name: str) -> random.Random:
    """Deterministic per-workload random source (reproducible builds)."""
    return random.Random(f"repro-flea-flicker:{name}")


def counted_loop(b: ProgramBuilder, label: str, counter_reg: int,
                 pred: int) -> None:
    """Emit the standard loop back edge: decrement, compare-nonzero, branch.

    The counter register must hold the remaining iteration count when the
    back edge is reached; the loop body runs ``initial count`` times.
    """
    b.subi(counter_reg, counter_reg, 1)
    b.cmpnei(pred, counter_reg, 0)
    b.br(label, pred=pred)


def below(rng: random.Random, n: int) -> Callable[[], int]:
    """Return ``draw`` where each ``draw()`` equals ``rng.randrange(n)``.

    ``randrange(n)`` with an int bound ``n > 0`` runs CPython's
    ``_randbelow_with_getrandbits``: ``k = n.bit_length()``, then
    ``getrandbits(k)`` until the result is below ``n``.  ``draw`` runs that
    loop on the bound ``rng.getrandbits`` with ``n`` and ``k`` fixed once,
    so it consumes the generator exactly as ``randrange`` would, call for
    call, without ``randrange``'s per-call argument handling (checked on
    CPython 3.11.7 by ``tests/property/test_draws.py``).  ``randrange(a,
    b)`` is ``a + below(rng, b - a)()``.  Calls to ``draw`` interleave
    freely with the generator's other methods.
    """
    if n <= 0:
        raise ValueError(f"empty range for below(): {n}")
    getrandbits = rng.getrandbits
    k = n.bit_length()

    def draw() -> int:
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r
    return draw


def locality_draw(rng: random.Random, base: int, hot_words: int,
                  total_words: int, cold_fraction: float
                  ) -> Callable[[], int]:
    """Return ``draw`` picking byte addresses with SPEC-like locality.

    With probability ``1 - cold_fraction`` a ``draw()`` falls in the hot
    prefix of the region (sized to sit in a particular cache level);
    otherwise it falls in the cold remainder.  Workload generators use
    this to set realistic hit/miss mixes: all-cold scattered accesses
    would make every kernel far more memory-bound than its SPEC namesake.

    Each ``draw()`` calls ``rng.random()``, then makes one :func:`below`
    draw (only the latter when the region is all hot), so it consumes
    ``rng`` exactly as ``base + rng.randrange(...) * 4`` over the chosen
    part would.
    """
    if total_words <= hot_words:
        anywhere = below(rng, total_words)
        return lambda: base + anywhere() * 4
    chance = rng.random
    hot = below(rng, hot_words)
    cold = below(rng, total_words - hot_words)
    cold_base = base + hot_words * 4

    def draw() -> int:
        if chance() < cold_fraction:
            return cold_base + cold() * 4
        return base + hot() * 4
    return draw


_REGISTRY: Dict[str, WorkloadSpec] = {}


def register(name: str, suite: str, description: str):
    """Decorator adding a build function to the workload registry."""
    def wrap(fn: Callable[[float], Program]) -> Callable[[float], Program]:
        _REGISTRY[name] = WorkloadSpec(name, suite, description, fn)
        return fn
    return wrap


def registry() -> Dict[str, WorkloadSpec]:
    """All registered workloads (importing the package registers them)."""
    return dict(_REGISTRY)
