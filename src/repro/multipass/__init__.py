"""Multipass pipelining: the paper's primary contribution."""

from .asc import (HIT, HIT_INVALID, INVALID, MISS, MISS_SPECULATIVE,
                  AdvanceStoreCache)
from .core import Mode, MultipassCore, simulate_multipass
from .result_store import ResultStore
from .twopass import TwoPassCore, simulate_twopass

__all__ = [
    "AdvanceStoreCache", "HIT", "HIT_INVALID", "INVALID", "MISS",
    "MISS_SPECULATIVE", "Mode", "MultipassCore", "ResultStore",
    "simulate_multipass", "TwoPassCore", "simulate_twopass",
]
