"""Advance store cache (ASC) — paper Section 3.6, Figure 5(b).

A low-associativity cache that forwards advance-store data to subsequent
advance loads within one advance pass.  Stores with invalid data deposit an
explicit *invalid* marker so dependent loads are suppressed; replacement in
a set makes later loads that miss in that set *data speculative* (their
value must be verified when reprocessed in rally mode).  The ASC is cleared
at the beginning of every advance pass.

One cache serves both multipass loops, the columnar kernel and the
``--slow`` scalar reference.  Multipass resets a pass about once per 20
instructions on the packaged programs, so ``clear()`` is one generation
bump: each set is stamped with the generation it was filled in and
emptied on its first touch in a newer one, and a set's *replaced* flag
is the generation of its last replacement.  The LRU clock runs on
across passes; only the order within a set picks a victim, so the
choice is the same as a per-pass clock's.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: Marker deposited by advance stores whose data operand was invalid.
INVALID = object()

#: Read outcomes.
HIT = "hit"
HIT_INVALID = "hit-invalid"
MISS = "miss"
MISS_SPECULATIVE = "miss-speculative"


class AdvanceStoreCache:
    """Set-associative, word-granular forwarding cache."""

    def __init__(self, entries: int = 64, assoc: int = 2,
                 word_size: int = 4):
        if entries % assoc:
            raise ValueError("entries must be divisible by associativity")
        self.entries = entries
        self.assoc = assoc
        self.word_size = word_size
        self.num_sets = entries // assoc
        self._sets: List[Dict[int, Tuple[object, int]]] = [
            {} for _ in range(self.num_sets)
        ]
        self._set_gen = [0] * self.num_sets
        self._replaced = [0] * self.num_sets
        self._gen = 1
        self._clock = 0
        self.writes = 0
        self.reads = 0
        self.forwards = 0
        self.replacements = 0

    def clear(self) -> None:
        """Empty the cache at the start of an advance pass."""
        self._gen += 1

    def write(self, addr: int, value: object) -> None:
        """Deposit an advance store's data (or ``INVALID``)."""
        self.writes += 1
        self._clock += 1
        set_index = (addr // self.word_size) % self.num_sets
        entry_set = self._sets[set_index]
        if self._set_gen[set_index] != self._gen:
            entry_set.clear()              # filled in an older pass
            self._set_gen[set_index] = self._gen
        if addr not in entry_set and len(entry_set) >= self.assoc:
            victim = min(entry_set, key=lambda a: entry_set[a][1])
            del entry_set[victim]
            self._replaced[set_index] = self._gen
            self.replacements += 1
        entry_set[addr] = (value, self._clock)

    def read(self, addr: int) -> Tuple[str, Optional[object]]:
        """Probe for a forwardable value.

        Returns one of:
            (HIT, value)            — forward this store data;
            (HIT_INVALID, None)     — the producing store's data was
                                      invalid, suppress the load;
            (MISS, None)            — no conflicting advance store seen;
            (MISS_SPECULATIVE, None)— the set has replaced entries, so an
                                      older conflicting store may have been
                                      lost: the load is data speculative.
        """
        self.reads += 1
        set_index = (addr // self.word_size) % self.num_sets
        if self._set_gen[set_index] == self._gen:
            entry = self._sets[set_index].get(addr)
            if entry is not None:
                value = entry[0]
                if value is INVALID:
                    return HIT_INVALID, None
                self.forwards += 1
                return HIT, value
        if self._replaced[set_index] == self._gen:
            return MISS_SPECULATIVE, None
        return MISS, None
