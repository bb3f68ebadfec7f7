"""Result store (RS) and speculative memory address queue (SMAQ).

The result store preserves valid advance-execution results across advance
passes and into rally mode (paper Section 3.1.2).  Entries correspond 1:1
with instruction-queue slots; here they are indexed by dynamic trace
sequence number, with the owning core enforcing the queue-capacity window.
An entry is *done* (its E-bit set) once its ``ready`` cycle has passed —
loads that miss the L1 write their RS entry when the fill returns, so a
later pass or rally can consume the value even though no
speculative-register-file write occurred (the Section 3.5 WAW rule).
Data-speculative loads additionally carry the value observed during
advance execution (S-bit set) for value-based verification (Section 3.6).

A memory instruction's SMAQ entry is its trace address: rally-mode
reprocessing re-performs the access at that address without re-reading
address operands, so the store keeps no address of its own.

One store serves both multipass loops, the columnar kernel and the
``--slow`` scalar reference.  It is four per-seq columns that both loops
probe directly; every write is a method, and each method keeps its own
counter.
"""

from __future__ import annotations


class ResultStore:
    """Per-seq columns of preserved advance results.

    ``live[seq]`` is the entry's valid bit, ``ready[seq]`` the cycle its
    result is available, ``sbit[seq]`` the data-speculation bit and
    ``value[seq]`` the value a load observed.  A column is meaningful
    only where ``live`` is set.  A high-water mark bounds the live seqs,
    so a flush wipes one slice and ``max_seq`` scans down from the mark.

    Under ``checked=True`` (the ``--check`` flag) every put checks that
    the store stays within its instruction-queue capacity.
    """

    def __init__(self, n: int, capacity: int = 256, checked: bool = False):
        self.capacity = capacity
        self.checked = checked
        self.live = bytearray(n)
        self.ready = [0] * n
        self.sbit = bytearray(n)
        self.value: list = [None] * n
        self._hi = 0               # exclusive bound on the live seqs
        self.writes = 0
        self.reads = 0
        self.merges = 0

    def __len__(self) -> int:
        return self.live.count(1, 0, self._hi)

    def put(self, seq: int, ready: int, sbit: int = 0,
            value: object = None) -> None:
        """Record a preserved result (overwrites a previous pass's entry)."""
        self.writes += 1
        self.live[seq] = 1
        self.ready[seq] = ready
        self.sbit[seq] = sbit
        self.value[seq] = value
        if seq >= self._hi:
            self._hi = seq + 1
        if self.checked and len(self) > self.capacity:
            from ..analysis.diagnostics import InvariantError
            raise InvariantError(
                f"result store overflowed its capacity of {self.capacity} "
                f"entries (seq {seq})")

    def read(self, seq: int) -> int:
        """An advance pass reuses live entry ``seq``: its ready cycle."""
        self.reads += 1
        return self.ready[seq]

    def pop(self, seq: int) -> None:
        """Consume live entry ``seq`` as its instruction commits in rally."""
        self.live[seq] = 0
        self.merges += 1

    def clear_from(self, seq: int) -> int:
        """Invalidate all entries at or beyond ``seq`` (flush); count them."""
        hi = self._hi
        if hi <= seq:
            return 0
        cleared = self.live.count(1, seq, hi)
        self.live[seq:hi] = bytes(hi - seq)
        self._hi = seq
        return cleared

    def max_seq(self) -> int:
        """Highest live sequence number, or -1 when empty."""
        self._hi = self.live.rfind(1, 0, self._hi) + 1
        return self._hi - 1
