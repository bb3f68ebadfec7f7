"""Gshare branch predictor (Table 2: 1024-entry gshare).

Two-bit saturating counters indexed by PC XOR global history.  All timing
models share this implementation; each instantiates its own state so that
(for instance) advance-mode branches in the multipass core can consult the
predictor without perturbing a different model's run.
"""

from __future__ import annotations

#: 2-bit counter transitions on a taken / not-taken outcome (saturating).
_INC = (1, 2, 3, 3)
_DEC = (0, 0, 1, 2)


class GsharePredictor:
    """1024-entry gshare with a global history register."""

    def __init__(self, entries: int = 1024):
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self._mask = entries - 1
        self._history_mask = (1 << (entries.bit_length() - 1)) - 1
        self._counters = [2] * entries   # weakly taken
        self._history = 0
        self.predictions = 0
        self.mispredictions = 0

    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at static index ``pc``."""
        return self._counters[(pc ^ self._history) & self._mask] >= 2

    def update(self, pc: int, taken: bool) -> bool:
        """Record the outcome; returns True when the prediction was correct.

        Updates the pattern table and the global history, and maintains
        the prediction/misprediction counters.
        """
        counters = self._counters
        history = self._history
        idx = (pc ^ history) & self._mask
        counter = counters[idx]
        self.predictions += 1
        if taken:
            counters[idx] = _INC[counter]
            self._history = ((history << 1) | 1) & self._history_mask
            correct = counter >= 2
        else:
            counters[idx] = _DEC[counter]
            self._history = (history << 1) & self._history_mask
            correct = counter < 2
        if not correct:
            self.mispredictions += 1
        return correct

    def peek_correct(self, pc: int, taken: bool) -> bool:
        """Would the current prediction be correct?  No state change."""
        return self.predict(pc) == taken

    @property
    def accuracy(self) -> float:
        if not self.predictions:
            return 1.0
        return 1.0 - self.mispredictions / self.predictions
