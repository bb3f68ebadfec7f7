"""Columnar trace data: flat per-seq columns shared by the timing cores.

Second stage of the decode pipeline (after :mod:`repro.isa.decoded`): the
timing-core columnar kernels operate on *preallocated flat int arrays*
indexed by dynamic sequence number, with no per-entry Python objects in
the simulation hot loops.  This module derives the columns that are not
plain decoded fields once per trace and caches them on the
:class:`~repro.isa.decoded.DecodedTrace`:

* ``port_code`` (the :data:`~repro.resources.PORT_CODE` ordinal of each
  entry's issue FU class, the column a loop steps
  :func:`~repro.resources.issue_table` with) and ``queue_code``
  (:data:`~repro.resources.QUEUE_CODE`, the decentralized issue queue
  the entry occupies on the realistic OOO model);
* ``fetch_lines`` and ``fetch_runs``, the I-cache line of each entry and
  the end of its same-line run, per fetch geometry;
* ``multipass_kind``, the advance-dispatch class of each entry.

Like :class:`~repro.isa.decoded.DecodedTrace`, everything here is
derived read-only data: columns never change simulation semantics, and
``tests/isa/test_columns.py`` pins them to the per-entry rules.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..resources import PORT_CODE, QUEUE_CODE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .decoded import DecodedTrace


class TraceColumns:
    """Shared flat columns of one decoded trace."""

    __slots__ = ("n", "port_code", "queue_code", "_dec",
                 "_fetch_lines", "_fetch_runs", "_mp_kind")

    def __init__(self, dec: "DecodedTrace"):
        self.n = dec.n
        port = PORT_CODE
        queue = QUEUE_CODE
        self.port_code = [port[fu] for fu in dec.issue_fu]
        self.queue_code = [queue[fu] for fu in dec.issue_fu]
        self._dec = dec
        self._fetch_lines: Dict[Tuple[int, int], List[int]] = {}
        self._fetch_runs: Dict[Tuple[int, int], List[int]] = {}
        self._mp_kind: Optional[List[int]] = None

    def fetch_lines(self, inst_bytes: int, line_size: int) -> List[int]:
        """Per-seq I-cache line id column (``pc * inst_bytes // line``).

        The front end walks this instead of chasing
        ``entry.inst.index`` per fetched entry; cached per geometry so
        a whole model sweep shares one build.
        """
        key = (inst_bytes, line_size)
        lines = self._fetch_lines.get(key)
        if lines is None:
            lines = [pc * inst_bytes // line_size for pc in self._dec.pc]
            self._fetch_lines[key] = lines
        return lines

    def fetch_runs(self, inst_bytes: int, line_size: int) -> List[int]:
        """Per-seq same-line run ends over :meth:`fetch_lines`.

        ``runs[i]`` is the first seq past ``i`` whose cache line
        differs, so a front end whose current line is already hot can
        advance to the run end in one step instead of per-seq.
        """
        key = (inst_bytes, line_size)
        runs = self._fetch_runs.get(key)
        if runs is None:
            lines = self.fetch_lines(inst_bytes, line_size)
            n = self.n
            runs = [n] * n
            for i in range(n - 2, -1, -1):
                if lines[i] != lines[i + 1]:
                    runs[i] = i + 1
                else:
                    runs[i] = runs[i + 1]
            self._fetch_runs[key] = runs
        return runs

    def multipass_kind(self) -> List[int]:
        """Advance-dispatch class per seq for the multipass kernel.

        ``0`` = executed ALU/FP/other, ``1`` = predicate-nullified,
        ``2`` = executed branch, ``3`` = executed store, ``4`` =
        executed load — one subscript in place of the
        executed/branch/store/load flag cascade of the advance execute
        dispatch (the flags are trace-static, so the cascade's outcome
        is too).
        """
        kind = self._mp_kind
        if kind is None:
            dec = self._dec
            executed = dec.executed
            is_branch = dec.is_branch
            is_store = dec.is_store
            is_load = dec.is_load
            kind = [0] * self.n
            for seq in range(self.n):
                if not executed[seq]:
                    kind[seq] = 1
                elif is_branch[seq]:
                    kind[seq] = 2
                elif is_store[seq]:
                    kind[seq] = 3
                elif is_load[seq]:
                    kind[seq] = 4
            self._mp_kind = kind
        return kind


def columns_of(dec: "DecodedTrace") -> TraceColumns:
    """Return (building on first use) the column set of a decoded trace."""
    cols = dec._columns
    if cols is None:
        cols = TraceColumns(dec)
        dec._columns = cols
    return cols
