"""Static program representation: instructions, labels, initial memory.

A :class:`Program` is an immutable-once-sealed sequence of
:class:`~repro.isa.instruction.Instruction` objects plus a label map for
branch targets and an initial data-memory image (word addressed, 4-byte
words, byte addresses that must be 4-aligned).

The image is checked once, at seal, and then shared from seal to
executor: the compiler passes build their output with
:meth:`Program.derive`, which keeps the same image dict, and
:class:`~repro.isa.functional.FunctionalSimulator` and
:class:`~repro.multipass.core.MultipassCore` each copy it before writing.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from .instruction import Instruction
from .opcodes import Opcode

WORD_SIZE = 4


class ProgramError(Exception):
    """Raised for malformed programs (unknown labels, bad addresses)."""


@dataclass
class Program:
    """A sealed static program.

    Attributes:
        name: human-readable program/workload name.
        instructions: the instruction sequence.
        labels: label name -> instruction index.  May also be given as an
            iterable of ``(name, index)`` pairs, in which case duplicate
            definitions of a name are rejected at seal time.
        memory_image: initial data memory, word address -> value.  Values
            may be Python ints (integer words) or floats (fp words).
        metadata: free-form notes (workload knobs, footprint size, ...).
    """

    name: str
    instructions: List[Instruction]
    labels: Union[Dict[str, int], Iterable[Tuple[str, int]]]
    memory_image: Dict[int, object] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._seal_code()
        for addr in self.memory_image:
            if addr % WORD_SIZE != 0:
                raise ProgramError(f"unaligned memory-image address: {addr}")

    def _seal_code(self) -> None:
        """Index the instructions and check labels and branch targets."""
        if not isinstance(self.labels, dict):
            # Pair form: reject duplicate definitions of a label name
            # (a dict silently keeps only the last one).
            labels: Dict[str, int] = {}
            for label, idx in self.labels:
                if label in labels:
                    raise ProgramError(
                        f"duplicate label {label!r}: defined at index "
                        f"{labels[label]} and again at index {idx}"
                    )
                labels[label] = idx
            self.labels = labels
        for i, inst in enumerate(self.instructions):
            inst.index = i
        n = len(self.instructions)
        for label, idx in self.labels.items():
            if not isinstance(idx, int) or not 0 <= idx <= n:
                raise ProgramError(f"label {label!r} out of range: {idx}")
        for inst in self.instructions:
            if not inst.is_branch:
                continue
            if inst.target not in self.labels:
                raise ProgramError(
                    f"branch at {inst.index} targets unknown label "
                    f"{inst.target!r}"
                )
            target_idx = self.labels[inst.target]
            if target_idx >= n:
                raise ProgramError(
                    f"branch at {inst.index} targets label "
                    f"{inst.target!r} which points past the end of the "
                    f"program (index {target_idx} of {n} instructions)"
                )

    def derive(self, instructions: List[Instruction],
               labels: Dict[str, int]) -> Program:
        """Seal new code over this program's data.

        The result has this program's name, a copy of its metadata and
        *the same* memory-image dict (checked when this program was
        sealed); only the new instructions and labels are checked.
        """
        derived = copy.copy(self)
        derived.instructions = instructions
        derived.labels = labels
        derived.metadata = dict(self.metadata)
        derived._seal_code()
        return derived

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    def target_index(self, inst: Instruction) -> int:
        """Resolve the instruction index a branch jumps to."""
        if inst.target is None:
            raise ProgramError(f"instruction at {inst.index} has no target")
        return self.labels[inst.target]

    def restart_count(self) -> int:
        """Number of RESTART directives present (after compilation)."""
        return sum(
            1 for i in self.instructions if i.opcode is Opcode.RESTART
        )

    def render(self) -> str:
        """Render the whole program as assembly text."""
        by_index: Dict[int, List[str]] = {}
        for label, idx in self.labels.items():
            by_index.setdefault(idx, []).append(label)
        lines = []
        for inst in self.instructions:
            for label in sorted(by_index.get(inst.index, ())):
                lines.append(f"{label}:")
            lines.append(f"    {inst.render()}")
        for label in sorted(by_index.get(len(self.instructions), ())):
            lines.append(f"{label}:")
        return "\n".join(lines)


def word_addr(index: int, base: int = 0) -> int:
    """Byte address of the ``index``-th word starting at byte ``base``."""
    return base + index * WORD_SIZE


def check_alignment(addr: int, context: Optional[str] = None) -> int:
    """Validate that ``addr`` is word aligned; return it unchanged."""
    if addr % WORD_SIZE != 0:
        where = f" in {context}" if context else ""
        raise ProgramError(f"unaligned address {addr}{where}")
    return addr
