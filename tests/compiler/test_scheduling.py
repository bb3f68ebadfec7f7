"""Tests for the list scheduler and issue-group formation."""

import pytest

from repro.compiler import (CompileOptions, compile_program,
                            form_issue_groups, list_schedule)
from repro.isa import F, Opcode, P, ProgramBuilder, R, execute
from repro.resources import PortModel, PortTracker
from repro.isa.opcodes import FUClass


def chain_program():
    b = ProgramBuilder("chain")
    b.movi(R(1), 1)
    b.addi(R(2), R(1), 1)     # depends on previous
    b.addi(R(3), R(2), 1)
    b.movi(R(10), 5)          # independent
    b.movi(R(11), 6)          # independent
    b.halt()
    return b.build()


def test_groups_split_on_raw_dependence():
    p = form_issue_groups(chain_program())
    groups = [i.group for i in p]
    # The three chained adds must live in three different groups.
    assert groups[0] != groups[1] != groups[2]
    # Independent movis can share the first group.
    assert groups[3] == groups[0] or groups[4] == groups[0] or \
        groups[3] == groups[4]


def test_groups_split_on_waw():
    b = ProgramBuilder("waw")
    b.movi(R(1), 1)
    b.movi(R(1), 2)
    b.halt()
    p = form_issue_groups(b.build())
    assert p[0].group != p[1].group


def test_branch_closes_group():
    b = ProgramBuilder("br")
    b.movi(R(1), 0)
    b.cmpeqi(P(1), R(1), 0)
    b.br("end", pred=P(1))
    b.label("end")
    b.halt()
    p = form_issue_groups(b.build())
    br = next(i for i in p if i.opcode is Opcode.BR)
    assert br.stop is True
    assert p[br.index + 1].group != br.group


def test_branch_target_starts_group():
    b = ProgramBuilder("tgt")
    b.movi(R(1), 1)
    b.movi(R(2), 2)
    b.label("tgt")
    b.movi(R(3), 3)
    b.jmp("tgt")
    p = form_issue_groups(b.build())
    assert p[2].group != p[1].group


def test_load_after_store_splits_group():
    b = ProgramBuilder("mem")
    b.movi(R(1), 0x40)
    b.movi(R(2), 9)
    b.st(R(2), R(1), 0)
    b.ld(R(3), R(1), 0)
    b.halt()
    p = form_issue_groups(b.build())
    st = next(i for i in p if i.opcode is Opcode.ST)
    ld = next(i for i in p if i.opcode is Opcode.LD)
    assert st.group != ld.group


def test_width_limit_respected():
    b = ProgramBuilder("wide")
    for i in range(1, 10):
        b.movi(R(i), i)    # 9 independent movis
    b.halt()
    p = form_issue_groups(b.build(), PortModel(width=6))
    from collections import Counter
    sizes = Counter(i.group for i in p if i.opcode is Opcode.MOVI)
    assert max(sizes.values()) <= 6


def test_port_limits_respected():
    b = ProgramBuilder("fp")
    for i in range(1, 5):
        b.fadd(F(i), F(10 + i), F(20 + i))   # 4 independent fp adds
    b.halt()
    p = form_issue_groups(b.build(), PortModel(f_ports=2))
    from collections import Counter
    sizes = Counter(i.group for i in p if i.opcode is Opcode.FADD)
    assert max(sizes.values()) <= 2


def test_port_tracker_alu_spills_to_m_ports():
    tracker = PortTracker(PortModel(width=6, m_ports=4, i_ports=2))
    for _ in range(6):
        assert tracker.can_issue(FUClass.ALU)
        tracker.issue(FUClass.ALU)
    assert not tracker.can_issue(FUClass.ALU)
    # Table 2's default model: the third ALU spills to an M port, so
    # only three of four later MEMs fit.
    tracker = PortTracker(PortModel())
    fits = []
    for fu in [FUClass.ALU] * 3 + [FUClass.MEM] * 4:
        fits.append(tracker.can_issue(fu))
        if fits[-1]:
            tracker.issue(fu)
    assert fits == [True] * 6 + [False]
    assert (tracker.i_used, tracker.m_used) == (2, 4)


#: Table 2's per-cycle limits on the default PortModel (6-issue; 4 M,
#: 2 I, 2 F and 3 B ports): classes issued in turn, and how many fit.
#: FP and MULDIV share the F ports; a slot-only entry meets only the
#: width.
TABLE2_LIMITS = [
    ((FUClass.MEM,), 4),
    ((FUClass.ALU,), 6),
    ((FUClass.FP, FUClass.MULDIV), 2),
    ((FUClass.BR,), 3),
    ((FUClass.NONE,), 6),
]


def test_port_tracker_rejects_overflow():
    tracker = PortTracker(PortModel(f_ports=1))
    tracker.issue(FUClass.FP)
    with pytest.raises(ValueError):
        tracker.issue(FUClass.FP)
    for classes, limit in TABLE2_LIMITS:
        tracker = PortTracker(PortModel())
        for k in range(limit):
            tracker.issue(classes[k % len(classes)])
        for fu in classes:
            assert not tracker.can_issue(fu), (classes, fu)
            with pytest.raises(ValueError):
                tracker.issue(fu)


def mixed_program():
    b = ProgramBuilder("mixed")
    b.data_words(0x200, range(100))
    b.movi(R(1), 0x200)
    b.movi(R(2), 0)
    b.movi(R(3), 20)
    b.label("loop")
    b.ld(R(4), R(1), 0)
    b.mul(R(5), R(4), R(4))
    b.add(R(2), R(2), R(5))
    b.st(R(2), R(1), 400)
    b.addi(R(1), R(1), 4)
    b.subi(R(3), R(3), 1)
    b.cmplti(P(1), R(3), 1)
    b.cmpeqi(P(2), P(1), 0)
    b.br("loop", pred=P(2))
    b.halt()
    return b.build()


def test_list_schedule_preserves_semantics():
    p = mixed_program()
    scheduled = list_schedule(p)
    t1 = execute(p)
    t2 = execute(scheduled)
    assert t1.final_registers == t2.final_registers
    assert t1.final_memory == t2.final_memory
    assert len(t1) == len(t2)


def test_list_schedule_keeps_block_sizes():
    p = mixed_program()
    scheduled = list_schedule(p)
    assert len(scheduled) == len(p)
    # Control instructions stay last in their blocks.
    from repro.compiler import build_cfg
    cfg = build_cfg(scheduled)
    for block in cfg:
        last = scheduled[block.end - 1]
        body = [scheduled[i] for i in range(block.start, block.end - 1)]
        assert not any(i.is_branch or i.opcode is Opcode.HALT for i in body)
        assert last.index == block.end - 1


def test_compile_program_full_pipeline_preserves_semantics():
    from tests.compiler.test_scc_criticality import pointer_chase_program
    p = pointer_chase_program()
    out = compile_program(p)
    t1 = execute(p)
    t2 = execute(out)
    assert t1.final_registers == t2.final_registers
    assert out.restart_count() >= 1
    assert all(i.group >= 0 for i in out)


def test_compile_options_disable_restarts():
    from tests.compiler.test_scc_criticality import pointer_chase_program
    p = pointer_chase_program()
    out = compile_program(p, CompileOptions(restarts=False))
    assert out.restart_count() == 0
