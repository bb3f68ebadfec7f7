"""One intentionally-broken program per lint rule.

Each test builds (or mutates) a program that violates exactly one
verifier contract and asserts the specific diagnostic code, so a future
refactor of the verifier cannot silently stop catching a rule.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import diagnostics as dc
from repro.analysis import (VerifierError, assert_valid, verify_compiled,
                            verify_program)
from repro.isa import P, R, ProgramBuilder
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program


def codes(diags):
    return {d.code for d in diags}


def simple_program():
    b = ProgramBuilder("ok")
    b.movi(R(1), 4)
    b.movi(R(2), 0x100)
    b.label("loop")
    b.ld(R(3), R(2), 0)
    b.add(R(4), R(3), R(1))
    b.st(R(4), R(2), 0)
    b.subi(R(1), R(1), 1)
    b.cmplti(P(1), R(1), 1)
    b.cmpeqi(P(2), P(1), 0)
    b.br("loop", pred=P(2))
    b.halt()
    b.data_word(0x100, 7)
    return b.build()


def test_clean_program_has_no_diagnostics():
    assert verify_program(simple_program()) == []


def test_assert_valid_passes_clean_program():
    assert_valid(simple_program())


# -- register liveness ------------------------------------------------------

def test_use_before_def_flags_UBD001():
    b = ProgramBuilder("ubd")
    b.add(R(1), R(5), R(5))        # r5 never defined
    b.halt()
    diags = verify_program(b.build())
    assert dc.UBD001 in codes(diags)
    (diag,) = [d for d in diags if d.code == dc.UBD001]
    assert diag.index == 0
    assert diag.is_error


def test_use_before_def_accepts_hardwired_registers():
    b = ProgramBuilder("hardwired")
    b.add(R(1), R(0), R(0))        # r0 is the hardwired zero
    b.halt()
    assert dc.UBD001 not in codes(verify_program(b.build()))


def test_dead_write_flags_DWR001_as_warning():
    b = ProgramBuilder("dwr")
    b.movi(R(1), 1)                # overwritten before any use
    b.movi(R(1), 2)
    b.halt()
    diags = verify_program(b.build())
    (diag,) = [d for d in diags if d.code == dc.DWR001]
    assert diag.index == 0
    assert not diag.is_error       # warnings never fail assert_valid
    assert_valid(b.build())


def test_no_exit_loop_flags_CFG001_as_warning():
    b = ProgramBuilder("spin")
    b.movi(R(1), 4)
    b.label("spin")
    b.subi(R(1), R(1), 1)
    b.jmp("spin")                  # unconditional back edge: no way out
    b.halt()                       # unreachable
    diags = verify_program(b.build())
    (diag,) = [d for d in diags if d.code == dc.CFG001]
    assert not diag.is_error
    assert diag.index == 1         # anchored at the loop header
    assert dc.UNR001 in codes(diags)
    assert_valid(b.build())        # warnings never fail assert_valid


def test_exiting_loop_does_not_flag_CFG001():
    assert dc.CFG001 not in codes(verify_program(simple_program()))


def test_unreachable_code_flags_UNR001():
    b = ProgramBuilder("unr")
    b.jmp("end")
    b.movi(R(1), 5)                # skipped on every path
    b.label("end")
    b.halt()
    diags = verify_program(b.build())
    (diag,) = [d for d in diags if d.code == dc.UNR001]
    assert diag.index == 1


# -- label integrity --------------------------------------------------------

def test_unknown_branch_target_flags_LBL001():
    program = simple_program()
    program.labels["elsewhere"] = program.labels.pop("loop")
    diags = verify_program(program)
    assert dc.LBL001 in codes(diags)


def test_branch_past_end_flags_LBL002():
    program = simple_program()
    program.labels["loop"] = len(program)   # end-of-program sentinel
    diags = verify_program(program)
    assert dc.LBL002 in codes(diags)


def test_label_out_of_range_flags_LBL003():
    program = simple_program()
    program.labels["loop"] = 999
    diags = verify_program(program)
    assert dc.LBL003 in codes(diags)


def test_assert_valid_raises_with_diagnostics():
    program = simple_program()
    program.labels["loop"] = 999
    with pytest.raises(VerifierError) as exc_info:
        assert_valid(program)
    assert any(d.code == dc.LBL003 for d in exc_info.value.diagnostics)


# -- memory image -----------------------------------------------------------

def test_misaligned_memory_image_flags_MEM001():
    program = simple_program()
    program.memory_image[0x102] = 9         # not word aligned
    diags = verify_program(program)
    assert dc.MEM001 in codes(diags)


def test_MEM001_reports_offenders_in_address_order():
    program = simple_program()
    program.memory_image[0x10A] = 1
    program.memory_image[0x104] = 2         # aligned: no finding
    program.memory_image[0x101] = 3
    found = [d.message for d in verify_program(program)
             if d.code == dc.MEM001]
    assert found == [
        "memory-image address 0x101 is not 4-byte aligned",
        "memory-image address 0x10a is not 4-byte aligned",
    ]


# -- RESTART legality -------------------------------------------------------

def test_orphan_restart_no_producer_flags_RST001():
    program = Program("orphan", [
        Instruction(Opcode.RESTART, (), (R(2),)),   # r2 never defined
        Instruction(Opcode.HALT),
    ], {})
    diags = verify_program(program)
    assert dc.RST001 in codes(diags)


def test_restart_fed_by_non_load_flags_RST001():
    program = Program("nonload", [
        Instruction(Opcode.MOVI, (R(1),), (), imm=5),
        Instruction(Opcode.RESTART, (), (R(1),)),
        Instruction(Opcode.HALT),
    ], {})
    diags = verify_program(program)
    (diag,) = [d for d in diags if d.code == dc.RST001]
    assert diag.index == 1


def test_restart_wrong_shape_flags_RST002():
    program = Program("shape", [
        Instruction(Opcode.RESTART, (), ()),        # no operand
        Instruction(Opcode.HALT),
    ], {})
    diags = verify_program(program)
    assert dc.RST002 in codes(diags)


def test_restart_on_uncritical_load_flags_RST003():
    program = Program("uncritical", [
        Instruction(Opcode.MOVI, (R(1),), (), imm=0x100),
        Instruction(Opcode.LD, (R(2),), (R(1),), imm=0),
        Instruction(Opcode.RESTART, (), (R(2),)),
        Instruction(Opcode.HALT),
    ], {}, memory_image={0x100: 1})
    diags = verify_program(program)
    (diag,) = [d for d in diags if d.code == dc.RST003]
    assert diag.index == 2


def _chase_program(extra_restart):
    """mcf-style pointer chase with RESTART slot(s) on the chase load."""
    b = ProgramBuilder("chase")
    b.movi(R(1), 0x1000)
    b.movi(R(2), 0)
    b.movi(R(3), 10)
    b.label("loop")
    b.ld(R(1), R(1), 0)            # 3: critical recurrence load
    b.restart(R(1))                # 4: legal coverage
    if extra_restart:
        b.restart(R(1))            # 5: adds nothing
    b.ld(R(4), R(1), 4)
    b.mul(R(5), R(4), R(4))
    b.add(R(2), R(2), R(5))
    b.subi(R(3), R(3), 1)
    b.cmplti(P(1), R(3), 1)
    b.cmpeqi(P(2), P(1), 0)
    b.br("loop", pred=P(2))
    b.halt()
    for i in range(16):
        b.data_word(0x1000 + i * 8, 0x1000 + ((i + 1) % 16) * 8)
        b.data_word(0x1000 + i * 8 + 4, i)
    return b.build()


def test_single_restart_on_critical_load_is_clean():
    diags = verify_program(_chase_program(extra_restart=False))
    assert not codes(diags) & {dc.RST001, dc.RST002, dc.RST003,
                               dc.RST004}


def test_second_restart_on_same_load_flags_RST004():
    diags = verify_program(_chase_program(extra_restart=True))
    (diag,) = [d for d in diags if d.code == dc.RST004]
    assert diag.index == 5         # the second slot, not the first
    assert not diag.is_error       # wasted slot, not an illegal program
    assert dc.RST003 not in codes(diags)
    assert_valid(_chase_program(extra_restart=True))


# -- issue-group legality ---------------------------------------------------

def _grouped(instructions):
    """Seal a hand-grouped instruction list (groups/stops preassigned)."""
    return Program("grouped", instructions, {})


def test_group_over_port_capacity_flags_GRP001():
    # Three MULDIV ops in one group on a 2-wide FP/MULDIV port model.
    program = _grouped([
        Instruction(Opcode.MUL, (R(1),), (R(0), R(0)), group=0),
        Instruction(Opcode.MUL, (R(2),), (R(0), R(0)), group=0),
        Instruction(Opcode.MUL, (R(3),), (R(0), R(0)), group=0, stop=True),
        Instruction(Opcode.HALT, group=1, stop=True),
    ])
    diags = verify_compiled(program)
    (diag,) = [d for d in diags if d.code == dc.GRP001]
    assert diag.index == 2


def test_intra_group_raw_flags_GRP002():
    program = _grouped([
        Instruction(Opcode.ADD, (R(1),), (R(0), R(0)), group=0),
        Instruction(Opcode.ADD, (R(2),), (R(1), R(0)), group=0, stop=True),
        Instruction(Opcode.HALT, group=1, stop=True),
    ])
    diags = verify_compiled(program)
    (diag,) = [d for d in diags if d.code == dc.GRP002]
    assert diag.index == 1


def test_stop_bit_inside_group_flags_GRP003():
    program = _grouped([
        Instruction(Opcode.ADD, (R(1),), (R(0), R(0)), group=0, stop=True),
        Instruction(Opcode.ADD, (R(2),), (R(0), R(0)), group=0, stop=True),
        Instruction(Opcode.HALT, group=1, stop=True),
    ])
    diags = verify_compiled(program)
    assert dc.GRP003 in codes(diags)


def test_decreasing_group_ordinals_flag_GRP003():
    program = _grouped([
        Instruction(Opcode.ADD, (R(1),), (R(0), R(0)), group=1, stop=True),
        Instruction(Opcode.ADD, (R(2),), (R(0), R(0)), group=0, stop=True),
        Instruction(Opcode.HALT, group=2, stop=True),
    ])
    diags = verify_compiled(program)
    assert dc.GRP003 in codes(diags)


# -- end to end over the compiler -------------------------------------------

def test_compiled_simple_program_verifies_cleanly():
    from repro.compiler import CompileOptions, compile_program
    compiled = compile_program(simple_program(), CompileOptions())
    assert [d for d in verify_compiled(compiled) if d.is_error] == []


# -- import weight ------------------------------------------------------------

def test_verifier_import_leaves_the_bound_oracle_unloaded():
    """Every fresh process's first workload build imports the verifier
    inside its timed pass; the cycle-bound oracle must not come along."""
    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys, repro.workloads, repro.analysis.verifier; "
            "print([m for m in ('repro.analysis.audit', "
            "'repro.analysis.bounds') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
