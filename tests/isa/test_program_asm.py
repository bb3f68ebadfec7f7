"""Tests for Program validation, rendering and the assembly round trip."""

import pytest

from repro.isa import (Instruction, Opcode, P, ProgramBuilder, ProgramError,
                       R, execute)
from repro.isa.asm import AsmError, parse_asm


def small_program():
    b = ProgramBuilder("demo")
    b.movi(R(1), 0)
    b.movi(R(2), 1)
    b.label("loop")
    b.add(R(1), R(1), R(2))
    b.addi(R(2), R(2), 1)
    b.cmplei(P(1), R(2), 5)
    b.br("loop", pred=P(1))
    b.halt()
    return b.build()


def test_indices_assigned_on_seal():
    p = small_program()
    assert [i.index for i in p] == list(range(len(p)))


def test_unknown_branch_target_rejected():
    b = ProgramBuilder("bad")
    b.br("nowhere")
    with pytest.raises(ProgramError):
        b.build()


def test_duplicate_label_rejected():
    b = ProgramBuilder("bad")
    b.label("x")
    with pytest.raises(ProgramError):
        b.label("x")


def test_pair_form_duplicate_label_rejected_at_seal():
    from repro.isa import Program
    insts = [Instruction(Opcode.MOVI, (R(1),), (), imm=1),
             Instruction(Opcode.HALT)]
    with pytest.raises(ProgramError, match="duplicate label 'x'"):
        Program("dup", insts, [("x", 0), ("x", 1)])


def test_branch_past_end_rejected_at_seal():
    from repro.isa import Program
    insts = [Instruction(Opcode.BR, target="end"),
             Instruction(Opcode.HALT)]
    with pytest.raises(ProgramError, match="past the end"):
        Program("off-end", insts, {"end": 2})


def test_label_index_out_of_range_rejected_at_seal():
    from repro.isa import Program
    insts = [Instruction(Opcode.HALT)]
    with pytest.raises(ProgramError, match="out of range"):
        Program("bad-label", insts, {"x": 99})


def test_parse_asm_rejects_duplicate_label():
    with pytest.raises(AsmError, match="duplicate label 'again'"):
        parse_asm(
            """
            again:
            movi r1 = 1
            again:
            halt
            """
        )


def test_unaligned_data_rejected():
    b = ProgramBuilder("bad")
    with pytest.raises(ProgramError):
        b.data_word(3, 1)


def test_render_contains_labels_and_predicates():
    p = small_program()
    text = p.render()
    assert "loop:" in text
    assert "(p1) br" in text


def test_asm_round_trip_executes_identically():
    p = small_program()
    reparsed = parse_asm(p.render(), name="demo2")
    t1 = execute(p)
    t2 = execute(reparsed)
    assert t1.final_registers == t2.final_registers
    assert len(t1) == len(t2)


def test_asm_round_trip_instruction_fields():
    p = small_program()
    reparsed = parse_asm(p.render())
    for a, b in zip(p.instructions, reparsed.instructions):
        assert a.opcode == b.opcode
        assert a.dests == b.dests
        assert a.srcs == b.srcs
        assert a.pred == b.pred
        assert a.target == b.target


def test_parse_asm_basic():
    p = parse_asm(
        """
        # a comment
        movi r1 = 5
        movi r2 = 3
        add r3 = r1, r2 ;;
        st r3, r3, 0
        halt
        """
    )
    assert len(p) == 5
    assert p[2].stop is True
    t = execute(p)
    assert t.final_memory[8] == 8


def test_parse_asm_rejects_unknown_mnemonic():
    with pytest.raises(AsmError):
        parse_asm("frobnicate r1 = r2")


def test_parse_asm_rejects_branch_without_target():
    with pytest.raises((AsmError, ProgramError)):
        parse_asm("br")


def test_memory_ops_render_offsets():
    i = Instruction(Opcode.LD, (R(2),), (R(1),), imm=8)
    assert "ld" in i.render() and "8" in i.render()


def test_restart_count():
    b = ProgramBuilder("r")
    b.movi(R(1), 1)
    b.restart(R(1))
    b.restart(R(1))
    b.halt()
    assert b.build().restart_count() == 2


# -- one sealed image, shared by derived programs ----------------------------

def test_misaligned_image_word_rejected_at_seal_from_builder():
    """Bulk writes skip ``data_word``'s check; the seal still catches them."""
    b = ProgramBuilder("bad")
    b.halt()
    b.memory[0x102] = 9
    with pytest.raises(ProgramError, match="unaligned memory-image"):
        b.build()


def test_misaligned_image_word_rejected_at_seal_from_asm():
    with pytest.raises(ProgramError, match="unaligned memory-image"):
        parse_asm("halt", memory_image={0x100: 1, 0x102: 9})


def test_derive_shares_the_image_and_copies_the_metadata():
    p = small_program()
    p.memory_image[0x100] = 7
    p.metadata["knob"] = 1
    d = p.derive([Instruction(Opcode.NOP), *p.instructions],
                 {name: idx + 1 for name, idx in p.labels.items()})
    assert d.name == p.name
    assert d.memory_image is p.memory_image
    assert d.metadata == p.metadata and d.metadata is not p.metadata
    assert [i.index for i in d] == list(range(len(d)))
    d.metadata["knob"] = 2
    assert p.metadata["knob"] == 1


def test_derive_checks_the_new_code():
    p = small_program()
    with pytest.raises(ProgramError, match="out of range"):
        p.derive(list(p.instructions), {"loop": 99})
    with pytest.raises(ProgramError, match="unknown label"):
        p.derive(list(p.instructions), {"elsewhere": 0})


@pytest.mark.parametrize("name, fired", [("mcf", "restarts_inserted"),
                                         ("twolf", "if_converted")])
def test_compiled_program_shares_the_source_image(name, fired):
    from repro.compiler import CompileOptions, compile_program
    from repro.workloads import build_workload

    source = build_workload(name, 0.05)
    compiled = compile_program(source, CompileOptions(if_conversion=True))
    assert compiled.memory_image is source.memory_image
    assert compiled.metadata[fired]     # that pass rewrote the code too


def test_execution_leaves_the_shared_image_untouched():
    """The executor copies the image before its stores write to it."""
    p = parse_asm("movi r1 = 5\nst r1, r0, 0x100\nhalt",
                  memory_image={0x100: 1})
    trace = execute(p)
    assert trace.final_memory[0x100] == 5
    assert p.memory_image == {0x100: 1}
