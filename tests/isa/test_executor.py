"""Differential: the columnar golden run against the single-step reference.

``FunctionalSimulator.run`` pre-decodes the program and appends the
trace's dynamic columns; ``FunctionalSimulator.step`` executes one
instruction at a time through the register/memory accessors.  The two
are separate implementations of one semantics, so every program must
give the same trace under both: every ``DecodedTrace`` field with the
``type()`` of each value, the final registers (only those written, never
r0/p0) and the final memory — or the same exception with the same text.

Hypothesis draws programs over every opcode of ``OP_SPECS`` (integer,
FP, compares, conversions, both load/store pairs, forward BR/JMP,
NOP/RESTART, predication, writes to r0/p0); the edge cases are pinned as
fixed programs below.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.isa import (F, FunctionalSimulator, Instruction, Opcode, P,
                       ProgramBuilder, ProgramError, R, TRUE_PRED, ZERO_REG,
                       execute)
from repro.isa.functional import ExecutionLimitExceeded
from repro.isa.opcodes import OP_SPECS, FUClass

#: DecodedTrace fields, each compared value by value (with its type).
FIELDS = ("fu", "issue_fu", "srcs", "dests", "static_dests", "latency", "pc",
          "stop", "executed", "is_load", "is_store", "is_branch",
          "is_restart", "mem_exec", "is_predicated", "addr", "value",
          "taken")


def reference_run(program, max_instructions=2_000_000, truncate_ok=False):
    """The golden run as a loop of the single-step reference ``step()``.

    Returns ``(entries, registers, memory, truncated)``.
    """
    sim = FunctionalSimulator(program, max_instructions=max_instructions)
    entries = []
    truncated = False
    while True:
        if sim.pc >= len(program):
            raise ExecutionLimitExceeded(
                f"{program.name}: fell off the end of the program at "
                f"pc={sim.pc}")
        if len(entries) >= max_instructions:
            if truncate_ok:
                truncated = True
                break
            raise ExecutionLimitExceeded(
                f"{program.name}: exceeded {max_instructions} dynamic "
                f"instructions")
        entry = sim.step(len(entries))
        entries.append(entry)
        if entry.inst.opcode is Opcode.HALT:
            break
    return entries, sim.registers, sim.memory, truncated


def expected_fields(entry):
    """Every DecodedTrace field of one reference entry."""
    inst = entry.inst
    return {
        "fu": inst.spec.fu,
        "issue_fu": entry.fu if entry.executed else FUClass.NONE,
        "srcs": entry.srcs,
        "dests": entry.dests,
        "static_dests": inst.dests,
        "latency": entry.latency,
        "pc": inst.index,
        "stop": inst.stop,
        "executed": entry.executed,
        "is_load": entry.is_load,
        "is_store": entry.is_store,
        "is_branch": entry.is_branch,
        "is_restart": entry.is_restart,
        "mem_exec": entry.executed and (entry.is_load or entry.is_store),
        "is_predicated": inst.is_predicated,
        "addr": entry.addr,
        "value": entry.value,
        "taken": entry.taken,
    }


def typed(value):
    """A value with its type, equal only to the same value of the same
    type (``1 == 1.0 == True`` but these must not match)."""
    if isinstance(value, tuple):
        return tuple(typed(v) for v in value)
    return type(value).__name__, repr(value)


def typed_state(state):
    return {k: typed(v) for k, v in state.items()}


def _outcome(fn):
    try:
        return fn(), None
    except (ExecutionLimitExceeded, ProgramError, ArithmeticError,
            TypeError, ValueError) as exc:
        return None, (type(exc), str(exc))


def assert_same_run(program, max_instructions=2_000_000, truncate_ok=False):
    """Run both executors; assert identical traces (or errors).

    Returns the columnar trace (``None`` when both raised).
    """
    trace, err = _outcome(lambda: execute(
        program, max_instructions=max_instructions, truncate_ok=truncate_ok))
    ref, ref_err = _outcome(lambda: reference_run(
        program, max_instructions, truncate_ok))
    assert err == ref_err
    if ref is None:
        return None
    entries, registers, memory, truncated = ref
    assert len(trace) == len(entries)
    assert trace.truncated == truncated
    dec = trace.decoded
    assert dec.n == len(entries)
    for seq, entry in enumerate(entries):
        want = expected_fields(entry)
        for field in FIELDS:
            got = getattr(dec, field)[seq]
            assert typed(got) == typed(want[field]), (seq, field)
    assert ZERO_REG not in trace.final_registers
    assert TRUE_PRED not in trace.final_registers
    assert typed_state(trace.final_registers) == typed_state(registers)
    assert typed_state(trace.final_memory) == typed_state(memory)
    return trace


# -- drawn programs over every opcode ---------------------------------------

INTS = [R(1), R(2), R(3), R(4), R(5)]
FPS = [F(1), F(2), F(3), F(4)]
PREDS = [P(1), P(2)]
INT_BASE, FP_BASE = R(12), R(13)
COUNTER, LOOP_PRED = R(14), P(3)
INT_REGION, FP_REGION = 0x2000, 0x4000

int_src = st.sampled_from(INTS + [ZERO_REG])
int_dest = st.sampled_from(INTS + [ZERO_REG])
fp_reg = st.sampled_from(FPS)
pred_dest = st.sampled_from(PREDS + [TRUE_PRED])
guard = st.sampled_from([TRUE_PRED, TRUE_PRED] + PREDS)
imm = st.integers(-(1 << 33), 1 << 33)
offset = st.integers(0, 7).map(lambda k: 4 * k)

INT_BIN = ("add", "sub", "and_", "or_", "xor", "shl", "shr", "mul", "div")
INT_IMM = ("addi", "subi", "andi", "xori", "shli", "shri")
INT_CMP = ("cmpeq", "cmpne", "cmplt", "cmple")
INT_CMPI = ("cmpeqi", "cmpnei", "cmplti", "cmplei")
FP_BIN = ("fadd", "fsub", "fmul", "fdiv")
FP_CMP = ("fcmplt", "fcmple")

op = st.one_of(
    st.tuples(st.sampled_from(INT_BIN), int_dest, int_src, int_src),
    st.tuples(st.sampled_from(INT_IMM), int_dest, int_src, imm),
    st.tuples(st.sampled_from(INT_CMP), pred_dest, int_src, int_src),
    st.tuples(st.sampled_from(INT_CMPI), pred_dest, int_src, imm),
    st.tuples(st.just("mov"), int_dest, int_src),
    st.tuples(st.just("movi"), int_dest, imm),
    st.tuples(st.sampled_from(FP_BIN), fp_reg, fp_reg, fp_reg),
    st.tuples(st.sampled_from(FP_CMP), pred_dest, fp_reg, fp_reg),
    st.tuples(st.just("fmov"), fp_reg, fp_reg),
    st.tuples(st.just("fmovi"), fp_reg, st.integers(-8, 8)),
    st.tuples(st.just("cvtif"), fp_reg, int_src),
    st.tuples(st.just("cvtfi"), int_dest, fp_reg),
    st.tuples(st.just("ld"), int_dest, offset),
    st.tuples(st.just("st"), int_src, offset),
    st.tuples(st.just("fld"), fp_reg, offset),
    st.tuples(st.just("fst"), fp_reg, offset),
    st.tuples(st.sampled_from(("br_skip", "jmp_skip"))),
    st.tuples(st.sampled_from(("nop", "restart"))),
)

#: Each drawn op with the predicate guarding it.
guarded_op = st.tuples(op, guard)

programs = st.tuples(
    st.lists(guarded_op, min_size=1, max_size=30),
    st.integers(1, 4),             # loop trip count
    st.lists(st.integers(-8, 8), min_size=8, max_size=8),  # fp data
)


def materialize(spec):
    """Build the drawn program: a preamble, the body in a counted loop,
    then HALT.  Integer and FP values stay in their own registers and
    memory regions, so every drawn program runs to completion."""
    body, trips, fp_data = spec
    b = ProgramBuilder("drawn")
    b.data_words(FP_REGION, [float(v) / 2 for v in fp_data])
    for i, r in enumerate(INTS):
        b.movi(r, 3 * i - 4)
    for i, f in enumerate(FPS):
        b.fmovi(f, 1.5 * i - 2)
    b.movi(INT_BASE, INT_REGION)
    b.movi(FP_BASE, FP_REGION)
    b.movi(COUNTER, trips)
    b.cmplti(P(1), INTS[0], 0)
    b.label("loop")
    for k, ((kind, *args), pred) in enumerate(body):
        if kind in ("br_skip", "jmp_skip"):
            target = f"skip{k}"
            if kind == "br_skip":
                b.br(target, pred=pred)
            else:
                b.jmp(target)
            b.addi(INTS[k % len(INTS)], INTS[0], 1)
            b.label(target)
        elif kind == "ld":
            b.ld(args[0], INT_BASE, args[1], pred=pred)
        elif kind == "st":
            b.st(args[0], INT_BASE, args[1], pred=pred)
        elif kind == "fld":
            b.fld(args[0], FP_BASE, args[1], pred=pred)
        elif kind == "fst":
            b.fst(args[0], FP_BASE, args[1], pred=pred)
        elif kind == "nop":
            b.nop()
        elif kind == "restart":
            b.restart(INTS[0], pred=pred)
        else:
            getattr(b, kind)(*args, pred=pred)
    b.subi(COUNTER, COUNTER, 1)
    b.cmpnei(LOOP_PRED, COUNTER, 0)
    b.br("loop", pred=LOOP_PRED)
    b.halt()
    return b.build()


def test_strategy_covers_every_opcode():
    """The drawn op shapes plus the loop scaffold reach every opcode."""
    names = set(INT_BIN + INT_IMM + INT_CMP + INT_CMPI + FP_BIN + FP_CMP)
    names |= {"mov", "movi", "fmov", "fmovi", "cvtif", "cvtfi", "ld", "st",
              "fld", "fst", "nop", "restart", "br", "jmp", "halt"}
    mnemonics = {name.rstrip("_") for name in names}
    assert mnemonics == {spec.mnemonic for spec in OP_SPECS.values()}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs, st.one_of(st.just(2_000_000), st.integers(0, 80)),
       st.booleans())
def test_run_matches_step_reference(spec, limit, truncate_ok):
    assert_same_run(materialize(spec), limit, truncate_ok)


# -- pinned edge cases --------------------------------------------------------

def _program(build, name="t"):
    b = ProgramBuilder(name)
    build(b)
    return b.build()


def test_predicated_halt_ends_the_run():
    def body(b):
        b.cmpeqi(P(1), R(0), 1)          # p1 = false
        b.emit(Instruction(Opcode.HALT, pred=P(1)))
        b.movi(R(1), 9)
        b.halt()

    trace = assert_same_run(_program(body))
    assert len(trace) == 2
    assert trace.decoded.executed[-1] is True
    assert trace.decoded.srcs[-1] == ()
    assert R(1) not in trace.final_registers


def test_writes_to_r0_and_p0_are_discarded():
    def body(b):
        b.movi(R(0), 5)
        b.add(R(1), R(0), R(0))
        b.cmpeqi(P(0), R(0), 1)          # would make p0 false
        b.addi(R(2), R(0), 7, pred=P(0))
        b.mov(R(3), P(0))
        b.halt()

    trace = assert_same_run(_program(body))
    regs = trace.final_registers
    assert regs == {R(1): 0, R(2): 7, R(3): True}
    assert trace.decoded.dests[0] == (R(0),)


def test_nullified_branch_falls_through():
    def body(b):
        b.cmpeqi(P(1), R(0), 1)          # p1 = false
        b.br("skip", pred=P(1))
        b.movi(R(1), 4)
        b.label("skip")
        b.halt()

    trace = assert_same_run(_program(body))
    dec = trace.decoded
    assert (dec.executed[1], dec.taken[1], dec.srcs[1]) == (False, False,
                                                           (P(1),))
    assert trace.final_registers[R(1)] == 4


def test_division_by_zero():
    def body(b):
        b.movi(R(1), -9)
        b.div(R(2), R(1), R(0))
        b.fmovi(F(1), 3.0)
        b.fdiv(F(2), F(1), F(0))         # f0 never written: int 0
        b.fmovi(F(3), 0.0)
        b.fdiv(F(4), F(1), F(3))
        b.halt()

    trace = assert_same_run(_program(body))
    regs = trace.final_registers
    assert typed(regs[R(2)]) == typed(0)
    assert typed(regs[F(2)]) == typed(0.0)
    assert typed(regs[F(4)]) == typed(0.0)


def _spin(b):
    b.movi(R(1), 0)
    b.label("spin")
    b.addi(R(1), R(1), 1)
    b.jmp("spin")
    b.halt()


def test_instruction_limit_truncates():
    trace = assert_same_run(_program(_spin), 50, truncate_ok=True)
    assert trace.truncated and len(trace) == 50
    assert trace.final_registers[R(1)] == 25


def test_instruction_limit_raises():
    program = _program(_spin)
    assert assert_same_run(program, 50) is None
    with pytest.raises(ExecutionLimitExceeded,
                       match="t: exceeded 50 dynamic instructions"):
        execute(program, max_instructions=50)


def test_falling_off_the_end_raises():
    def body(b):
        b.movi(R(1), 1)
        b.addi(R(1), R(1), 1)

    program = _program(body)
    for limit, truncate_ok in ((100, False), (2, True), (2, False)):
        assert assert_same_run(program, limit, truncate_ok) is None
        with pytest.raises(ExecutionLimitExceeded,
                           match="fell off the end of the program at pc=2"):
            execute(program, max_instructions=limit,
                    truncate_ok=truncate_ok)


@pytest.mark.parametrize("store", [False, True])
def test_unaligned_access_raises_program_error(store):
    def body(b):
        b.movi(R(1), 0x102)
        if store:
            b.st(R(1), R(1), 0)
        else:
            b.ld(R(2), R(1), 0)
        b.halt()

    program = _program(body, name="odd")
    assert assert_same_run(program) is None
    with pytest.raises(ProgramError, match=r"^unaligned address 258 in odd$"):
        execute(program)
