"""CFP2000 kernels: art, equake, ammp, mesa.

The paper notes the CFP2000 benchmarks have fewer chained misses and fewer
critical strongly-connected components, so advance restart contributes
little there — their miss behaviour is streaming (``art``, ``mesa``),
indexed-gather (``equake``), or drowned under long floating-point latency
(``ammp``).
"""

from __future__ import annotations

from ..isa import F, P, R, WORD_SIZE
from ..isa.builder import ProgramBuilder
from ..isa.program import Program
from .common import (Allocator, counted_loop, locality_draw, register,
                     rng_for, scaled)


@register("art", "CFP2000",
          "adaptive-resonance neural match: L2-resident weight-block MACs "
          "with periodic uncommitted-prototype fetches from far memory")
def build_art(scale: float = 1.0) -> Program:
    b = ProgramBuilder("art")
    rng = rng_for("art")
    alloc = Allocator()

    n_weights = scaled(8_000, scale, 256)       # 32 KB: L2-resident block
    iters = scaled(2_400, scale, 32)

    weights = alloc.alloc(n_weights)
    inputs = alloc.alloc(1_024)
    for i in range(0, n_weights, 4):
        b.data_word(weights + i * WORD_SIZE, rng.random())
    for i in range(1_024):
        b.data_word(inputs + i * WORD_SIZE, rng.random())

    w_ptr, x_ptr, count, w_end, tmp = R(1), R(2), R(3), R(4), R(5)
    x_idx, x_base = R(6), R(7)
    seed, mult, tmp2, far_base, far_addr = R(8), R(9), R(10), R(11), R(12)
    far_words = 1 << 21                         # uncommitted F2 prototypes
    w0, w1, x0, x1, acc0, acc1, prod0, prod1 = \
        F(1), F(2), F(3), F(4), F(5), F(6), F(7), F(8)
    match0, match1 = F(9), F(10)

    b.movi(w_ptr, weights)
    b.movi(w_end, weights + n_weights * WORD_SIZE)
    b.movi(x_ptr, inputs)
    b.movi(x_base, inputs)
    b.movi(x_idx, 0)
    b.movi(count, iters)
    b.movi(seed, 0xFEDCBA)
    b.movi(mult, 1103515245)
    b.movi(far_base, alloc.alloc(far_words))
    b.fmovi(acc0, 0.0)
    b.fmovi(acc1, 0.0)

    b.label("f1")
    # Two-way unrolled streaming MAC: independent misses + FP latency.
    b.fld(w0, w_ptr, 0)
    b.fld(w1, w_ptr, 8 * WORD_SIZE)
    # Every eighth step compares against an uncommitted prototype row:
    # a fresh main-memory miss.
    b.mul(seed, seed, mult)
    b.addi(seed, seed, 12345)
    b.andi(tmp2, seed, 7)
    b.cmpeqi(P(4), tmp2, 0)
    b.shri(far_addr, seed, 3)
    b.andi(far_addr, far_addr, far_words - 1)
    b.shli(far_addr, far_addr, 2)
    b.add(far_addr, far_addr, far_base)
    b.fld(w0, far_addr, 0, pred=P(4))
    b.fld(x0, x_ptr, 0)
    b.fld(x1, x_ptr, WORD_SIZE)
    b.fmul(prod0, w0, x0)
    b.fmul(prod1, w1, x1)
    b.fadd(match0, w0, x0)
    b.fmul(match1, match0, prod0)
    b.fadd(prod1, prod1, match1)
    b.fadd(acc0, acc0, prod0)
    b.fadd(acc1, acc1, prod1)
    b.addi(w_ptr, w_ptr, 16 * WORD_SIZE)
    b.cmplt(P(1), w_ptr, w_end)
    b.movi(tmp, weights)
    b.cmpeqi(P(2), P(1), 0)
    b.mov(w_ptr, tmp, pred=P(2))
    b.addi(x_idx, x_idx, 2)
    b.andi(x_idx, x_idx, 1_023)
    b.shli(tmp, x_idx, 2)
    b.add(x_ptr, tmp, x_base)
    counted_loop(b, "f1", count, P(3))
    b.fadd(acc0, acc0, acc1)
    b.fst(acc0, w_ptr, 0)
    b.halt()

    b.metadata.update(n_weights=n_weights, iters=iters,
                      inputs_base=inputs)
    return b.build()


@register("equake", "CFP2000",
          "seismic FEM: CSR sparse matrix-vector product with scattered "
          "x[col[k]] gathers and serial FP accumulation")
def build_equake(scale: float = 1.0) -> Program:
    b = ProgramBuilder("equake")
    rng = rng_for("equake")
    alloc = Allocator()

    n_cols = scaled(120_000, scale, 256)        # ~480 KB vector
    n_nnz = scaled(500, scale, 64)              # row block, reused per step
    iters = scaled(2_600, scale, 32)

    values = alloc.alloc(n_nnz)
    colidx = alloc.alloc(n_nnz)
    xvec = alloc.alloc(n_cols)
    for i in range(n_nnz):
        b.data_word(values + i * WORD_SIZE, rng.random())
        b.data_word(colidx + i * WORD_SIZE, rng.randrange(n_cols))
    memory = b.memory
    for addr in range(xvec, xvec + n_cols * WORD_SIZE, 4 * WORD_SIZE):
        memory[addr] = rng.random()

    k_ptr, col, x_addr, count, nnz_end, tmp = \
        R(1), R(2), R(3), R(4), R(5), R(6)
    x_base, val_off = R(7), R(8)
    seed, mult, tmp2, far_base = R(9), R(10), R(11), R(12)
    far_words = 1 << 21                         # 8 MB remote-node region
    a_val, x_val, prod, rowsum = F(1), F(2), F(3), F(4)
    disp, vel, rowsum2 = F(5), F(6), F(7)

    b.movi(k_ptr, colidx)
    b.movi(nnz_end, colidx + n_nnz * WORD_SIZE)
    b.movi(x_base, xvec)
    b.movi(val_off, values - colidx)
    b.movi(count, iters)
    b.movi(seed, 0x2468ACE)
    b.movi(mult, 1103515245)
    b.movi(far_base, alloc.alloc(far_words))
    b.fmovi(rowsum, 0.0)
    b.fmovi(rowsum2, 0.0)

    b.label("spmv")
    b.ld(col, k_ptr, 0)                 # sequential column index
    b.add(tmp, k_ptr, val_off)
    b.fld(a_val, tmp, 0)                # matching matrix value
    b.shli(x_addr, col, 2)
    b.add(x_addr, x_addr, x_base)
    # Every eighth element touches a remote mesh node: a fresh
    # main-memory miss (the unbounded part of equake's working set).
    b.mul(seed, seed, mult)
    b.addi(seed, seed, 12345)
    b.andi(tmp2, seed, 7)
    b.cmpeqi(P(4), tmp2, 0)
    b.shri(tmp2, seed, 3)
    b.andi(tmp2, tmp2, far_words - 1)
    b.shli(tmp2, tmp2, 2)
    b.add(tmp2, tmp2, far_base, pred=P(4))
    b.mov(x_addr, tmp2, pred=P(4))
    b.fld(x_val, x_addr, 0)             # scattered gather: x[col[k]]
    # Element update: several FP operations hang off every gathered
    # value (stiffness x displacement, damping, time integration).
    b.fmul(prod, a_val, x_val)
    b.fadd(disp, x_val, a_val)
    b.fmul(vel, disp, prod)
    b.fadd(prod, prod, vel)
    b.fmul(disp, disp, disp)
    b.fadd(vel, vel, disp)
    b.fadd(rowsum, rowsum, prod)        # serial FP recurrence
    b.fadd(rowsum2, rowsum2, vel)
    b.addi(k_ptr, k_ptr, WORD_SIZE)
    b.cmplt(P(1), k_ptr, nnz_end)
    b.movi(tmp, colidx)
    b.cmpeqi(P(2), P(1), 0)
    b.mov(k_ptr, tmp, pred=P(2))
    counted_loop(b, "spmv", count, P(3))
    b.fst(rowsum, x_base, 0)
    b.halt()

    b.metadata.update(n_cols=n_cols, n_nnz=n_nnz, iters=iters)
    return b.build()


@register("ammp", "CFP2000",
          "molecular dynamics: neighbor-list force computation with "
          "scattered coordinate loads and FP divides")
def build_ammp(scale: float = 1.0) -> Program:
    b = ProgramBuilder("ammp")
    rng = rng_for("ammp")
    alloc = Allocator()

    n_atoms = scaled(50_000, scale, 128)        # ~400 KB coordinates
    n_pairs = scaled(1_500, scale, 32)

    coords = alloc.alloc(n_atoms * 2)           # [x, y] per atom
    pairs = alloc.alloc(n_pairs * 2)
    memory = b.memory
    for addr in range(coords, coords + n_atoms * 2 * WORD_SIZE, WORD_SIZE):
        memory[addr] = rng.random() * 100.0
    hot_atoms = scaled(4_000, scale, 64)
    # Neighbour lists are spatially local: most partners come from the
    # hot shell, a few from far-away atoms.
    draw_partner = locality_draw(rng, 0, hot_atoms, n_atoms, 0.05)
    for i in range(n_pairs):
        for slot in (0, 1):
            b.data_word(pairs + (i * 2 + slot) * WORD_SIZE,
                        draw_partner() // WORD_SIZE)

    pair_ptr, ai, aj, addr_i, addr_j, count, tmp = \
        R(1), R(2), R(3), R(4), R(5), R(6), R(7)
    coord_base, seed, mult, tmp2, far_base = R(8), R(9), R(10), R(11), R(12)
    far_words = 1 << 21                         # 8 MB far-shell region
    xi, yi, xj, yj, dx, dy = F(1), F(2), F(3), F(4), F(5), F(6)
    r2, force, energy, one = F(7), F(8), F(9), F(10)
    cutoff, virial = F(11), F(12)

    b.movi(pair_ptr, pairs)
    b.movi(coord_base, coords)
    b.movi(count, n_pairs)
    b.movi(seed, 0x13579BD)
    b.movi(mult, 1103515245)
    b.movi(far_base, alloc.alloc(far_words))
    b.fmovi(energy, 0.0)
    b.fmovi(one, 1.0)
    b.fmovi(cutoff, 5000.0)
    b.fmovi(virial, 0.0)

    b.label("force")
    b.ld(ai, pair_ptr, 0)               # sequential neighbor-list reads
    b.ld(aj, pair_ptr, WORD_SIZE)
    b.shli(addr_i, ai, 3)
    b.add(addr_i, addr_i, coord_base)
    b.shli(addr_j, aj, 3)
    b.add(addr_j, addr_j, coord_base)
    # Occasional far-shell partner: fresh main-memory miss.
    b.mul(seed, seed, mult)
    b.addi(seed, seed, 12345)
    b.andi(tmp2, seed, 7)
    b.cmpeqi(P(2), tmp2, 0)
    b.shri(tmp2, seed, 3)
    b.andi(tmp2, tmp2, far_words - 8)
    b.shli(tmp2, tmp2, 2)
    b.add(tmp2, tmp2, far_base, pred=P(2))
    b.mov(addr_j, tmp2, pred=P(2))
    b.fld(xi, addr_i, 0)                # scattered coordinate gathers
    b.fld(yi, addr_i, WORD_SIZE)
    b.fld(xj, addr_j, 0)
    b.fld(yj, addr_j, WORD_SIZE)
    b.fsub(dx, xi, xj)
    b.fsub(dy, yi, yj)
    b.fmul(dx, dx, dx)
    b.fmul(dy, dy, dy)
    b.fadd(r2, dx, dy)
    b.fadd(r2, r2, one)                 # avoid r2 == 0
    b.fdiv(force, one, r2)              # long-latency divide ("other")
    # Cutoff: pairs beyond the interaction radius contribute nothing.
    b.fcmplt(P(3), r2, cutoff)
    b.fadd(energy, energy, force, pred=P(3))
    b.fadd(virial, virial, r2, pred=P(3))
    b.addi(pair_ptr, pair_ptr, 2 * WORD_SIZE)
    counted_loop(b, "force", count, P(1))
    b.fst(energy, coord_base, 0)
    b.halt()

    b.metadata.update(n_atoms=n_atoms, n_pairs=n_pairs)
    return b.build()


@register("mesa", "CFP2000",
          "software 3D rasterizer front end: 4x4 vertex transforms over "
          "a sequential vertex buffer (cache-friendly, high FP ILP)")
def build_mesa(scale: float = 1.0) -> Program:
    b = ProgramBuilder("mesa")
    rng = rng_for("mesa")
    alloc = Allocator()

    n_vertices = scaled(1_100, scale, 32)
    n_frames = 3                                # buffer reused per frame
    vertex_words = 4                            # x, y, z, w

    vertices = alloc.alloc(n_vertices * vertex_words)
    matrix = alloc.alloc(16)
    for i in range(n_vertices * vertex_words):
        b.data_word(vertices + i * WORD_SIZE, rng.random() * 2.0 - 1.0)
    for i in range(16):
        b.data_word(matrix + i * WORD_SIZE, rng.random())

    v_ptr, count, mat_base, frame = R(1), R(2), R(3), R(4)
    m0, m1, m2, m3 = F(1), F(2), F(3), F(4)
    lit = F(5)
    vx = [F(6), F(7)]
    vy = [F(8), F(9)]
    vz = [F(10), F(11)]
    vw = [F(12), F(13)]
    tx = [F(14), F(15)]
    ty = [F(16), F(17)]
    t0 = [F(18), F(19)]
    t1 = [F(20), F(21)]

    b.movi(mat_base, matrix)
    b.movi(frame, n_frames)
    b.fmovi(lit, 0.0)
    # The matrix row used for both dot products stays register resident.
    b.fld(m0, mat_base, 0)
    b.fld(m1, mat_base, WORD_SIZE)
    b.fld(m2, mat_base, 2 * WORD_SIZE)
    b.fld(m3, mat_base, 3 * WORD_SIZE)

    b.label("frame")
    b.movi(v_ptr, vertices)
    b.movi(count, n_vertices // 2)
    b.label("xform")
    # Two vertices per scheduled body (the compiler unrolls and
    # interleaves the independent transform trees).
    for k in range(2):
        off = k * vertex_words * WORD_SIZE
        vx_, vy_, vz_, vw_ = vx[k], vy[k], vz[k], vw[k]
        tx_, ty_, t0_, t1_ = tx[k], ty[k], t0[k], t1[k]
        b.fld(vx_, v_ptr, off)          # sequential vertex fetch
        b.fld(vy_, v_ptr, off + WORD_SIZE)
        b.fld(vz_, v_ptr, off + 2 * WORD_SIZE)
        b.fld(vw_, v_ptr, off + 3 * WORD_SIZE)
        # Two dot products with independent trees: high FP ILP.
        b.fmul(t0_, vx_, m0)
        b.fmul(t1_, vy_, m1)
        b.fadd(tx_, t0_, t1_)
        b.fmul(t0_, vz_, m2)
        b.fmul(t1_, vw_, m3)
        b.fadd(ty_, t0_, t1_)
        b.fadd(tx_, tx_, ty_)
        b.fmul(ty_, vx_, m2)
        b.fadd(ty_, ty_, tx_)
        b.fadd(lit, lit, ty_)           # serial lighting accumulation
        # Clip/cull: predicated per-vertex rejection.
        b.fcmplt(P(3 + k), tx_, m3)
        b.fadd(tx_, tx_, m0, pred=P(3 + k))
        b.fst(tx_, v_ptr, off)          # write back transformed x
        b.fst(ty_, v_ptr, off + WORD_SIZE)
    b.addi(v_ptr, v_ptr, 2 * vertex_words * WORD_SIZE)
    counted_loop(b, "xform", count, P(1))
    counted_loop(b, "frame", frame, P(2))
    b.fst(lit, mat_base, 0)
    b.halt()

    b.metadata.update(n_vertices=n_vertices, n_frames=n_frames)
    return b.build()
