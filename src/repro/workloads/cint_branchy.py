"""Branch-heavy CINT2000 kernels: twolf, vpr.

``twolf`` (standard-cell placement by simulated annealing) is dominated by
data-dependent accept/reject branches over a scattered cell array — the
benchmark where Fig. 6 reports a 29% *front-end* stall reduction from
pre-executed branches.  ``vpr`` (FPGA place & route) gathers routing costs
through index arrays with more regular control flow.
"""

from __future__ import annotations

from ..isa import P, R, WORD_SIZE
from ..isa.builder import ProgramBuilder
from ..isa.program import Program
from .common import (Allocator, below, counted_loop, locality_draw,
                     register, rng_for, scaled)


@register("twolf", "CINT2000",
          "simulated-annealing placement: random cell swaps with "
          "unpredictable accept/reject branches")
def build_twolf(scale: float = 1.0) -> Program:
    b = ProgramBuilder("twolf")
    rng = rng_for("twolf")
    alloc = Allocator()

    n_cells = 1 << max(7, (scaled(65_536, scale, 128)).bit_length() - 1)
    # power of two: cell indices come from masking LCG draws
    iters = scaled(2_000, scale, 32)

    cells = alloc.alloc(n_cells * 2)            # [x, y] per cell
    memory = b.memory
    draw_coord = below(rng, 4096)
    for addr in range(cells, cells + n_cells * 2 * WORD_SIZE, WORD_SIZE):
        memory[addr] = draw_coord()

    seed, idx_a, idx_b, addr_a, addr_b = R(1), R(2), R(3), R(4), R(5)
    xa, ya, xb, yb, dx, dy = R(6), R(7), R(8), R(9), R(10), R(11)
    delta, accepted, count, cell_base, mult, tmp = \
        R(12), R(13), R(14), R(15), R(16), R(17)
    cost, w0, w1, w2 = R(18), R(19), R(20), R(21)

    b.movi(cell_base, cells)
    b.movi(seed, 0xBEEF)
    b.movi(count, iters)
    b.movi(accepted, 0)
    b.movi(cost, 0)
    b.movi(mult, 1103515245)
    b.movi(w1, 0)
    b.movi(w2, 0)

    b.label("anneal")
    # Two LCG draws pick the candidate swap pair (serial multiply chain).
    b.mul(seed, seed, mult)
    b.addi(seed, seed, 12345)
    b.shri(idx_a, seed, 8)
    b.mul(seed, seed, mult)
    b.addi(seed, seed, 12345)
    b.shri(idx_b, seed, 8)
    b.andi(idx_a, idx_a, n_cells - 1)
    b.andi(idx_b, idx_b, n_cells - 1)
    # Most swap candidates come from the neighbourhood being optimized
    # (a hot window of cells); occasional global moves go cold.
    b.andi(tmp, seed, 7)
    b.cmpnei(P(5), tmp, 0)
    b.andi(idx_a, idx_a, 1023, pred=P(5))
    b.andi(idx_b, idx_b, 1023, pred=P(5))
    b.shli(addr_a, idx_a, 3)
    b.add(addr_a, addr_a, cell_base)
    b.shli(addr_b, idx_b, 3)
    b.add(addr_b, addr_b, cell_base)
    b.ld(xa, addr_a, 0)                 # scattered cell loads
    b.ld(ya, addr_a, WORD_SIZE)
    b.ld(xb, addr_b, 0)
    b.ld(yb, addr_b, WORD_SIZE)
    # Wire-length delta: |xa-xb| + |ya-yb| via predicated negation.
    b.sub(dx, xa, xb)
    b.cmplti(P(1), dx, 0)
    b.sub(dx, R(0), dx, pred=P(1))
    b.sub(dy, ya, yb)
    b.cmplti(P(2), dy, 0)
    b.sub(dy, R(0), dy, pred=P(2))
    b.add(delta, dx, dy)
    # Bounding-box bookkeeping: independent integer work per move.
    b.shli(w0, dx, 1)
    b.xor(w1, w1, dy)
    b.add(w2, w2, dx)
    b.or_(w1, w1, w0)
    b.shri(w0, w2, 2)
    b.add(w2, w2, w0)
    # Accept/reject on a pseudo-random threshold: unpredictable branch.
    b.andi(tmp, seed, 0xFFF)
    b.cmplt(P(3), tmp, delta)
    b.br("reject", pred=P(3))
    b.addi(accepted, accepted, 1)
    b.st(xb, addr_a, 0)                 # commit the swap
    b.st(xa, addr_b, 0)
    b.add(cost, cost, delta)
    b.label("reject")
    counted_loop(b, "anneal", count, P(4))
    b.st(accepted, cell_base, 0)
    b.halt()

    b.metadata.update(n_cells=n_cells, iters=iters)
    return b.build()


@register("vpr", "CINT2000",
          "FPGA routing: fanout index arrays driving scattered "
          "routing-cost gathers and min-cost updates")
def build_vpr(scale: float = 1.0) -> Program:
    b = ProgramBuilder("vpr")
    rng = rng_for("vpr")
    alloc = Allocator()

    n_rr_nodes = scaled(70_000, scale, 128)     # ~280 KB cost array
    n_edges = scaled(900, scale, 64)            # fanout list, re-traversed
    hot_nodes = scaled(3_000, scale, 128)
    iters = scaled(2_400, scale, 32)

    costs = alloc.alloc(n_rr_nodes)
    edges = alloc.alloc(n_edges)
    memory = b.memory
    draw_cost = below(rng, 9_999)               # randrange(1, 10_000)
    for addr in range(costs, costs + n_rr_nodes * WORD_SIZE, WORD_SIZE):
        memory[addr] = 1 + draw_cost()
    # Routing explores a neighbourhood: mostly hot nodes, some cold.
    draw_node = locality_draw(rng, 0, hot_nodes, n_rr_nodes, 0.10)
    for i in range(n_edges):
        b.data_word(edges + i * WORD_SIZE, draw_node() // WORD_SIZE)

    edge_ptr, node_idx, cost_addr, cost, best = R(1), R(2), R(3), R(4), R(5)
    total, count, edge_base, edge_end, cost_base = \
        R(6), R(7), R(8), R(9), R(10)
    tmp, congestion = R(11), R(12)
    w0, w1, w2, w3 = R(13), R(14), R(15), R(16)

    b.movi(edge_base, edges)
    b.movi(edge_end, edges + n_edges * WORD_SIZE)
    b.movi(edge_ptr, edges)
    b.movi(cost_base, costs)
    b.movi(count, iters)
    b.movi(best, 0x7FFFFFFF)
    b.movi(total, 0)
    b.movi(w1, 0)
    b.movi(w3, 0)

    b.label("route")
    b.ld(node_idx, edge_ptr, 0)          # sequential fanout index
    b.shli(cost_addr, node_idx, 2)
    b.add(cost_addr, cost_addr, cost_base)
    b.ld(cost, cost_addr, 0)             # scattered cost gather
    b.addi(congestion, cost, 17)
    b.add(total, total, congestion)
    # Timing-analysis terms: independent integer work per edge.
    b.shli(w0, cost, 1)
    b.xor(w1, w1, node_idx)
    b.shri(w2, congestion, 3)
    b.or_(w1, w1, w0)
    b.add(w3, w3, w2)
    b.andi(w1, w1, 0xFFFFF)
    b.add(w3, w3, w0)
    # Min-cost tracking: moderately predictable branch.
    b.cmple(P(1), best, congestion)
    b.br("noupdate", pred=P(1))
    b.mov(best, congestion)
    b.st(best, cost_addr, 0)             # relax the node's cost
    b.jmp("skip")
    b.label("noupdate")
    b.addi(total, total, 1)
    b.label("skip")
    b.addi(edge_ptr, edge_ptr, WORD_SIZE)
    b.cmplt(P(2), edge_ptr, edge_end)
    b.movi(tmp, edges)
    b.cmpeqi(P(3), P(2), 0)
    b.mov(edge_ptr, tmp, pred=P(3))
    counted_loop(b, "route", count, P(4))
    b.st(total, cost_base, 0)
    b.halt()

    b.metadata.update(n_rr_nodes=n_rr_nodes, n_edges=n_edges, iters=iters)
    return b.build()
