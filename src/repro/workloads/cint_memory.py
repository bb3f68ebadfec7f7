"""Memory-bound CINT2000 kernels: mcf, gap, parser.

These three carry the paper's headline cache-miss behaviour: ``mcf`` is the
worst cache offender in CINT2000 (Fig. 6 shows a 56% memory-stall
reduction under multipass and names it as a benchmark where advance
restart matters), ``gap`` mixes chained dereferences with enough
independent work for preexecution, and ``parser`` walks short hash chains
with data-dependent exits.
"""

from __future__ import annotations

from ..isa import P, R, WORD_SIZE
from ..isa.builder import ProgramBuilder
from ..isa.program import Program
from .common import (Allocator, below, counted_loop, locality_draw,
                     register, rng_for, scaled)


@register("mcf", "CINT2000",
          "network-simplex arc pricing: a warm basis-tree chase (short "
          "L2 misses, the critical SCC) gating scattered long-latency "
          "node-potential loads — the paper's Fig. 1(d) structure")
def build_mcf(scale: float = 1.0) -> Program:
    b = ProgramBuilder("mcf")
    rng = rng_for("mcf")
    alloc = Allocator()

    # Basis ring: ~48 KB, L2-resident after a warming scan, so chase
    # loads are short L1-misses.  Node potentials live in a large cold
    # region whose loads go to main memory and are independent across
    # iterations — exactly the short-miss-gates-long-miss pattern that
    # advance restart exploits.
    n_basis = scaled(3_000, scale, 64)
    n_arcs = scaled(24_000, scale, 128)
    pot_region_words = scaled(1_100_000, scale, 4096)   # ~4.2 MB (> L3)
    pot_hot_words = scaled(12_000, scale, 512)          # ~48 KB hot set
    cold_fraction = 0.06
    outer_iters = scaled(32, scale, 4)
    price_iters = 32
    refresh_iters = 18

    node_words = 4
    basis_nodes = alloc.alloc(n_basis * node_words)
    potentials = alloc.alloc(pot_region_words)

    def node_addr(i: int) -> int:
        return basis_nodes + i * node_words * WORD_SIZE

    memory = b.memory
    draw_pot = locality_draw(rng, potentials, pot_hot_words,
                             pot_region_words, cold_fraction)
    draw_flow = below(rng, 49)                  # randrange(1, 50)
    order = list(range(1, n_basis))
    rng.shuffle(order)
    ring = [0] + order
    pot_refs = []
    for pos, i in enumerate(ring):
        succ = ring[(pos + 1) % n_basis]
        node = node_addr(i)
        pot = draw_pot()
        pot_refs.append(pot)
        memory[node] = pot                                    # data ptr
        memory[node + WORD_SIZE] = node_addr(succ)            # next
        memory[node + 2 * WORD_SIZE] = 1 + draw_flow()        # flow

    # Arc array: [tail_ptr, head_ptr, cost], scanned sequentially; tail
    # and head point into the big potential region.
    arc_words = 4
    arc_bytes = arc_words * WORD_SIZE
    arcs = alloc.alloc(n_arcs * arc_words)
    draw_cost = below(rng, 99)                  # randrange(1, 100)
    for base in range(arcs, arcs + n_arcs * arc_bytes, arc_bytes):
        tail_pot, head_pot = draw_pot(), draw_pot()
        pot_refs += (tail_pot, head_pot)
        memory[base] = tail_pot
        memory[base + WORD_SIZE] = head_pot
        memory[base + 2 * WORD_SIZE] = 1 + draw_cost()
    # Only referenced potential words need initial values.
    draw_potential = below(rng, 999)            # randrange(1, 1000)
    for addr in pot_refs:
        memory[addr] = 1 + draw_potential()

    arc_ptr, basis, count = R(1), R(2), R(3)
    tail, head, pot_t, pot_h, cost = R(4), R(5), R(6), R(7), R(8)
    reduced, acc, neg_count, node_pot, tmp = \
        R(9), R(10), R(11), R(12), R(13)
    arc_end, warm_ptr, warm_end, pot_ptr = R(14), R(15), R(16), R(17)
    depth, hashk, seen, span, flags = R(18), R(19), R(20), R(21), R(22)
    outer = R(23)

    # Warming scan: touch every basis line sequentially (overlapped
    # compulsory misses), standing in for mcf's setup passes.  The
    # touched words fold into the bookkeeping checksum so every load
    # destination has a use.
    b.movi(hashk, 0)
    b.movi(seen, 0)
    b.movi(flags, 0)
    b.movi(warm_ptr, basis_nodes)
    b.movi(warm_end, basis_nodes + n_basis * node_words * WORD_SIZE)
    b.label("warm")
    b.ld(tmp, warm_ptr, 0)
    b.add(seen, seen, tmp)
    b.addi(warm_ptr, warm_ptr, 64)
    b.cmplt(P(5), warm_ptr, warm_end)
    b.br("warm", pred=P(5))

    b.movi(arc_ptr, arcs)
    b.movi(arc_end, arcs + n_arcs * arc_words * WORD_SIZE)
    b.movi(basis, node_addr(0))
    b.movi(outer, outer_iters)
    b.movi(acc, 0)
    b.movi(neg_count, 0)

    # Real mcf alternates an arc-pricing scan (independent scattered
    # misses, plenty of MLP for any preexecution scheme) with
    # refresh_potential-style basis-tree walks (a serial chase where only
    # advance restart can pipeline the chained misses).
    b.label("outer")
    b.movi(count, price_iters)
    b.label("price")
    b.ld(tail, arc_ptr, 0)
    b.ld(head, arc_ptr, WORD_SIZE)
    b.ld(cost, arc_ptr, 2 * WORD_SIZE)
    b.ld(pot_t, tail, 0)               # scattered, independent
    b.ld(pot_h, head, 0)               # scattered, independent
    b.sub(reduced, pot_t, pot_h)
    b.add(reduced, reduced, cost)
    b.cmplti(P(1), reduced, 0)
    b.addi(neg_count, neg_count, 1, pred=P(1))
    b.add(acc, acc, reduced, pred=P(1))
    # Pricing bookkeeping: independent integer work the in-order machine
    # can pack into wide groups (real mcf does comparable list upkeep).
    b.shli(depth, cost, 1)
    b.xor(hashk, hashk, cost)
    b.addi(seen, seen, 1)
    b.shri(span, reduced, 3)
    b.or_(flags, flags, span)
    b.add(hashk, hashk, depth)
    b.andi(flags, flags, 0xFFFF)
    b.add(seen, seen, span)
    b.addi(arc_ptr, arc_ptr, arc_words * WORD_SIZE)
    b.cmplt(P(2), arc_ptr, arc_end)
    b.movi(tmp, arcs)
    b.cmpeqi(P(3), P(2), 0)
    b.mov(arc_ptr, tmp, pred=P(3))
    counted_loop(b, "price", count, P(4))

    # refresh_potential: everything depends on the basis chase; the chase
    # load is the critical SCC and receives the compiler RESTART.
    b.movi(count, refresh_iters)
    b.label("refresh")
    b.ld(basis, basis, WORD_SIZE)      # basis = basis->next (short miss)
    b.ld(pot_ptr, basis, 0)            # chained pointer
    b.ld(node_pot, pot_ptr, 0)         # chained long miss
    b.ld(tmp, basis, 2 * WORD_SIZE)    # flow field (warm)
    b.mul(node_pot, node_pot, tmp)     # flow-cost product
    b.add(acc, acc, node_pot)
    b.shri(tmp, node_pot, 5)
    b.xor(hashk, hashk, tmp)
    counted_loop(b, "refresh", count, P(6))
    counted_loop(b, "outer", outer, P(7))
    b.st(acc, arc_ptr, 0)
    b.halt()

    b.metadata.update(n_basis=n_basis, n_arcs=n_arcs,
                      outer_iters=outer_iters,
                      pot_region_words=pot_region_words)
    return b.build()


@register("gap", "CINT2000",
          "computational group theory: worklist of tagged objects with "
          "two-level (object -> handler -> payload) chained dereferences")
def build_gap(scale: float = 1.0) -> Program:
    b = ProgramBuilder("gap")
    rng = rng_for("gap")
    alloc = Allocator()

    n_objects = scaled(48_000, scale, 128)
    ring_size = scaled(450, scale, 32)       # workspace revisited each pass
    pay_hot_words = scaled(4_000, scale, 256)
    n_work = scaled(2_600, scale, 32)

    # Objects: [tag, payload_ptr]; payloads: [value, next_ptr].
    obj_words, pay_words = 2, 2
    objects = alloc.alloc(n_objects * obj_words)
    payloads = alloc.alloc(n_objects * pay_words)

    def obj_addr(i):
        return objects + i * obj_words * WORD_SIZE

    def pay_addr(i):
        return payloads + i * pay_words * WORD_SIZE

    # A payload reference points at the record holding a locality-drawn
    # payload word (byte offset from 0).
    pay_bytes = pay_words * WORD_SIZE
    draw_pay_word = locality_draw(rng, 0, pay_hot_words,
                                  n_objects * pay_words, 0.08)
    draw_tag = below(rng, 4)
    draw_value = below(rng, 499)                # randrange(1, 500)
    memory = b.memory
    for i in range(n_objects):
        obj_at, pay_at = obj_addr(i), pay_addr(i)
        memory[obj_at] = draw_tag()
        memory[obj_at + WORD_SIZE] = pay_addr(draw_pay_word() // pay_bytes)
        memory[pay_at] = 1 + draw_value()
        memory[pay_at + WORD_SIZE] = pay_addr(draw_pay_word() // pay_bytes)

    # Worklist: a random ring over a workspace subset of the objects.
    # The ring is revisited every ~ring_size dispatches, so its lines
    # warm into the L2 — gap's interpreter workspace behaves this way.
    worklist = alloc.alloc(n_objects)
    members = rng.sample(range(n_objects), ring_size)
    for pos, i in enumerate(members):
        succ = members[(pos + 1) % ring_size]
        b.data_word(worklist + i * WORD_SIZE, obj_addr(succ))
    first_obj = members[0]

    work, obj, tag, payload, value = R(1), R(2), R(3), R(4), R(5)
    acc0, acc1, nxt, count, wl_base = R(6), R(7), R(8), R(9), R(10)
    slot, tmp = R(11), R(12)
    h0, h1, h2, h3 = R(13), R(14), R(15), R(16)

    b.movi(wl_base, worklist)
    b.movi(obj, obj_addr(first_obj))
    b.movi(count, n_work)
    b.movi(acc0, 0)
    b.movi(acc1, 1)
    b.movi(h1, 0)
    b.movi(h2, 0)

    b.label("dispatch")
    b.ld(tag, obj, 0)                   # scattered object header load
    b.ld(payload, obj, WORD_SIZE)       # handler/payload pointer
    b.ld(value, payload, 0)             # chained dereference
    # Type dispatch: integers accumulate, lists multiply, rest count.
    b.cmpeqi(P(1), tag, 0)
    b.add(acc0, acc0, value, pred=P(1))
    b.cmpeqi(P(2), tag, 1)
    b.mul(acc1, acc1, value, pred=P(2))
    b.cmplei(P(3), tag, 1)
    b.cmpeqi(P(4), P(3), 0)
    b.addi(acc0, acc0, 1, pred=P(4))
    # Follow the payload list one step (second chained load).
    b.ld(nxt, payload, WORD_SIZE)
    b.ld(tmp, nxt, 0)
    b.add(acc0, acc0, tmp)
    # Interpreter bookkeeping: independent handle/refcount maintenance.
    b.shli(h0, value, 1)
    b.xor(h1, h1, value)
    b.addi(h2, h2, 3)
    b.shri(h3, tmp, 2)
    b.or_(h1, h1, h0)
    b.add(h2, h2, h3)
    b.andi(h1, h1, 0xFFFFF)
    # Serial worklist advance: obj_index ring via the worklist table.
    b.sub(slot, obj, R(0))              # slot = obj address
    b.subi(slot, slot, objects)
    b.shri(slot, slot, 3)               # -> object index (8-byte records)
    b.shli(slot, slot, 2)
    b.add(slot, slot, wl_base)
    b.ld(obj, slot, 0)                  # critical SCC: obj feeds everything
    counted_loop(b, "dispatch", count, P(5))
    b.st(acc0, wl_base, 0)
    b.halt()

    b.metadata.update(n_objects=n_objects, n_work=n_work,
                      ring_size=ring_size)
    return b.build()


@register("parser", "CINT2000",
          "link-grammar dictionary lookups: hash-bucket chains with "
          "data-dependent early exits")
def build_parser(scale: float = 1.0) -> Program:
    b = ProgramBuilder("parser")
    rng = rng_for("parser")
    alloc = Allocator()

    n_buckets = scaled(16_384, scale, 64)
    n_entries = scaled(40_000, scale, 128)
    n_lookups = scaled(1_500, scale, 32)

    # Entries: [key, next_ptr]; buckets: head pointer or 0.
    entry_words = 2
    entries = alloc.alloc(n_entries * entry_words)
    buckets = alloc.alloc(n_buckets)

    def entry_addr(i):
        return entries + i * entry_words * WORD_SIZE

    memory = b.memory
    draw_bucket = below(rng, n_buckets)
    draw_key = below(rng, 1 << 20)
    heads = [0] * n_buckets
    for i in range(n_entries):
        at = entry_addr(i)
        bucket = draw_bucket()
        memory[at] = draw_key()
        memory[at + WORD_SIZE] = heads[bucket]
        heads[bucket] = at
    for j, head in enumerate(heads):
        memory[buckets + j * WORD_SIZE] = head

    seed, hashv, bucket_ptr, entry, key = R(1), R(2), R(3), R(4), R(5)
    found, probes, count, bucket_base, target = R(6), R(7), R(8), R(9), R(10)
    mult, tmp2, w0, w1, w2 = R(11), R(12), R(13), R(14), R(15)

    b.movi(bucket_base, buckets)
    b.movi(seed, 0x1234567)
    b.movi(count, n_lookups)
    b.movi(found, 0)
    b.movi(probes, 0)
    b.movi(mult, 1103515245)
    b.movi(w1, 0)
    b.movi(w2, 0)

    b.label("lookup")
    # Hash the "word" (LCG step): a multiply feeds the address chain.
    b.mul(seed, seed, mult)
    b.addi(seed, seed, 12345)
    b.shri(hashv, seed, 8)
    b.andi(hashv, hashv, n_buckets - 1)
    # Most lookups are common words: skew them into 64 hot buckets whose
    # chains stay cache resident (real dictionaries behave like this).
    b.andi(tmp2, seed, 7)
    b.cmpnei(P(5), tmp2, 0)
    b.andi(hashv, hashv, 63, pred=P(5))
    b.shli(hashv, hashv, 2)
    b.add(bucket_ptr, hashv, bucket_base)
    b.ld(entry, bucket_ptr, 0)          # scattered bucket-head load
    b.shri(target, seed, 4)
    b.andi(target, target, (1 << 20) - 1)
    b.label("chain")
    b.cmpeqi(P(1), entry, 0)            # end of chain?
    b.br("miss", pred=P(1))
    b.ld(key, entry, 0)                 # serial chain load (short SCC)
    b.addi(probes, probes, 1)
    b.cmpeq(P(2), key, target)          # data-dependent exit
    b.br("hit", pred=P(2))
    b.ld(entry, entry, WORD_SIZE)       # entry = entry->next
    b.jmp("chain")
    b.label("hit")
    b.addi(found, found, 1)
    b.label("miss")
    # Post-lookup word processing (morphology flags): independent work.
    b.shli(w0, target, 1)
    b.xor(w1, w1, target)
    b.addi(w2, w2, 1)
    b.or_(w1, w1, w0)
    b.shri(w0, w1, 3)
    b.add(w2, w2, w0)
    counted_loop(b, "lookup", count, P(3))
    b.st(probes, bucket_base, 0)
    b.halt()

    b.metadata.update(n_buckets=n_buckets, n_entries=n_entries,
                      n_lookups=n_lookups)
    return b.build()
