"""Compute-flavoured CINT2000 kernels: bzip2, gzip, crafty.

``bzip2`` streams a block while doing multiply-heavy radix work — the
benchmark where Fig. 6 shows cache-miss savings partially offset by
exposed non-unit-latency ("other") stalls, and one of the three where
advance restart matters.  ``gzip`` probes LZ77 hash chains with
data-dependent match loops.  ``crafty`` is the cache-resident, high-ILP
bitboard benchmark where in-order already does well.
"""

from __future__ import annotations

from ..isa import P, R, WORD_SIZE
from ..isa.builder import ProgramBuilder
from ..isa.program import Program
from .common import (Allocator, below, counted_loop, locality_draw,
                     register, rng_for, scaled)


@register("bzip2", "CINT2000",
          "block-sort compression: sorted-order ptr[] walk (critical SCC), "
          "chained block-data loads and multiply-driven radix ranking")
def build_bzip2(scale: float = 1.0) -> Program:
    b = ProgramBuilder("bzip2")
    rng = rng_for("bzip2")
    alloc = Allocator()

    ring_size = scaled(1_400, scale, 64)        # sorted-order links
    data_words = scaled(400_000, scale, 1024)   # ~1.6 MB block data
    data_hot_words = scaled(10_000, scale, 256)
    iters = scaled(800, scale, 16)

    # bzip2's inverse-BWT walks the block in sorted order through the
    # ptr[] indirection: ring records [link_to_next_sorted, data_ptr]
    # stay cache resident; the data they point at is a mix of hot and
    # cold block regions.
    rec_words = 2
    block = alloc.alloc(ring_size * rec_words)
    data = alloc.alloc(data_words)
    freq = alloc.alloc(256)

    def rec_addr(i):
        return block + i * rec_words * WORD_SIZE

    data_refs = []
    order = list(range(1, ring_size))
    rng.shuffle(order)
    ring = [0] + order
    draw_ref = locality_draw(rng, data, data_hot_words, data_words, 0.06)
    for pos, i in enumerate(ring):
        succ = ring[(pos + 1) % ring_size]
        ref = draw_ref()
        data_refs.append(ref)
        b.data_word(rec_addr(i), rec_addr(succ))              # sorted link
        b.data_word(rec_addr(i) + WORD_SIZE, ref)
    for ref in data_refs:
        b.data_word(ref, rng.randrange(1 << 30))

    ptr, acc, count, freq_base = R(1), R(2), R(3), R(4)
    tmp, warm_ptr, warm_end = R(5), R(6), R(7)
    data_ptr = [R(8 + k) for k in range(3)]
    datav = [R(11 + k) for k in range(3)]
    byte0 = [R(14 + k) for k in range(3)]
    byte1 = [R(17 + k) for k in range(3)]
    f_addr = [R(20 + k) for k in range(3)]
    f_val = [R(23 + k) for k in range(3)]
    rank = [R(26 + k) for k in range(3)]

    # Warming scan over the ring (bzip2 builds these tables first).
    b.movi(warm_ptr, block)
    b.movi(warm_end, block + ring_size * rec_words * WORD_SIZE)
    b.label("warm")
    b.ld(tmp, warm_ptr, 0)
    b.addi(warm_ptr, warm_ptr, 64)
    b.cmplt(P(5), warm_ptr, warm_end)
    b.br("warm", pred=P(5))

    b.movi(ptr, rec_addr(0))
    b.movi(freq_base, freq)
    b.movi(count, iters)
    b.movi(acc, 0)

    b.label("scan")
    # Three-way unrolled sorted-order traversal (OpenIMPACT unrolls and
    # schedules these bodies aggressively): the ptr[] chase stays serial
    # through the unrolled copies — it is the critical load SCC — while
    # the per-link work from different copies packs into wide groups.
    for k in range(3):
        dp, dv, b0, b1 = data_ptr[k], datav[k], byte0[k], byte1[k]
        fa, fv, rk = f_addr[k], f_val[k], rank[k]
        b.ld(ptr, ptr, 0)               # ptr = ptr->sorted_next (warm)
        b.ld(dp, ptr, WORD_SIZE)        # chained pointer (warm)
        b.ld(dv, dp, 0)                 # chained block-data load
        b.andi(b0, dv, 0xFF)
        b.shri(b1, dv, 8)
        b.andi(b1, b1, 0xFF)
        # Frequency update: load-modify-store on a resident table.
        b.shli(fa, b0, 2)
        b.add(fa, fa, freq_base)
        b.ld(fv, fa, 0)
        b.addi(fv, fv, 1)
        b.st(fv, fa, 0)
        # Radix ranking: multiplies dependent on the walked data expose
        # "other" stalls once the cache misses are tolerated.
        b.mul(rk, b0, b1)
        b.mul(rk, rk, rk)
        b.add(acc, acc, rk)
    counted_loop(b, "scan", count, P(3))
    b.st(acc, freq_base, 1024)
    b.halt()

    b.metadata.update(ring_size=ring_size, iters=iters,
                      data_words=data_words)
    return b.build()


@register("gzip", "CINT2000",
          "LZ77 deflate: rolling-hash head-table probes and "
          "data-dependent match-length loops")
def build_gzip(scale: float = 1.0) -> Program:
    b = ProgramBuilder("gzip")
    rng = rng_for("gzip")
    alloc = Allocator()

    window_words = scaled(100_000, scale, 256)   # ~400 KB window
    n_heads = scaled(32_768, scale, 64)
    iters = scaled(1_800, scale, 32)

    window = alloc.alloc(window_words)
    heads = alloc.alloc(n_heads)
    memory = b.memory
    draw_word = below(rng, 1 << 24)
    for addr in range(window, window + window_words * WORD_SIZE,
                      8 * WORD_SIZE):
        memory[addr] = draw_word()
    hot_window_words = scaled(4_000, scale, 256)
    # Head table: a previous window position for each hash.  Matches
    # cluster near recently-seen data (LZ77 locality).
    draw_pos = locality_draw(rng, window, hot_window_words, window_words,
                             0.07)
    for addr in range(heads, heads + n_heads * WORD_SIZE, WORD_SIZE):
        memory[addr] = draw_pos()

    ptr, cur, hashv, head_ptr, cand, cand_data = \
        R(1), R(2), R(3), R(4), R(5), R(6)
    match_len, best, count, heads_base, window_end, tmp = \
        R(7), R(8), R(9), R(10), R(11), R(12)
    limit, crc0, crc1, crc2, crc3 = R(13), R(14), R(15), R(16), R(17)

    b.movi(ptr, window)
    b.movi(window_end, window + window_words * WORD_SIZE)
    b.movi(heads_base, heads)
    b.movi(count, iters)
    b.movi(best, 0)
    b.movi(crc1, 0)
    b.movi(crc3, 0)

    b.label("deflate")
    b.ld(cur, ptr, 0)                   # current window word
    # Rolling hash of the lookahead.
    b.shri(hashv, cur, 5)
    b.xor(hashv, hashv, cur)
    b.andi(hashv, hashv, n_heads - 1)
    # Common substrings hash into a hot subset of the head table.
    b.andi(crc0, cur, 7)
    b.cmpnei(P(7), crc0, 0)
    b.andi(hashv, hashv, 255, pred=P(7))
    b.shli(hashv, hashv, 2)
    b.add(head_ptr, hashv, heads_base)
    b.ld(cand, head_ptr, 0)             # scattered head probe
    b.st(ptr, head_ptr, 0)              # update the chain head
    # Bounded match loop: compare up to 4 words, exit on mismatch.
    b.movi(match_len, 0)
    b.movi(limit, 4)
    b.label("match")
    b.ld(cand_data, cand, 0)            # scattered candidate data
    b.ld(tmp, ptr, 0)
    b.cmpne(P(1), cand_data, tmp)       # data-dependent exit
    b.br("endmatch", pred=P(1))
    b.addi(match_len, match_len, 1)
    b.addi(cand, cand, WORD_SIZE)
    b.subi(limit, limit, 1)
    b.cmpnei(P(2), limit, 0)
    b.br("match", pred=P(2))
    b.label("endmatch")
    b.cmplt(P(3), best, match_len)
    b.mov(best, match_len, pred=P(3))
    # Output-side CRC and bit-packing: independent integer work.
    b.shri(crc0, cur, 3)
    b.xor(crc1, crc1, cur)
    b.shli(crc2, match_len, 4)
    b.or_(crc1, crc1, crc0)
    b.add(crc3, crc3, crc2)
    b.andi(crc1, crc1, 0xFFFFFF)
    b.addi(crc3, crc3, 7)
    b.addi(ptr, ptr, 8 * WORD_SIZE)
    b.cmplt(P(4), ptr, window_end)
    b.movi(tmp, window)
    b.cmpeqi(P(5), P(4), 0)
    b.mov(ptr, tmp, pred=P(5))
    counted_loop(b, "deflate", count, P(6))
    b.st(best, heads_base, 0)
    b.halt()

    b.metadata.update(window_words=window_words, n_heads=n_heads,
                      iters=iters)
    return b.build()


@register("crafty", "CINT2000",
          "chess bitboards: cache-resident attack-table lookups and "
          "shift/mask popcount work with high static ILP")
def build_crafty(scale: float = 1.0) -> Program:
    b = ProgramBuilder("crafty")
    rng = rng_for("crafty")
    alloc = Allocator()

    table_words = 2_048                          # 8 KB: L1 resident
    iters = scaled(2_600, scale, 32)

    tables = alloc.alloc(table_words)
    for i in range(table_words):
        b.data_word(tables + i * WORD_SIZE, rng.getrandbits(31))

    board_lo, board_hi, attacks, occ, moves = R(1), R(2), R(3), R(4), R(5)
    idx, taddr, count, tab_base, popcnt = R(6), R(7), R(8), R(9), R(10)
    bit, tmp, tmp2, score = R(11), R(12), R(13), R(14)
    hmult, e0, e1, e2 = R(15), R(16), R(17), R(18)

    b.movi(tab_base, tables)
    b.movi(hmult, 1103515245)
    b.movi(board_lo, 0x12345678)
    b.movi(board_hi, 0x0F0F0F0F)
    b.movi(count, iters)
    b.movi(score, 0)
    b.movi(e1, 0)

    b.label("search")
    # Move-ordering hash (serial multiply recurrence bounds even ideal
    # dataflow scheduling, as crafty's real iteration dependences do).
    b.mul(board_lo, board_lo, hmult)
    b.addi(board_lo, board_lo, 9)
    # Two independent attack-table lookups (both L1 hits).
    b.andi(idx, board_lo, table_words - 1)
    b.shli(taddr, idx, 2)
    b.add(taddr, taddr, tab_base)
    b.ld(attacks, taddr, 0)
    b.shri(tmp, board_hi, 7)
    b.andi(tmp, tmp, table_words - 1)
    b.shli(tmp, tmp, 2)
    b.add(tmp, tmp, tab_base)
    b.ld(occ, tmp, 0)
    # Bitboard algebra: wide, independent ALU work.
    b.and_(moves, attacks, occ)
    b.xor(board_lo, board_lo, attacks)
    b.or_(board_hi, board_hi, occ)
    b.shli(tmp2, moves, 1)
    b.xor(moves, moves, tmp2)
    # Popcount via parallel nibble folding (dependent shift chain).
    b.shri(popcnt, moves, 1)
    b.andi(popcnt, popcnt, 0x55555555)
    b.sub(popcnt, moves, popcnt)
    b.shri(bit, popcnt, 2)
    b.andi(bit, bit, 0x33333333)
    b.andi(popcnt, popcnt, 0x33333333)
    b.add(popcnt, popcnt, bit)
    b.shri(bit, popcnt, 4)
    b.add(popcnt, popcnt, bit)
    b.andi(popcnt, popcnt, 0x0F0F0F0F)
    b.add(score, score, popcnt)
    # Independent evaluation strand (pawn-structure terms).
    b.shri(e0, occ, 3)
    b.xor(e1, e1, attacks)
    b.and_(e2, occ, attacks)
    b.or_(e1, e1, e0)
    b.add(e2, e2, e0)
    b.shli(e0, e2, 1)
    b.cmplti(P(1), score, 0)
    b.movi(score, 0, pred=P(1))
    counted_loop(b, "search", count, P(2))
    b.st(score, tab_base, 0)
    b.halt()

    b.metadata.update(table_words=table_words, iters=iters)
    return b.build()
