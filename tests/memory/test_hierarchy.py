"""Tests for the memory hierarchy, MSHRs and the Fig. 7 configurations."""

from dataclasses import replace

import pytest

from repro.memory import (MSHRFile, base_hierarchy, config1_hierarchy,
                          config2_hierarchy)


def fresh():
    return base_hierarchy().build()


def test_table2_parameters():
    cfg = base_hierarchy()
    assert cfg.l1d.size_bytes == 16 * 1024
    assert cfg.l1d.assoc == 4 and cfg.l1d.line_size == 64
    assert cfg.l1d.latency == 1
    assert cfg.l2.size_bytes == 256 * 1024
    assert cfg.l2.assoc == 8 and cfg.l2.line_size == 128
    assert cfg.l2.latency == 5
    assert cfg.l3.size_bytes == 3 * 1024 * 1024
    assert cfg.l3.assoc == 12 and cfg.l3.latency == 12
    assert cfg.memory_latency == 145
    assert cfg.max_outstanding_misses == 16


def test_fig7_configs():
    c1 = config1_hierarchy()
    assert c1.memory_latency == 200
    assert c1.l1d.size_bytes == 16 * 1024   # caches unchanged
    c2 = config2_hierarchy()
    assert c2.l1d.size_bytes == 8 * 1024
    assert c2.l2.latency == 7
    assert c2.l3.latency == 16
    assert c2.memory_latency == 200


def test_cold_miss_goes_to_memory():
    h = fresh()
    r = h.access(0x1000, now=0)
    assert r.level == "mem"
    assert r.latency == 145
    assert r.l1_miss


def test_hit_after_fill_completes():
    h = fresh()
    h.access(0x1000, now=0)            # miss, ready at 145
    r = h.access(0x1000, now=200)
    assert r.level == "L1D" and r.latency == 1


def test_inflight_line_shares_fill():
    h = fresh()
    first = h.access(0x1000, now=0)    # ready at 145
    second = h.access(0x1008, now=50)  # same 64B line, still in flight
    assert second.latency == first.ready - 50
    assert h.mshrs.allocations == 1    # merged, not re-allocated


def test_independent_misses_overlap():
    h = fresh()
    a = h.access(0x10000, now=0)
    b = h.access(0x20000, now=0)
    assert a.ready == b.ready == 145   # both outstanding concurrently


def test_l2_hit_latency():
    h = fresh()
    h.access(0x1000, now=0)
    # Evict from tiny L1 set by touching enough conflicting lines, then
    # re-access: should hit in L2 at 5 cycles.
    l1 = h.l1d.config
    conflict_stride = l1.num_sets * l1.line_size
    for i in range(1, l1.assoc + 1):
        h.access(0x1000 + i * conflict_stride, now=1000 * i)
    r = h.access(0x1000, now=100000)
    assert r.level == "L2"
    assert r.latency == 5


def test_ifetch_uses_l1i():
    h = fresh()
    h.access(0x40, now=0, kind="ifetch")
    assert h.l1i.accesses == 1 and h.l1d.accesses == 0
    r = h.access(0x40, now=500, kind="ifetch")
    assert r.level == "L1I"


def test_mshr_limit_delays_seventeenth_miss():
    h = fresh()
    for i in range(16):
        h.access(0x100000 + i * 4096, now=0)
    r = h.access(0x100000 + 16 * 4096, now=0)
    assert r.latency == 145 + 145      # waits for the first fill
    assert h.mshrs.full_stall_cycles == 145


def test_pending_fill_is_a_floor_when_mshrs_are_full():
    """An L2 hit on a line whose L2 fill is still in flight, behind a full
    MSHR file, lands when the fill does (or one L2 latency after the
    register frees) -- the remaining fill time is not added to the
    delayed start."""
    h = replace(base_hierarchy(), max_outstanding_misses=1).build()
    first = h.access(0x1000, now=0)          # memory miss, ready at 145
    r = h.access(0x1040, now=10)             # other L1 line, same L2 line
    assert r.level == "L2"
    assert r.ready == max(first.ready + 5, first.ready) == 150
    assert h.mshrs.full_stall_cycles == 135


def test_mshr_file_basics():
    m = MSHRFile(capacity=2)
    r1 = m.allocate(1, now=0, latency=100)
    r2 = m.allocate(2, now=0, latency=100)
    assert r1 == r2 == 100
    assert m.outstanding(0) == 2
    assert m.outstanding(100) == 0
    # Merge to in-flight line.
    m.allocate(3, now=200, latency=100)
    assert m.allocate(3, now=250, latency=100) == 300
    assert m.merges == 1


def test_mshr_rejects_zero_capacity():
    with pytest.raises(ValueError):
        MSHRFile(capacity=0)


def test_stats_shape():
    h = fresh()
    h.access(0x1000, now=0)
    h.access(0x1000, now=500)
    s = h.stats()
    assert s.accesses["L1D"] == 2
    assert s.misses["L1D"] == 1
    assert s.memory_accesses == 1


def test_config2_smaller_l1_misses_more():
    """The same conflict pattern that fits 16 KB must thrash 8 KB."""
    working_set = [i * 64 for i in range(200)]   # 12.5 KB of lines
    big = base_hierarchy().build()
    small = config2_hierarchy().build()
    for h in (big, small):
        now = 0
        for _ in range(5):
            for addr in working_set:
                now = h.access(addr, now=now).ready
    assert small.l1d.misses > big.l1d.misses
