"""Unit tests for the advance store cache and result store."""

import pytest

from repro.multipass import (HIT, HIT_INVALID, INVALID, MISS,
                             MISS_SPECULATIVE, AdvanceStoreCache,
                             ResultStore)


class TestAdvanceStoreCache:
    def test_forwarding_hit(self):
        asc = AdvanceStoreCache()
        asc.write(0x100, 42)
        outcome, value = asc.read(0x100)
        assert outcome == HIT and value == 42

    def test_miss_when_empty(self):
        asc = AdvanceStoreCache()
        assert asc.read(0x100) == (MISS, None)

    def test_invalid_store_suppresses_load(self):
        asc = AdvanceStoreCache()
        asc.write(0x100, INVALID)
        outcome, value = asc.read(0x100)
        assert outcome == HIT_INVALID and value is None

    def test_later_store_overwrites(self):
        asc = AdvanceStoreCache()
        asc.write(0x100, 1)
        asc.write(0x100, 2)
        assert asc.read(0x100) == (HIT, 2)

    def test_replacement_marks_set_speculative(self):
        asc = AdvanceStoreCache(entries=4, assoc=2)   # 2 sets
        stride = asc.num_sets * asc.word_size         # same-set addresses
        asc.write(0x0, 1)
        asc.write(0x0 + stride, 2)
        asc.write(0x0 + 2 * stride, 3)                # evicts addr 0x0
        outcome, _ = asc.read(0x0)
        assert outcome == MISS_SPECULATIVE
        # The other set is unaffected.
        assert asc.read(0x4)[0] == MISS

    def test_clear_resets_replacement_state(self):
        asc = AdvanceStoreCache(entries=4, assoc=2)
        stride = asc.num_sets * asc.word_size
        for i in range(4):
            asc.write(i * stride, i)
        asc.clear()
        assert asc.read(0x0) == (MISS, None)

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            AdvanceStoreCache(entries=5, assoc=2)

    def test_paper_configuration(self):
        asc = AdvanceStoreCache(entries=64, assoc=2)
        assert asc.num_sets == 32


class TestResultStore:
    def test_put_get_pop(self):
        rs = ResultStore(16)
        rs.put(5, ready=10)
        assert rs.live[5] and rs.read(5) == 10
        rs.pop(5)
        assert not rs.live[5] and len(rs) == 0
        assert (rs.writes, rs.reads, rs.merges) == (1, 1, 1)

    def test_overwrite_same_seq(self):
        rs = ResultStore(16)
        rs.put(1, ready=5, sbit=1, value=3)
        rs.put(1, ready=9)
        assert rs.ready[1] == 9 and not rs.sbit[1] and rs.value[1] is None
        assert len(rs) == 1

    def test_clear_from_flushes_younger(self):
        rs = ResultStore(16)
        for seq in range(10):
            rs.put(seq, ready=0)
        cleared = rs.clear_from(6)
        assert cleared == 4
        assert rs.live[5] and not any(rs.live[6:])
        assert rs.clear_from(6) == 0

    def test_max_seq(self):
        rs = ResultStore(16)
        assert rs.max_seq() == -1
        rs.put(3, ready=0)
        rs.put(7, ready=0)
        assert rs.max_seq() == 7
        rs.pop(7)
        assert rs.max_seq() == 3

    def test_sbit_value_round_trip(self):
        rs = ResultStore(16)
        rs.put(2, ready=0, sbit=1, value=99)
        assert rs.sbit[2] and rs.value[2] == 99
