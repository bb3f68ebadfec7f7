"""Hypothesis property tests for the core data structures."""

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.branch import GsharePredictor
from repro.compiler import tarjan_scc
from repro.isa import to_int32
from repro.isa.opcodes import FUClass
from repro.memory import Cache, CacheConfig, MSHRFile
from repro.multipass import (HIT, HIT_INVALID, INVALID, MISS,
                             MISS_SPECULATIVE, AdvanceStoreCache,
                             ResultStore)
from repro.resources import PORT_CODE, PortModel, PortTracker, issue_table


class TestInt32:
    @given(st.integers())
    def test_range(self, x):
        v = to_int32(x)
        assert -(1 << 31) <= v < (1 << 31)

    @given(st.integers())
    def test_idempotent(self, x):
        assert to_int32(to_int32(x)) == to_int32(x)

    @given(st.integers(), st.integers())
    def test_addition_homomorphism(self, a, b):
        assert to_int32(to_int32(a) + to_int32(b)) == to_int32(a + b)

    @given(st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1))
    def test_identity_in_range(self, x):
        assert to_int32(x) == x


word_addrs = st.integers(min_value=0, max_value=1 << 16).map(lambda w: w * 4)


class TestCacheProperties:
    @given(st.lists(word_addrs, min_size=1, max_size=200))
    def test_fill_then_probe_hits(self, addrs):
        cache = Cache(CacheConfig("t", 4096, 64, 2, 1))
        for addr in addrs:
            cache.fill(addr)
            assert cache.probe(addr)

    @given(st.lists(word_addrs, max_size=200))
    def test_occupancy_bounded(self, addrs):
        config = CacheConfig("t", 2048, 64, 4, 1)
        cache = Cache(config)
        for addr in addrs:
            cache.access(addr)
            cache.fill(addr)
        for cache_set in cache._sets:
            # Untouched sets stay unallocated (None) until first use.
            assert cache_set is None or len(cache_set) <= config.assoc

    @given(st.lists(word_addrs, max_size=200))
    def test_stats_consistent(self, addrs):
        cache = Cache(CacheConfig("t", 2048, 64, 4, 1))
        for addr in addrs:
            cache.access(addr)
        assert cache.hits + cache.misses == cache.accesses


class TestMSHRProperties:
    @given(st.lists(st.tuples(st.integers(0, 63),
                              st.integers(0, 50)), max_size=64),
           st.integers(1, 8))
    def test_outstanding_bounded(self, ops, capacity):
        mshr = MSHRFile(capacity)
        now = 0
        for line, delta in ops:
            now += delta
            ready = mshr.allocate(line, now, latency=100)
            assert ready >= now
            assert mshr.outstanding(now) <= capacity

    @given(st.lists(st.integers(0, 15), min_size=2, max_size=40))
    def test_same_line_merges(self, lines):
        mshr = MSHRFile(16)
        first = {}
        for line in lines:
            ready = mshr.allocate(line, now=0, latency=100)
            if line in first:
                assert ready == first[line]   # merged into same fill
            first.setdefault(line, ready)


class TestGshareProperties:
    @given(st.lists(st.tuples(st.integers(0, 1023), st.booleans()),
                    max_size=500))
    def test_counters_consistent(self, events):
        p = GsharePredictor()
        for pc, taken in events:
            p.update(pc, taken)
        assert p.predictions == len(events)
        assert 0 <= p.mispredictions <= p.predictions
        assert 0.0 <= p.accuracy <= 1.0

    @given(st.lists(st.tuples(st.integers(0, 255), st.booleans()),
                    max_size=200))
    def test_deterministic(self, events):
        p1, p2 = GsharePredictor(), GsharePredictor()
        for pc, taken in events:
            assert p1.update(pc, taken) == p2.update(pc, taken)
        assert p1._counters == p2._counters


class _EagerASC:
    """The ASC with an eager ``clear()``: every set emptied, the clock
    restarted.  The model the generation-stamped cache must match."""

    def __init__(self, entries, assoc, word_size=4):
        self.assoc = assoc
        self.word_size = word_size
        self.num_sets = entries // assoc
        self.writes = self.reads = self.forwards = self.replacements = 0
        self.clear()

    def clear(self):
        self.sets = [{} for _ in range(self.num_sets)]
        self.replaced = [False] * self.num_sets
        self.clock = 0

    def write(self, addr, value):
        self.writes += 1
        self.clock += 1
        index = (addr // self.word_size) % self.num_sets
        ways = self.sets[index]
        if addr not in ways and len(ways) >= self.assoc:
            del ways[min(ways, key=lambda a: ways[a][1])]
            self.replaced[index] = True
            self.replacements += 1
        ways[addr] = (value, self.clock)

    def read(self, addr):
        self.reads += 1
        index = (addr // self.word_size) % self.num_sets
        if addr in self.sets[index]:
            value = self.sets[index][addr][0]
            if value is INVALID:
                return HIT_INVALID, None
            self.forwards += 1
            return HIT, value
        return (MISS_SPECULATIVE if self.replaced[index] else MISS), None


#: 32 words over the 4 sets of an 8-entry 2-way ASC: 8 words per set.
_ASC_ADDRS = st.integers(0, 31).map(lambda w: w * 4)
_ASC_OPS = st.one_of(
    st.tuples(st.just("write"), _ASC_ADDRS, st.integers(0, 99)),
    st.tuples(st.sampled_from(["invalid", "read"]), _ASC_ADDRS, st.none()),
    st.tuples(st.just("clear"), st.none(), st.none()),
)


class TestASCProperties:
    # Write A, clear, write B in A's set, read A: a stale set that is
    # not emptied on its first touch in the new pass forwards A.
    @example([("write", 0, 1), ("clear", None, None), ("write", 16, 2),
              ("read", 0, None)])
    @given(st.lists(_ASC_OPS, max_size=150))
    def test_matches_eager_model(self, ops):
        """Every read, and every counter, equals the eager model's."""
        asc = AdvanceStoreCache(entries=8, assoc=2)
        eager = _EagerASC(entries=8, assoc=2)
        for op, addr, value in ops:
            if op == "clear":
                asc.clear()
                eager.clear()
            elif op == "read":
                assert asc.read(addr) == eager.read(addr)
            else:
                value = INVALID if op == "invalid" else value
                asc.write(addr, value)
                eager.write(addr, value)
        assert (asc.writes, asc.reads, asc.forwards, asc.replacements) == (
            eager.writes, eager.reads, eager.forwards, eager.replacements)

    @given(st.lists(st.tuples(st.booleans(), word_addrs,
                              st.integers(0, 1000)), max_size=120))
    def test_matches_reference_model(self, ops):
        """The ASC must forward the latest store value or admit it could
        have lost one (data-speculative) — never silently return a stale
        value as a clean hit."""
        asc = AdvanceStoreCache(entries=8, assoc=2)
        reference = {}
        for is_write, addr, value in ops:
            if is_write:
                asc.write(addr, value)
                reference[addr] = value
            else:
                outcome, forwarded = asc.read(addr)
                if outcome == HIT:
                    assert forwarded == reference[addr]
                elif outcome == MISS:
                    assert addr not in reference or True
                else:
                    assert outcome in (MISS_SPECULATIVE, HIT_INVALID)

    @given(st.lists(st.tuples(word_addrs, st.integers(0, 99)),
                    min_size=1, max_size=60))
    def test_clear_empties(self, writes):
        asc = AdvanceStoreCache(entries=8, assoc=2)
        for addr, value in writes:
            asc.write(addr, value)
        asc.clear()
        for addr, _ in writes:
            assert asc.read(addr)[0] == MISS


_RS_N = 64
_RS_SEQS = st.integers(0, _RS_N - 1)
#: (ready, sbit, value) of one put.
_RS_ENTRIES = st.tuples(st.integers(0, 1000), st.integers(0, 1),
                        st.none() | st.integers(0, 9))
_RS_OPS = st.one_of(
    st.tuples(st.just("put"), _RS_SEQS, _RS_ENTRIES),
    st.tuples(st.sampled_from(["read", "pop", "clear_from"]), _RS_SEQS,
              st.none()),
)


class TestResultStoreProperties:
    @given(st.lists(_RS_OPS, max_size=200))
    def test_matches_dict_model(self, ops):
        """The store behaves like a seq -> (ready, sbit, value) dict.

        ``read`` and ``pop`` address a live entry, as both multipass
        loops do: the drawn seq picks one of the model's keys.
        """
        rs = ResultStore(_RS_N)
        model = {}
        writes = reads = merges = 0
        for op, seq, entry in ops:
            if op == "put":
                rs.put(seq, *entry)
                model[seq] = entry
                writes += 1
            elif op == "clear_from":
                flushed = [s for s in model if s >= seq]
                assert rs.clear_from(seq) == len(flushed)
                for s in flushed:
                    del model[s]
            elif model:
                live = sorted(model)[seq % len(model)]
                if op == "read":
                    assert rs.read(live) == model[live][0]
                    reads += 1
                else:
                    rs.pop(live)
                    del model[live]
                    merges += 1
            assert len(rs) == len(model)
            assert rs.max_seq() == max(model, default=-1)
            assert {s for s in range(_RS_N) if rs.live[s]} == set(model)
            for s, (ready, sbit, value) in model.items():
                assert (rs.ready[s], rs.sbit[s], rs.value[s]) == (
                    ready, sbit, value)
            assert (rs.writes, rs.reads, rs.merges) == (writes, reads,
                                                        merges)


port_models = st.builds(
    PortModel, width=st.integers(1, 8), m_ports=st.integers(1, 4),
    i_ports=st.integers(1, 4), f_ports=st.integers(1, 4),
    b_ports=st.integers(1, 4))


class TestIssueTableProperties:
    @given(port_models,
           st.lists(st.lists(st.sampled_from(FUClass), max_size=12),
                    min_size=1, max_size=6))
    def test_matches_port_tracker(self, model, cycles):
        """Stepping the table is driving the tracker.

        Each cycle starts at state 0 and skips a refused class, as the
        OOO scan does.  In every state reached, the table refuses a
        class exactly when ``can_issue`` does, so each accepted step
        lands where ``issue`` takes the tracker.
        """
        table = issue_table(model)
        tracker = PortTracker(model)

        def agree(state):
            for fu in FUClass:
                refused = table[state + PORT_CODE[fu]] < 0
                assert refused == (not tracker.can_issue(fu)), (state, fu)

        for cycle in cycles:
            tracker.reset()
            state = 0
            agree(state)
            for fu in cycle:
                after = table[state + PORT_CODE[fu]]
                if after >= 0:
                    tracker.issue(fu)
                    state = after
                    agree(state)


class TestTarjanProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.dictionaries(st.integers(0, 15),
                           st.lists(st.integers(0, 15), max_size=4),
                           max_size=16))
    def test_components_partition_nodes(self, adj):
        comps = tarjan_scc(adj)
        seen = [n for comp in comps for n in comp]
        all_nodes = set(adj) | {t for ts in adj.values() for t in ts}
        assert sorted(seen) == sorted(all_nodes)

    @settings(max_examples=50, deadline=None)
    @given(st.dictionaries(st.integers(0, 12),
                           st.lists(st.integers(0, 12), max_size=4),
                           max_size=13))
    def test_matches_networkx(self, adj):
        import networkx as nx
        g = nx.DiGraph()
        g.add_nodes_from(adj)
        for src, targets in adj.items():
            for dst in targets:
                g.add_edge(src, dst)
        expected = {frozenset(c)
                    for c in nx.strongly_connected_components(g)}
        got = {frozenset(c) for c in tarjan_scc(adj)}
        assert got == expected
