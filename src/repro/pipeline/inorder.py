"""Baseline in-order EPIC core (the paper's ``inorder``/``base`` machine).

Strict in-order issue of compiler-formed issue groups: up to one group per
cycle, stall-on-use when an operand is not ready, scoreboarded WAW stalls
for variable-latency writers (Section 3.5), non-blocking stores, and a
gshare-driven front end.  Long stalls are fast-forwarded when neither the
front end nor the memory system has intervening work, which does not change
cycle counts — only wall-clock simulation time.  The inner loop reads the
decoded-trace cache (:mod:`repro.isa.decoded`) instead of per-entry
properties, and each issue claims its port with one step of
:func:`~repro.resources.issue_table`, the ``PortTracker`` rule as a table
(the width is part of the port state, so a refused step ends the group).
"""

from __future__ import annotations

from typing import Optional

from ..isa.columns import columns_of
from ..isa.trace import Trace
from ..machine import MachineConfig
from ..resources import issue_table
from .base import BaseCore
from .stats import SimStats, StallCategory


class InOrderCore(BaseCore):
    """Stall-on-use in-order pipeline."""

    model_name = "inorder"

    def __init__(self, trace: Trace, config: Optional[MachineConfig] = None,
                 check: bool = False, tracer=None, slow: bool = False):
        config = config or MachineConfig()
        super().__init__(trace, config, config.inorder_buffer_size,
                         check=check, tracer=tracer, slow=slow)

    def run(self, max_cycles: Optional[int] = None) -> SimStats:
        if max_cycles is None:
            max_cycles = self.cycle_budget()
        trace = self.trace
        dec = trace.decoded
        n = dec.n
        frontend = self.frontend
        table = issue_table(self.config.ports)  # the dispersal rule
        port_code = columns_of(dec).port_code  # shared per-trace column
        reg_ready = self.reg_ready
        pending = self.load_miss_pending
        stats = self.stats
        counters = stats.counters
        access = self.hierarchy.access
        d_srcs = dec.srcs
        d_dests = dec.dests
        d_lat = dec.latency
        d_mem = dec.mem_exec
        d_load = dec.is_load
        d_addr = dec.addr
        d_branch = dec.is_branch
        d_stop = dec.stop
        d_pc = dec.pc
        d_taken = dec.taken
        tel = self.tracer
        replay = self.replay
        # TraceEntry objects only for the --check replay.
        entries = trace.entries if replay is not None else None
        EXECUTION = StallCategory.EXECUTION
        FRONT_END = StallCategory.FRONT_END
        LOAD = StallCategory.LOAD
        OTHER = StallCategory.OTHER
        # Per-category cycle tallies kept in locals, flushed into the
        # stats once after the loop — identical totals to per-cycle
        # charge() without a method call + enum-dict update per cycle.
        c_exec = c_fe = c_load = c_other = 0
        now = 0
        ptr = 0

        while ptr < n:
            if now > max_cycles:
                self.check_cycle_budget(now, max_cycles)
            # tick() is a no-op once the whole trace is fetched (its
            # limit clamps to n); a redirect rolls fetched_until back,
            # so the guard re-arms itself.
            if frontend.fetched_until < n:
                frontend.tick(now, ptr)
            port_state = 0
            issued = 0
            reason = None
            wait_until = now + 1
            waw_break = False

            while ptr < frontend.fetched_until:
                i = ptr
                # The port is claimed eagerly: every path that does not
                # issue ends the cycle with ``break``.
                port_state = table[port_state + port_code[i]]
                if port_state < 0:
                    reason = OTHER
                    break

                stall = 0
                load_wait = False
                for s in d_srcs[i]:
                    r = reg_ready[s]
                    if r > now:
                        if r > stall:
                            stall = r
                        if pending[s] > now:
                            load_wait = True
                if stall:
                    wait_until = stall
                    reason = LOAD if load_wait else OTHER
                    break

                latency = d_lat[i]
                l1_miss = False
                if d_mem[i]:
                    if d_load[i]:
                        result = access(d_addr[i], now)
                        latency = result.latency
                        l1_miss = result.l1_miss
                        counters["loads_issued"] += 1
                        if l1_miss:
                            counters["l1d_load_misses"] += 1
                            if tel is not None:
                                tel.cache_miss(now, i, result.level)
                    else:
                        access(d_addr[i], now, kind="store")

                # Scoreboarded WAW: a shorter-latency writer may not
                # complete before an in-flight longer-latency one.
                done = now + latency
                stall = 0
                load_wait = False
                for d in d_dests[i]:
                    r = reg_ready[d]
                    if r > done:
                        if r > stall:
                            stall = r
                        if pending[d] > now:
                            load_wait = True
                if stall:
                    wait_until = stall
                    reason = LOAD if load_wait else OTHER
                    counters["waw_stalls"] += 1
                    waw_break = True
                    break

                for d in d_dests[i]:
                    reg_ready[d] = done
                    pending[d] = done if l1_miss else 0
                stats.instructions += 1
                if tel is not None:
                    tel.issue(now, i)
                    tel.commit(now, i)
                if replay is not None:
                    replay.commit(entries[i])
                issued += 1
                ptr = i + 1
                if d_branch[i]:
                    if frontend.resolve(i, d_pc[i], d_taken[i], now):
                        counters["mispredicts"] += 1
                        break
                if d_stop[i]:
                    break  # issue-group boundary ends the cycle

            if issued:
                c_exec += 1
                if tel is not None:
                    tel.charge(now, EXECUTION)
            elif ptr >= frontend.fetched_until:
                c_fe += 1
                if tel is not None:
                    has_blocked = ptr < n
                    tel.charge(now, FRONT_END,
                               seq=ptr if has_blocked else -1,
                               pc=d_pc[ptr] if has_blocked else -1)
            elif reason is LOAD:
                c_load += 1
                if tel is not None:
                    tel.charge(now, LOAD, seq=ptr, pc=d_pc[ptr])
            else:
                c_other += 1
                if tel is not None:
                    tel.charge(now, reason or OTHER, seq=ptr, pc=d_pc[ptr])
            now += 1

            # Fast-forward a long operand stall when nothing else can
            # happen: the attribution for the skipped cycles is identical.
            # The WAW skip predates the --slow mode and is golden-pinned
            # as a span (a per-cycle retry would repeat the cache access),
            # so it stays on even in --slow.
            if not issued and wait_until > now \
                    and (reason is LOAD or reason is OTHER):
                if waw_break:
                    skip_to = self._frontend_clamp(now, wait_until, ptr)
                else:
                    skip_to = self.next_event_cycle(now, wait_until, ptr)
                if skip_to > now:
                    if reason is LOAD:
                        c_load += skip_to - now
                    else:
                        c_other += skip_to - now
                    if tel is not None:
                        tel.charge(now, reason, seq=ptr, pc=d_pc[ptr],
                                   cycles=skip_to - now)
                    now = skip_to

        breakdown = stats.cycle_breakdown
        breakdown[EXECUTION] += c_exec
        breakdown[FRONT_END] += c_fe
        breakdown[LOAD] += c_load
        breakdown[OTHER] += c_other
        stats.cycles += c_exec + c_fe + c_load + c_other
        return self.finalize()


def simulate_inorder(trace: Trace, config: Optional[MachineConfig] = None
                     ) -> SimStats:
    """Run the baseline in-order model over ``trace``."""
    return InOrderCore(trace, config).run()
