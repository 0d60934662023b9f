"""Remote-memory-operation (RMO) baseline protocol engine.

RMO schemes (NYU Ultracomputer, Cray T3E, TilePro64, GPUs) ship update
operations to a fixed location — here the home shared-cache bank — instead of
caching the line at the updating core (Fig. 1b).  This avoids ping-ponging the
line between private caches, but every update still crosses the network, and
the single remote ALU at the home bank becomes a throughput bottleneck under
contention.  Reads of RMO-managed data are served from the shared cache as
well to keep the remote copies authoritative.

The paper uses RMOs as the main hardware point of comparison in Sec. 2.1
(qualitatively); this engine lets the reproduction quantify that comparison
and serves as the hardware counterpart of the delegation software baseline.
"""

from __future__ import annotations

from typing import Dict

from repro.core.mesi import MesiProtocol
from repro.core.protocol import AccessOutcome
from repro.interconnect.messages import LinkScope, MessageType
from repro.sim.access import MemoryAccess
from repro.sim.config import SystemConfig


class RmoProtocol(MesiProtocol):
    """MESI plus remote update operations executed at the home L3/L4 bank."""

    name = "RMO"
    #: Remote/commutative updates always travel to the home bank, so the
    #: hit table (``HOT_COMMUTATIVE = "never"``) sends every update to
    #: :meth:`resolve_slow` unprobed; only loads and stores hit.  The retire
    #: loop resolves each update in the canonical order, so the bank-ALU
    #: queue (``_bank_busy_until``) is only touched in that order, which
    #: keeps batching bit-identical.
    HOT_COMMUTATIVE = "never"

    #: Cycles the home bank ALU is occupied per remote update.
    REMOTE_ALU_CYCLES = 4.0

    def __init__(self, config: SystemConfig, track_values: bool = True) -> None:
        super().__init__(config, track_values=track_values)
        #: Per (chip, bank) ALU availability time, modelling the hotspot.
        self._bank_busy_until: Dict[tuple, float] = {}
        self.stat_remote_updates = 0

    def _bank_key(self, line_addr: int) -> tuple:
        home_chip = self.home_l4_chip(line_addr)
        bank = self.config.l3_home_bank(line_addr)
        return (home_chip, bank)

    def _remote_update(self, core_id: int, access: MemoryAccess, now: float) -> AccessOutcome:
        """Send the update to the home bank; wait for its ALU and the ack."""
        line_addr = self.line_addr(access.address)
        outcome = AccessOutcome()
        breakdown = outcome.latency
        requester_chip = self._chip(core_id)
        home_chip = self.home_l4_chip(line_addr)

        # Any privately cached copies must be invalidated so the remote copy
        # stays authoritative (first update to a line only).
        entry = self.directory.peek(line_addr)
        if entry is not None and entry.sharers:
            breakdown.l4_invalidations, count = self._invalidate_sharers(
                self, core_id, line_addr, entry, now, breakdown.l4_invalidations
            )
            self._invalidate_requester_copy(core_id, line_addr)
            outcome.invalidations += count
            self.directory.clear_all_sharers(line_addr)
        else:
            self._invalidate_requester_copy(core_id, line_addr)

        # Travel to the home bank (topology- and contention-aware).
        breakdown.l3 += self._onchip_hop + self._l3_latency
        if home_chip != requester_chip:
            # Remote op request + ack: a control-only exchange.
            breakdown.offchip_network += self._l4_control_rt(
                requester_chip, home_chip, line_addr, now
            )
            breakdown.l4 += self._l4_latency
            scope = LinkScope.OFF_CHIP
        else:
            scope = LinkScope.ON_CHIP
        self.interconnect.record_one(MessageType.REMOTE_OP, scope)
        self.interconnect.record_one(MessageType.ACK, scope)

        # Queue for the bank's ALU: this is the RMO hotspot.
        key = self._bank_key(line_addr)
        busy_until = self._bank_busy_until.get(key, 0.0)
        start = max(now, busy_until)
        wait = start - now
        self._bank_busy_until[key] = start + self.REMOTE_ALU_CYCLES
        breakdown.serialization += wait
        breakdown.l4_invalidations += self.REMOTE_ALU_CYCLES

        self._functional_update(access)
        self.stat_remote_updates += 1
        return outcome

    def _invalidate_requester_copy(self, core_id: int, line_addr: int) -> None:
        from repro.core.states import StableState

        if self.core_state(core_id, line_addr) is not StableState.INVALID:
            self.hierarchy.private_invalidate(core_id, line_addr)
            self._set_state(core_id, line_addr, StableState.INVALID)
            self.directory.remove_sharer(line_addr, core_id)
            self.directory.drop_if_uncached(line_addr)

    def resolve_slow(
        self,
        core_id: int,
        access: MemoryAccess,
        line_addr: int,
        state,
        level,
        now: float,
    ):
        if access.access_type.is_commutative:
            # Remote updates bypass the private hierarchy entirely; no probe.
            self.current_time = now
            return self._remote_update(core_id, access, now)
        return self._resolve_transaction(core_id, access, line_addr, state, level, now)
