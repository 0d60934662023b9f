"""Baseline MESI directory protocol engine for the timing simulator.

This engine resolves each access against stable MESI states, computing the
critical-path latency of the coherence transaction it triggers (private hit,
chip-local L3 access, off-chip L4/global-directory access, invalidations and
downgrades of remote sharers, main-memory fills) and recording the traffic it
generates.  Commutative-update accesses are treated exactly like conventional
atomic read-modify-writes — which is precisely how the paper's baseline
benchmark implementations behave — so a single workload trace can be run under
MESI and MEUSI and compared directly.

Contention is modelled with per-line serialization at the directory: a
transaction that transfers ownership or invalidates sharers occupies the
line's home until it completes, so concurrent atomics to a hot line queue up.

Every MESI-family transaction shape — GetS (R1-R3), GetX/upgrade (W1-W3) and
COUP's GetU grants (U1-U5, used by MEUSI) — exists once, in the functions
:func:`_transaction_shapes` builds per engine, and the private-hit rule once,
as the hit table (:func:`repro.core.protocol.hit_table`).  ``access`` and the
retire loop ``resolve_slow_batch`` both run them, so they cannot drift apart.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.directory import DirectoryEntry
from repro.core.protocol import (
    ACT_BUFFER,
    ACT_HIT,
    ACT_HIT_M,
    ACT_PROBE,
    ACT_SLOW,
    AccessOutcome,
    CoherenceProtocol,
)
from repro.core.states import LineMode, StableState
from repro.interconnect.messages import LinkScope, MessageType
from repro.sim.access import AccessType, MemoryAccess
from repro.sim.config import SystemConfig
from repro.sim.stats import CoreStats, LatencyBreakdown

#: Code-table twins used by the retire loop (Python-int indexed).
from repro.sim.columnar import (
    CODE_ACCESS_TYPE,
    CODE_KIND,
    CODE_OP,
    CODE_SIZE,
    CODE_VALUE_KIND,
    KIND_OF_TYPE,
    decode_value,
)

_KIND_OF_CODE = tuple(int(kind) for kind in CODE_KIND)

#: Accesses materialized (ndarray slice -> Python list) per slot per refill in
#: the retire loop; bounds peak list memory at a few KiB per core.
_RETIRE_CHUNK = 512

#: COUP's update-only state.  The MESI-family retire loop and GetU shapes
#: below service MEUSI's U lines via inheritance; plain MESI and RMO never
#: enter it.
# repro-lint: disable=P203(shared MESI-family machinery services MEUSI U lines via inheritance; plain MESI never reaches this state)
_UPDATE = StableState.UPDATE


def _transaction_shapes(engine: "MesiProtocol") -> Tuple[Callable[..., Any], ...]:
    """Build ``engine``'s MESI-family transactions.

    Returns ``(transaction, ensure_shared_levels, invalidate_sharers)``.  The
    functions close over the engine's hoisted tables, caches and directory,
    never over the engine itself: each takes it as its first argument
    ``eng`` and reads through it only what may change while it lives — the
    off-chip latency hooks (``_l4_rt``, ``_l4_control_rt``, ``_chip_rt``,
    rebindable after construction), ``current_time``, the aggregate
    statistics, and the eviction and delta-buffer methods a
    subclass overrides.  A closure over the engine would be a reference
    cycle that keeps every finished engine alive until a full garbage
    collection.  The traffic counters are read through the interconnect at
    call time because ``CacheHierarchy.reset_statistics`` replaces them.
    """
    chip_of = engine._chip_of_core
    core_states = engine.core_states
    directory = engine.directory
    dir_entries = directory._entries
    grant_shared = directory.grant_shared
    grant_update_only = directory.grant_update_only
    remove_sharer = directory.remove_sharer
    l3_caches = engine._l3_caches
    l4_caches = engine._l4_caches
    memory = engine._memory
    fill_victim = engine.hierarchy.private_fill_victim
    private_invalidate = engine.hierarchy.private_invalidate
    interconnect = engine.interconnect
    size_of = interconnect._size_of
    l_gs = MessageType.GET_SHARED.label
    l_gx = MessageType.GET_EXCLUSIVE.label
    l_gu = MessageType.GET_UPDATE.label
    l_dr = MessageType.DATA_RESPONSE.label
    l_dw = MessageType.DATA_WRITEBACK.label
    l_dg = MessageType.DOWNGRADE.label
    l_inv = MessageType.INVALIDATE.label
    l_ack = MessageType.ACK.label
    l_gnd = MessageType.GRANT_NO_DATA.label
    s_gs, s_gx, s_gu, s_dr, s_dw, s_dg, s_inv, s_ack, s_gnd = (
        size_of[label]
        for label in (l_gs, l_gx, l_gu, l_dr, l_dw, l_dg, l_inv, l_ack, l_gnd)
    )
    onchip = engine._onchip_hop
    l2_lat = engine._l2_latency
    l3_lat = engine._l3_latency
    l4_lat = engine._l4_latency
    n_l4 = engine._n_l4_chips
    line_bytes = engine.config.line_bytes
    light = engine.LIGHT_OCCUPANCY
    per_sharer = engine.PER_SHARER_INVAL_CYCLES
    comm_local = engine.HOT_COMMUTATIVE == "local"
    track = engine.track_values
    image = engine.memory_image
    MOD = StableState.MODIFIED
    EXC = StableState.EXCLUSIVE
    SHR = StableState.SHARED
    UPD = _UPDATE
    M_EXCLUSIVE = LineMode.EXCLUSIVE
    M_READ_ONLY = LineMode.READ_ONLY
    M_UNCACHED = LineMode.UNCACHED
    M_UPDATE_ONLY = LineMode.UPDATE_ONLY

    def ensure_shared_levels(
        eng: Any, chip: int, line_addr: int, now: float,
        b3: float, b4: float, b5: float, b7: float,
    ) -> Tuple[float, float, float, float]:
        """Charge L3/L4/memory latency for locating the line's data.

        The requester always consults its chip's L3 (and directory slice).
        If the line is not on-chip it travels to the home L4 chip; if the L4
        also misses, main memory supplies the data.  The touched levels are
        filled so later accesses from this chip hit closer to the core.
        Takes and returns the ``(l3, offchip_network, l4, main_memory)``
        latency components.
        """
        b3 += onchip + l3_lat
        l3 = l3_caches[chip]
        if l3.lookup(line_addr) is not None:
            return b3, b4, b5, b7
        home_l4 = line_addr % n_l4
        b4 += eng._l4_rt(chip, home_l4, line_addr, now)
        b5 += l4_lat
        traffic = interconnect.traffic
        mbt = traffic.messages_by_type
        bbt = traffic.bytes_by_type
        traffic.off_chip_bytes += s_gs + s_dr
        mbt[l_gs] += 1
        bbt[l_gs] += s_gs
        mbt[l_dr] += 1
        bbt[l_dr] += s_dr
        l4 = l4_caches[home_l4]
        if l4.lookup(line_addr) is None:
            b7 += memory.access(home_l4, now, line_bytes).latency
            l4.insert(line_addr)
        l3.insert(line_addr)
        return b3, b4, b5, b7

    def invalidate_sharers(
        eng: Any, requester: int, line_addr: int, entry: DirectoryEntry,
        now: float, b6: float,
    ) -> Tuple[float, int]:
        """Invalidate every sharer of ``entry`` except ``requester``.

        The global directory sends invalidations to every chip with sharers
        in parallel, each chip invalidates its local caches through its L3,
        and acks flow back: cross-chip invalidations cost the slowest
        off-chip control round trip, chip-local ones an on-chip round trip,
        plus a small per-sharer serialization term.  Returns the
        ``l4_invalidations`` component with that delay added and the number
        of caches invalidated.
        """
        victims = sorted(entry.sharers - {requester})
        if not victims:
            return b6, 0
        chip = chip_of[requester]
        victim_chips = {chip_of[core] for core in victims}
        offchip_chips = {c for c in victim_chips if c != chip}
        inval_latency = 0.0
        if offchip_chips:
            home_l4 = line_addr % n_l4
            control_rt = eng._l4_control_rt
            inval_latency += max(
                control_rt(c, home_l4, line_addr, now) for c in offchip_chips
            )
        inval_latency += onchip * 2
        inval_latency += l2_lat
        inval_latency += per_sharer * (len(victims) - 1)
        b6 += inval_latency
        traffic = interconnect.traffic
        mbt = traffic.messages_by_type
        bbt = traffic.bytes_by_type
        for core in victims:
            states = core_states[core]
            size = s_inv
            if states.get(line_addr) is MOD:
                size += s_dw
                mbt[l_dw] += 1
                bbt[l_dw] += s_dw
            else:
                size += s_ack
                mbt[l_ack] += 1
                bbt[l_ack] += s_ack
            if chip_of[core] != chip:
                traffic.off_chip_bytes += size
            else:
                traffic.on_chip_bytes += size
            mbt[l_inv] += 1
            bbt[l_inv] += s_inv
            private_invalidate(core, line_addr)
            states.pop(line_addr, None)
            remove_sharer(line_addr, core)
        eng.stat_invalidations += len(victims)
        return b6, len(victims)

    def transaction(
        eng: Any, core_id: int, kind: int, op: Any, address: int,
        line_addr: int, state: Optional[StableState], value: Any, now: float,
    ) -> Tuple[float, float, float, float, float, float, int]:
        """Run one GetS / GetX / GetU transaction for ``core_id``.

        ``kind`` is the access's ``KIND_*`` slot: loads issue GetS, stores
        and atomics GetX, and commutative or remote updates GetU under
        MEUSI (``HOT_COMMUTATIVE == "local"``) or GetX otherwise.  ``state``
        is the core's stable state before the access (``None`` when
        untracked), ``value`` the operand (unused for loads and when values
        are untracked).  The caller has already probed the private caches
        exactly once, and for MEUSI has routed cross-op updates (U6) and
        demands on update-only lines to their reduction paths.  Returns the
        ``(l3, offchip_network, l4, l4_invalidations, main_memory,
        serialization)`` latency components and the number of caches
        invalidated or downgraded on the critical path; the caller adds the
        fixed L1 + L2 lookup.
        """
        eng.current_time = now
        chip = chip_of[core_id]
        states = core_states[core_id]
        traffic = interconnect.traffic
        mbt = traffic.messages_by_type
        bbt = traffic.bytes_by_type
        b3 = 0.0  # l3
        b4 = 0.0  # offchip_network
        b5 = 0.0  # l4
        b6 = 0.0  # l4_invalidations
        b7 = 0.0  # main_memory
        b8 = 0.0  # serialization
        invalidations = 0
        entry = dir_entries.get(line_addr)
        if entry is None:
            entry = DirectoryEntry(line_addr=line_addr)
            dir_entries[line_addr] = entry
        mode = entry.mode

        if kind >= 3 and comm_local:
            # ---------------------------- GetU (U1-U5; U6 handled by MEUSI) --
            traffic.on_chip_bytes += s_gu
            mbt[l_gu] += 1
            bbt[l_gu] += s_gu
            eng.stat_update_grants += 1
            if mode is M_EXCLUSIVE and next(iter(entry.sharers)) == core_id:
                # U2: our own copy absorbs the update in M.
                states[line_addr] = MOD
                if track and value is not None:
                    image[address] = op.apply(image.get(address, op.identity), value)
                return b3, b4, b5, b6, b7, b8, invalidations
            if mode is M_EXCLUSIVE:
                # U3: downgrade the owner M->U; both become updaters.
                owner = next(iter(entry.sharers))
                owner_chip = chip_of[owner]
                lat = l2_lat + 2 * onchip
                if owner_chip != chip:
                    transfer = eng._chip_rt(chip, owner_chip, now)
                    lat += transfer
                    b4 += transfer
                    b5 += l4_lat
                    traffic.off_chip_bytes += s_dg + s_dw
                else:
                    traffic.on_chip_bytes += s_dg + s_dw
                b6 += lat
                mbt[l_dg] += 1
                bbt[l_dg] += s_dg
                mbt[l_dw] += 1
                bbt[l_dw] += s_dw
                eng.stat_downgrades += 1
                # The owner's data is written back to the shared cache; the
                # owner keeps an update-only copy initialised to the identity.
                l3_caches[owner_chip].insert(line_addr)
                occupancy = lat
            elif mode is M_READ_ONLY:
                # U4: invalidate all readers, then grant update-only.
                b3, b4, b5, b7 = ensure_shared_levels(eng, chip, line_addr, now, b3, b4, b5, b7)
                b6, invalidations = invalidate_sharers(eng, core_id, line_addr, entry, now, b6)
                occupancy = b6 + light
            else:
                # U1 (unshared) / U5 (same-op update-only join).
                b3, b4, b5, b7 = ensure_shared_levels(eng, chip, line_addr, now, b3, b4, b5, b7)
                occupancy = light
            start = entry.busy_until
            if now > start:
                start = now
            wait = start - now
            if wait > 0:
                b8 += wait
            entry.busy_until = start + occupancy
            if mode is M_UNCACHED:
                # U1: unshared, grant M directly (the E-like optimisation).
                entry.mode = M_EXCLUSIVE
                entry.sharers = {core_id}
                entry.op = None
                states[line_addr] = MOD
                victim = fill_victim(core_id, line_addr)
                if victim is not None:
                    eng._handle_private_eviction(core_id, victim)
                traffic.on_chip_bytes += s_dr
                mbt[l_dr] += 1
                bbt[l_dr] += s_dr
                if track and value is not None:
                    image[address] = op.apply(image.get(address, op.identity), value)
                return b3, b4, b5, b6, b7, b8, invalidations
            if mode is M_EXCLUSIVE:
                entry.mode = M_UPDATE_ONLY
                entry.sharers = {owner, core_id}
                entry.op = op
                core_states[owner][line_addr] = UPD
            elif mode is M_READ_ONLY:
                entry.mode = M_UPDATE_ONLY
                entry.sharers = {core_id}
                entry.op = op
            else:
                grant_update_only(line_addr, core_id, op)
            states[line_addr] = UPD
            if mode is M_EXCLUSIVE:
                eng._buffer_for(owner, line_addr, op)
            victim = fill_victim(core_id, line_addr)
            if victim is not None:
                eng._handle_private_eviction(core_id, victim)
            traffic.on_chip_bytes += s_gnd
            mbt[l_gnd] += 1
            bbt[l_gnd] += s_gnd
            if track and value is not None:
                eng._buffer_for(core_id, line_addr, op).update(address, value)
            return b3, b4, b5, b6, b7, b8, invalidations

        if kind == 0:
            # --------------------------------------- GetS (R1 / R2 / R3) ----
            traffic.on_chip_bytes += s_gs
            mbt[l_gs] += 1
            bbt[l_gs] += s_gs
            if mode is M_EXCLUSIVE:
                # R1: fetch the data from the owner, downgrading it to S.
                owner = next(iter(entry.sharers))
                owner_chip = chip_of[owner]
                b3 += onchip + l3_lat
                lat = l2_lat + 2 * onchip
                if owner_chip != chip:
                    transfer = eng._chip_rt(chip, owner_chip, now)
                    lat += transfer
                    b4 += transfer
                    b5 += l4_lat
                    traffic.off_chip_bytes += s_dg + s_dw
                else:
                    traffic.on_chip_bytes += s_dg + s_dw
                b6 += lat
                mbt[l_dg] += 1
                bbt[l_dg] += s_dg
                mbt[l_dw] += 1
                bbt[l_dw] += s_dw
                eng.stat_downgrades += 1
                l3_caches[chip].insert(line_addr)
                occupancy = lat
                entry.mode = M_READ_ONLY
                entry.sharers = {owner, core_id}
                entry.op = None
                core_states[owner][line_addr] = SHR
                invalidations = 1
                grant = SHR
            else:
                b3, b4, b5, b7 = ensure_shared_levels(eng, chip, line_addr, now, b3, b4, b5, b7)
                occupancy = light
                if mode is M_UNCACHED:
                    # R2: an unshared read is granted Exclusive.
                    entry.mode = M_EXCLUSIVE
                    entry.sharers = {core_id}
                    entry.op = None
                    grant = EXC
                else:
                    # R3: read-only join.
                    grant_shared(line_addr, core_id)
                    grant = SHR
            start = entry.busy_until
            if now > start:
                start = now
            wait = start - now
            if wait > 0:
                b8 += wait
            entry.busy_until = start + occupancy
            states[line_addr] = grant
            victim = fill_victim(core_id, line_addr)
            if victim is not None:
                eng._handle_private_eviction(core_id, victim)
            traffic.on_chip_bytes += s_dr
            mbt[l_dr] += 1
            bbt[l_dr] += s_dr
            return b3, b4, b5, b6, b7, b8, invalidations

        # ------------------------------ GetX / Upgrade (W1 / W2 / W3) -------
        traffic.on_chip_bytes += s_gx
        mbt[l_gx] += 1
        bbt[l_gx] += s_gx
        if mode is M_EXCLUSIVE and next(iter(entry.sharers)) != core_id:
            # W1: ownership transfer from the current owner.
            owner = next(iter(entry.sharers))
            owner_chip = chip_of[owner]
            b3 += onchip + l3_lat
            lat = l2_lat + 2 * onchip
            if owner_chip != chip:
                transfer = eng._chip_rt(chip, owner_chip, now)
                lat += transfer
                b4 += transfer
                b5 += l4_lat
                traffic.off_chip_bytes += s_dg + s_dw
            else:
                traffic.on_chip_bytes += s_dg + s_dw
            b6 += lat
            mbt[l_dg] += 1
            bbt[l_dg] += s_dg
            mbt[l_dw] += 1
            bbt[l_dw] += s_dw
            eng.stat_downgrades += 1
            l3_caches[chip].insert(line_addr)
            occupancy = lat
            private_invalidate(owner, line_addr)
            core_states[owner].pop(line_addr, None)
            eng.stat_invalidations += 1
            invalidations = 1
        elif mode is M_READ_ONLY and (
            len(entry.sharers) > 1 or (entry.sharers and core_id not in entry.sharers)
        ):
            # W2: invalidate every reader, then take ownership.
            b3, b4, b5, b7 = ensure_shared_levels(eng, chip, line_addr, now, b3, b4, b5, b7)
            b6, invalidations = invalidate_sharers(eng, core_id, line_addr, entry, now, b6)
            occupancy = b6 + light
        else:
            # W3: upgrade in place, or fetch-and-own an untracked line.
            if state is None:
                b3, b4, b5, b7 = ensure_shared_levels(eng, chip, line_addr, now, b3, b4, b5, b7)
            occupancy = b4 + b5
            if occupancy < light:
                occupancy = light
        start = entry.busy_until
        if now > start:
            start = now
        wait = start - now
        if wait > 0:
            b8 += wait
        entry.busy_until = start + occupancy
        entry.mode = M_EXCLUSIVE
        entry.sharers = {core_id}
        entry.op = None
        states[line_addr] = MOD
        victim = fill_victim(core_id, line_addr)
        if victim is not None:
            eng._handle_private_eviction(core_id, victim)
        traffic.on_chip_bytes += s_dr
        mbt[l_dr] += 1
        bbt[l_dr] += s_dr
        if track and value is not None:
            if kind == 1:
                image[address] = value
            elif op is not None:
                image[address] = op.apply(image.get(address, op.identity), value)
        return b3, b4, b5, b6, b7, b8, invalidations

    return transaction, ensure_shared_levels, invalidate_sharers


class MesiProtocol(CoherenceProtocol):
    """Full-map directory MESI with the Table 1 four-level hierarchy."""

    name = "MESI"
    HOT_COMMUTATIVE = "atomic"

    #: Per-sharer serialization when the home must invalidate several caches.
    PER_SHARER_INVAL_CYCLES = 2.0
    #: Directory bookkeeping occupancy for transactions with no remote action.
    LIGHT_OCCUPANCY = 2.0

    def __init__(self, config: SystemConfig, track_values: bool = True) -> None:
        super().__init__(config, track_values=track_values)
        #: Per-core stable state of each line resident in that core's caches.
        self.core_states: List[Dict[int, StableState]] = [
            {} for _ in range(config.n_cores)
        ]
        # The transaction shapes take the engine as their first argument
        # (see _transaction_shapes): ``self._transaction(self, ...)``.
        (
            self._transaction,
            self._ensure_shared_levels,
            self._invalidate_sharers,
        ) = _transaction_shapes(self)

    # ------------------------------------------------------------------ helpers

    def core_state(self, core_id: int, line_addr: int) -> StableState:
        return self.core_states[core_id].get(line_addr, StableState.INVALID)

    def _set_state(self, core_id: int, line_addr: int, state: StableState) -> None:
        # Slow-path stable-state mutations outside the transaction shapes
        # funnel through here; the shapes write ``core_states`` directly.
        if state is StableState.INVALID:
            self.core_states[core_id].pop(line_addr, None)
        else:
            self.core_states[core_id][line_addr] = state

    def _chip(self, core_id: int) -> int:
        return self._chip_of_core[core_id]

    # -------------------------------------------------------- eviction handling

    def _handle_private_eviction(self, core_id: int, line_addr: int) -> None:
        """A line fell out of a core's private caches (capacity eviction)."""
        state = self.core_state(core_id, line_addr)
        if state is StableState.INVALID:
            return
        chip = self._chip(core_id)
        if state is StableState.MODIFIED:
            # Dirty writeback to the chip's L3 (on-chip data message).
            self.interconnect.record_one(MessageType.DATA_WRITEBACK, LinkScope.ON_CHIP)
        else:
            # No silent drops: notify the directory with a control message.
            self.interconnect.record_one(MessageType.PUT_LINE, LinkScope.ON_CHIP)
        self._set_state(core_id, line_addr, StableState.INVALID)
        self.directory.remove_sharer(line_addr, core_id)
        self.directory.drop_if_uncached(line_addr)
        # Keep the line resident in the chip's L3 (inclusive hierarchy).
        self._l3_caches[chip].insert(line_addr)

    def _fill_private(self, core_id: int, line_addr: int) -> None:
        """Install a line in the core's private caches, handling victims."""
        victim = self.hierarchy.private_fill_victim(core_id, line_addr)
        if victim is not None:
            self._handle_private_eviction(core_id, victim)

    def _serialize_at_home(
        self,
        line_addr: int,
        now: float,
        breakdown: LatencyBreakdown,
        occupancy: float,
    ) -> None:
        """Queue behind any in-flight transaction for this line."""
        entry = self.directory.entry(line_addr)
        start = max(now, entry.busy_until)
        wait = start - now
        if wait > 0:
            breakdown.serialization += wait
        entry.busy_until = start + occupancy

    # ------------------------------------------------------------ value helpers

    def _functional_load(self, access: MemoryAccess):
        if not self.track_values:
            return None
        return self.memory_image.get(access.address, 0)

    def _functional_store(self, access: MemoryAccess) -> None:
        if self.track_values and access.value is not None:
            self.memory_image[access.address] = access.value

    def _functional_update(self, access: MemoryAccess) -> None:
        if not self.track_values or access.op is None or access.value is None:
            return
        current = self.memory_image.get(access.address, access.op.identity)
        self.memory_image[access.address] = access.op.apply(current, access.value)

    def _value_of(self, kind: int, access: MemoryAccess):
        """The word a hit or transaction returns: none for stores, nor for
        COUP's commutative updates (kinds >= 3 under update-only folding)."""
        if kind == 1 or (kind >= 3 and self.HOT_COMMUTATIVE == "local"):
            return None
        return self._functional_load(access)

    # --------------------------------------------------------------- main entry

    def access(self, core_id: int, access: MemoryAccess, now: float) -> AccessOutcome:
        """Resolve one access as one step of the retire loop does.

        Runs the access's hit-table cell, probes the private caches at most
        once, then retires a private hit or calls :meth:`resolve_slow` (the
        differential lane's ``api-equivalence`` check pins the two paths).
        """
        line_addr = access.address >> self._line_shift
        kind = KIND_OF_TYPE[access.access_type]
        states = self.core_states[core_id]
        state = states.get(line_addr)
        action = self.hit_rows[None if state is None else state._value_][kind]
        if action == ACT_BUFFER:  # an update of the U line's op buffers
            entry = self.directory.peek(line_addr)
            if access.op is None or entry is None or entry.op is not access.op:
                action = ACT_PROBE
        level = None if action == ACT_SLOW else self._private_level(core_id, line_addr)
        if not level or action == ACT_PROBE:
            return self.resolve_slow(core_id, access, line_addr, state, level, now)
        # MEUSI-only members (delta buffers, update statistics) are reached
        # only from ACT_BUFFER cells and update-only folding.
        sp: Any = self
        if action == ACT_BUFFER:
            sp._apply_local_update(core_id, access)
            sp.stat_local_updates += 1
        elif action == ACT_HIT_M:
            states[line_addr] = StableState.MODIFIED
            if kind == 1:
                self._functional_store(access)
            else:
                self._functional_update(access)
            if kind >= 3 and self.HOT_COMMUTATIVE == "local":
                sp.stat_local_updates += 1
        latency = LatencyBreakdown(l1=self._l1_latency)
        if level == 2:
            latency.l2 = self._l2_latency
        return AccessOutcome(latency, self._value_of(kind, access), private_hit=True)

    def resolve_slow(
        self,
        core_id: int,
        access: MemoryAccess,
        line_addr: int,
        state: Optional[StableState],
        level,
        now: float,
    ) -> AccessOutcome:
        return self._resolve_transaction(core_id, access, line_addr, state, level, now)

    def _resolve_transaction(
        self,
        core_id: int,
        access: MemoryAccess,
        line_addr: int,
        state: Optional[StableState],
        level,
        now: float,
    ) -> AccessOutcome:
        """Probe (if the caller did not) and run the access's transaction shape.

        The subclasses' ``resolve_slow`` overrides end here too, so an
        instrumented ``resolve_slow`` sees each access exactly once.
        """
        if level is None:
            self._private_level(core_id, line_addr)
        kind = KIND_OF_TYPE[access.access_type]
        b3, b4, b5, b6, b7, b8, invalidations = self._transaction(
            self, core_id, kind, access.op, access.address, line_addr, state,
            access.value, now,
        )
        return AccessOutcome(
            LatencyBreakdown(
                0.0 + self._l1_latency, 0.0 + self._l2_latency, b3, b4, b5, b6, b7, b8
            ),
            self._value_of(kind, access),
            invalidations=invalidations,
        )

    # ------------------------------------------------------------ retire loop

    def resolve_slow_batch(
        self,
        slot_cores: List[int],
        slot_codes: List[Any],
        slot_addrs: List[Any],
        slot_gaps: List[Any],
        slot_deltas: List[Any],
        slot_cursor: List[int],
        slot_limit: List[int],
        slot_clock: List[float],
        slot_stats: List[CoreStats],
        core_params: Tuple[float, float, float],
        streak_cap: int,
    ) -> Tuple[int, int, int]:
        """The retire loop: the simulator's per-access loop over many cores.

        One slot per runnable core: ``slot_codes`` / ``slot_addrs`` /
        ``slot_gaps`` / ``slot_deltas`` hold the full per-core trace
        columns, ``slot_cursor`` / ``slot_limit`` the half-open index range
        still to retire (the limit is the core's next phase barrier or trace
        end), and ``slot_clock`` the core clock at the cursor.
        ``core_params`` are the core model's ``(cycles per instruction,
        atomic overhead, commutative overhead)``.  Accesses
        retire in the **canonical order** — ascending ``(clock, core id)``,
        ties broken by core id — with a k-way merge: each step retires one
        access of the earliest slot, and a slot keeps retiring while it stays
        the earliest.

        Each access runs its hit-table cell (:attr:`hit_rows`), with
        ``CacheHierarchy.private_lookup_level`` inlined as the probe.  A
        slow access that is a conflict — a cross-op update or a demand on an
        update-only line (full reductions), or RMO's remote update — goes
        through :meth:`resolve_slow`; the rest call the transaction shapes
        ``resolve_slow`` would run for them.

        The loop returns when every slot reached its limit, or as soon as
        ``streak_cap`` consecutive hits retired (``0``: never), handing the
        hit-dense stretch to the batched kernel.  ``slot_cursor`` and
        ``slot_clock`` are updated in place.  Returns ``(n_retired, n_slow,
        n_resolve)``: every access retired, the non-hits among them, and the
        accesses passed to ``resolve_slow``.
        """
        cpi, atomic_overhead, commutative_overhead = core_params
        transaction = self._transaction
        private_level = self._private_level
        # MEUSI-only members (delta buffers, update statistics) are reached
        # solely under ``comm_local``; the Any view keeps the shared loop in
        # one place without widening the MESI class surface.
        sp: Any = self
        hit_rows = self.hit_rows
        absent_row = hit_rows[None]
        act_hit = ACT_HIT
        act_hit_m = ACT_HIT_M
        kind_of = _KIND_OF_CODE
        code_op = CODE_OP
        code_vk = CODE_VALUE_KIND
        code_type = CODE_ACCESS_TYPE
        code_size = CODE_SIZE
        new_access = MemoryAccess.__new__
        line_shift = self._line_shift
        l1_lat = self._l1_latency
        l2_lat = self._l2_latency
        l1_hit_total = l1_lat + 0.0
        l2_hit_total = l1_lat + l2_lat + 0.0
        # Every slow shape charges the L1 + L2 lookup before its own terms.
        slow_l1 = 0.0 + l1_lat
        slow_l2 = 0.0 + l2_lat
        comm_local = self.HOT_COMMUTATIVE == "local"
        comm_never = self.HOT_COMMUTATIVE == "never"
        track = self.track_values
        image = self.memory_image
        dir_entries = self.directory._entries
        core_states = self.core_states
        MOD = StableState.MODIFIED
        UPD = _UPDATE
        M_UPDATE_ONLY = LineMode.UPDATE_ONLY
        inf = float("inf")

        # -- per-slot object hoists (indexed by slot) ---------------------------
        n_slots = len(slot_cores)
        a_states = [core_states[cid] for cid in slot_cores]
        a_l1 = [self._l1_caches[cid] for cid in slot_cores]
        a_l2 = [self._l2_caches[cid] for cid in slot_cores]
        a_l1_sets = [l1.probe_parts()[0] for l1 in a_l1]
        a_l1_nsets = [l1.probe_parts()[1] for l1 in a_l1]
        a_l2_sets = [l2.probe_parts()[0] for l2 in a_l2]
        a_l2_nsets = [l2.probe_parts()[1] for l2 in a_l2]
        a_slat = [stats.latency for stats in slot_stats]
        # Chunked column materialization (ndarray -> list) per slot, on demand.
        a_codes: List[Any] = [None] * n_slots
        a_addrs: List[Any] = [None] * n_slots
        a_gaps: List[Any] = [None] * n_slots
        a_deltas: List[Any] = [None] * n_slots
        a_base = [0] * n_slots
        a_cend = [0] * n_slots

        heappush = heapq.heappush
        heappop = heapq.heappop
        heap = [
            (slot_clock[s], slot_cores[s], s)
            for s in range(n_slots)
            if slot_cursor[s] < slot_limit[s]
        ]
        heapq.heapify(heap)

        retired = 0
        n_slow = 0
        n_resolve = 0
        streak = 0

        while heap:
            clock, cid, s = heappop(heap)
            if heap:
                head = heap[0]
                nxt_clock = head[0]
                nxt_cid = head[1]
            else:
                nxt_clock = inf
                nxt_cid = -1
            core_id = cid
            cursor = slot_cursor[s]
            limit = slot_limit[s]
            stats = slot_stats[s]
            slat = a_slat[s]
            states = a_states[s]
            l1 = a_l1[s]
            l2 = a_l2[s]
            l1_sets = a_l1_sets[s]
            l1_nsets = a_l1_nsets[s]
            l2_sets = a_l2_sets[s]
            l2_nsets = a_l2_nsets[s]
            codes_l = a_codes[s]
            addrs_l = a_addrs[s]
            gaps_l = a_gaps[s]
            deltas_l = a_deltas[s]
            base = a_base[s]
            cend = a_cend[s]

            while True:
                if cursor >= cend:
                    if cursor >= limit:
                        # Slot reached its barrier or trace end: leaves the loop.
                        slot_cursor[s] = cursor
                        slot_clock[s] = clock
                        break
                    base = cursor
                    cend = cursor + _RETIRE_CHUNK
                    if cend > limit:
                        cend = limit
                    codes_l = a_codes[s] = slot_codes[s][base:cend].tolist()
                    addrs_l = a_addrs[s] = slot_addrs[s][base:cend].tolist()
                    gaps_l = a_gaps[s] = slot_gaps[s][base:cend].tolist()
                    if track:
                        deltas_l = a_deltas[s] = slot_deltas[s][base:cend].tolist()
                    a_base[s] = base
                    a_cend[s] = cend
                i = cursor - base
                code = codes_l[i]
                kind = kind_of[code]
                address = addrs_l[i]
                line_addr = address >> line_shift
                state = states.get(line_addr)
                action = (absent_row if state is None else hit_rows[state._value_])[kind]
                is_comm = kind >= 3

                gap = gaps_l[i]
                if kind == 0:
                    overhead = 0.0
                    stats.loads += 1
                elif kind == 1:
                    overhead = 0.0
                    stats.stores += 1
                elif kind == 2:
                    overhead = atomic_overhead
                    stats.atomics += 1
                elif kind == 3:
                    overhead = commutative_overhead
                    stats.commutative_updates += 1
                else:
                    overhead = commutative_overhead
                    stats.remote_updates += 1
                think = gap * cpi
                issue = clock + think

                # -- the hit-table cell: probe unless it is ACT_SLOW (0), with
                # CacheHierarchy.private_lookup_level inlined (see its
                # WARNING); an unprobed access is probed at most once later.
                level = None
                hit_level = 0
                if action:
                    cache_set = l1_sets.get(line_addr % l1_nsets)
                    info = cache_set.get(line_addr) if cache_set is not None else None
                    if info is not None:
                        l1.hits += 1
                        l1._tick = tick = l1._tick + 1
                        info.last_use = tick
                        level = 1
                    else:
                        l1.misses += 1
                        cache_set = l2_sets.get(line_addr % l2_nsets)
                        info = cache_set.get(line_addr) if cache_set is not None else None
                        if info is not None:
                            l2.hits += 1
                            l2._tick = tick = l2._tick + 1
                            info.last_use = tick
                            l1.insert(line_addr)
                            level = 2
                        else:
                            l2.misses += 1
                            level = 0
                    if level and action >= act_hit:
                        if action == act_hit:
                            hit_level = level
                        elif action == act_hit_m:
                            states[line_addr] = MOD
                            if track:
                                value = decode_value(code_vk[code], deltas_l[i])
                                if value is not None:
                                    if kind == 1:
                                        image[address] = value
                                    else:
                                        op = code_op[code]
                                        if op is not None:
                                            current = image.get(address, op.identity)
                                            image[address] = op.apply(current, value)
                            if is_comm and comm_local:
                                sp.stat_local_updates += 1
                            hit_level = level
                        else:  # ACT_BUFFER: an update of the U line's op
                            entry = dir_entries.get(line_addr)
                            op = code_op[code]
                            if op is not None and entry is not None and entry.op is op:
                                if track:
                                    value = decode_value(code_vk[code], deltas_l[i])
                                    if value is not None:
                                        sp._buffer_for(core_id, line_addr, op).update(
                                            address, value
                                        )
                                sp.stat_local_updates += 1
                                hit_level = level

                if hit_level:
                    slat.l1 += l1_lat
                    if hit_level == 1:
                        latency = l1_hit_total
                    else:
                        slat.l2 += l2_lat
                        latency = l2_hit_total
                    stats.l1_hits += 1
                    stats.accesses += 1
                    stats.compute_cycles += think + overhead
                    stats.memory_cycles += latency
                    clock = issue + overhead + latency
                    cursor += 1
                    retired += 1
                    streak += 1
                    if streak == streak_cap:
                        slot_cursor[s] = cursor
                        slot_clock[s] = clock
                        return retired, n_slow, n_resolve
                    if clock > nxt_clock or (clock == nxt_clock and cid > nxt_cid):
                        slot_cursor[s] = cursor
                        slot_clock[s] = clock
                        heappush(heap, (clock, cid, s))
                        break
                    continue

                # -- slow access: a conflict goes through resolve_slow, every
                # other shape straight to the transaction resolve_slow runs.
                # Conflicts: RMO's remote updates, and under COUP a cross-op
                # update (U6) or a demand on an update-only line, which are
                # full reductions.
                if comm_local:
                    entry = dir_entries.get(line_addr)
                    conflict = (
                        entry is not None
                        and entry.mode is M_UPDATE_ONLY
                        and (not is_comm or entry.op is not code_op[code])
                    ) or (state is UPD and not is_comm)
                else:
                    conflict = is_comm and comm_never
                if conflict:
                    access = new_access(MemoryAccess)
                    access.access_type = code_type[code]
                    access.address = address
                    access.op = code_op[code]
                    access.value = decode_value(
                        code_vk[code],
                        deltas_l[i] if track else int(slot_deltas[s][cursor]),
                    )
                    access.think_instructions = int(gap)
                    access.size_bytes = code_size[code]
                    result = self.resolve_slow(core_id, access, line_addr, state, level, issue)
                    total = result.total_latency
                    slat.add(result.latency)
                    n_resolve += 1
                else:
                    if level is None:
                        # Not probed yet (untracked state): probe exactly once.
                        private_level(core_id, line_addr)
                    b3, b4, b5, b6, b7, b8, _invalidations = transaction(
                        self, core_id, kind, code_op[code], address, line_addr, state,
                        decode_value(code_vk[code], deltas_l[i]) if (track and kind != 0) else None,
                        issue,
                    )
                    slat.l1 += slow_l1
                    slat.l2 += slow_l2
                    slat.l3 += b3
                    slat.offchip_network += b4
                    slat.l4 += b5
                    slat.l4_invalidations += b6
                    slat.main_memory += b7
                    slat.serialization += b8
                    total = slow_l1 + slow_l2 + b3 + b4 + b5 + b6 + b7 + b8
                stats.accesses += 1
                stats.compute_cycles += think + overhead
                stats.memory_cycles += total
                clock = issue + overhead + total
                cursor += 1
                retired += 1
                n_slow += 1
                streak = 0
                if clock > nxt_clock or (clock == nxt_clock and cid > nxt_cid):
                    slot_cursor[s] = cursor
                    slot_clock[s] = clock
                    heappush(heap, (clock, cid, s))
                    break
                # Still the earliest slot: keep retiring its trace in order.

        return retired, n_slow, n_resolve
