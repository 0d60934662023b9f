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
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.commutative import CommutativeOp
from repro.core.directory import DirectoryEntry
from repro.core.protocol import (
    SHAPE_CONFLICT,
    SHAPE_FAST,
    AccessOutcome,
    CoherenceProtocol,
)
from repro.core.states import LineMode, StableState
from repro.interconnect.messages import LinkScope, MessageType
from repro.sim.access import AccessType, MemoryAccess
from repro.sim.config import SystemConfig
from repro.sim.stats import CoreStats, LatencyBreakdown

#: Code-table twins used by the group-retirement loop (Python-int indexed).
from repro.sim.columnar import CODE_KIND, CODE_OP, CODE_VALUE_KIND, decode_value

_KIND_OF_CODE = tuple(int(kind) for kind in CODE_KIND)

#: Accesses materialized (ndarray slice -> Python list) per slot per refill in
#: the group-retirement merge; bounds peak list memory at a few KiB per core.
_FLEET_CHUNK = 512


@dataclass
class TransactionCost:
    """Latency components of one directory transaction."""

    breakdown: LatencyBreakdown
    #: Cycles the line's home stays busy after the request reaches it.
    home_occupancy: float
    invalidations: int = 0


class MesiProtocol(CoherenceProtocol):
    """Full-map directory MESI with the Table 1 four-level hierarchy."""

    name = "MESI"
    SUPPORTS_INLINE_FAST_PATH = True
    #: The batched columnar kernel may classify chunks against this engine's
    #: tables (the generic ``CoherenceProtocol.hot_mask`` implements the MESI
    #: family's rules; MEUSI and RMO inherit both flag and mask).
    SUPPORTS_BATCH_KERNEL = True
    HOT_COMMUTATIVE = "atomic"
    #: The group-retirement stage may retire stretches of this engine's slow
    #: accesses through :meth:`resolve_slow_batch` (flattened transactions,
    #: bit-identical to the scalar path).
    SUPPORTS_SLOW_BATCH = True

    #: Independence classification (mode x kind).  MESI folds commutative and
    #: remote updates into atomic RMWs, and every stable-mode transaction has
    #: a flattened twin, so all reachable pairs are fast; the update-only row
    #: is unreachable under plain MESI and marked conflict defensively.
    SLOW_SHAPE_TABLE = np.array(
        [
            [SHAPE_FAST] * 5,      # UNCACHED: cold fills / grants
            [SHAPE_FAST] * 5,      # EXCLUSIVE: downgrades / ownership transfer
            [SHAPE_FAST] * 5,      # READ_ONLY: joins / upgrades+invalidation
            [SHAPE_CONFLICT] * 5,  # UPDATE_ONLY: never entered by MESI
        ],
        dtype=np.uint8,
    )

    #: Per-sharer serialization when the home must invalidate several caches.
    PER_SHARER_INVAL_CYCLES = 2.0
    #: Directory bookkeeping occupancy for transactions with no remote action.
    LIGHT_OCCUPANCY = 2.0

    #: Hoisted constants for :meth:`resolve_slow_batch` (built on first use).
    _sb_consts: Optional[Tuple[Any, Any, Any, int]] = None
    #: Core-model constants, installed by the kernel via :meth:`slow_batch_begin`.
    _sb_core_params: Tuple[float, float, float] = (1.0, 0.0, 0.0)

    def __init__(self, config: SystemConfig, track_values: bool = True) -> None:
        super().__init__(config, track_values=track_values)
        #: Per-core stable state of each line resident in that core's caches.
        self.core_states: List[Dict[int, StableState]] = [
            {} for _ in range(config.n_cores)
        ]

    # ------------------------------------------------------------------ helpers

    def core_state(self, core_id: int, line_addr: int) -> StableState:
        return self.core_states[core_id].get(line_addr, StableState.INVALID)

    def _set_state(self, core_id: int, line_addr: int, state: StableState) -> None:
        # Every slow-path stable-state mutation funnels through here (the
        # simulator's inline hit paths write ``core_states`` directly, but
        # only for E->M upgrades, which no batch classification depends on).
        # When the batched kernel runs, it registers a set to learn which
        # (core, line) pairs a transaction touched so it can repair their
        # tag mirrors incrementally and invalidate chunk classifications.
        touched = self.touched_cores
        if touched is not None:
            touched.add((core_id, line_addr))
        if state is StableState.INVALID:
            self.core_states[core_id].pop(line_addr, None)
        else:
            self.core_states[core_id][line_addr] = state

    def _private_hit_latency(self, level) -> LatencyBreakdown:
        """Latency breakdown of a private hit (level 1/"L1" or 2/"L2")."""
        if level == "L1" or level == 1:
            return LatencyBreakdown(l1=self._l1_latency)
        return LatencyBreakdown(l1=self._l1_latency, l2=self._l2_latency)

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

    # ----------------------------------------------------- shared-level lookups

    def _ensure_shared_levels(self, requester_chip: int, line_addr: int, breakdown: LatencyBreakdown) -> None:
        """Charge L3/L4/memory latency for locating the line's data.

        The requester always consults its chip's L3 (and directory slice).  If
        the line is not on-chip it travels to the home L4 chip; if the L4 also
        misses, main memory supplies the data.  Fill the touched levels so
        subsequent accesses from this chip hit closer to the core.
        """
        breakdown.l3 += self._onchip_hop + self._l3_latency
        if self._l3_caches[requester_chip].lookup(line_addr) is not None:
            return
        # Off-chip to the home L4 chip (topology- and contention-aware).
        home_l4 = line_addr % self._n_l4_chips
        breakdown.offchip_network += self._l4_rt(
            requester_chip, home_l4, line_addr, self.current_time
        )
        breakdown.l4 += self._l4_latency
        self.interconnect.record_one(MessageType.GET_SHARED, LinkScope.OFF_CHIP)
        self.interconnect.record_one(MessageType.DATA_RESPONSE, LinkScope.OFF_CHIP)
        if self._l4_caches[home_l4].lookup(line_addr) is None:
            timing = self._memory.access(
                home_l4, self.current_time, self.config.line_bytes
            )
            breakdown.main_memory += timing.latency
            self._l4_caches[home_l4].insert(line_addr)
        self._l3_caches[requester_chip].insert(line_addr)

    # ------------------------------------------------- sharer invalidation cost

    def _invalidate_sharers(
        self,
        requester: int,
        line_addr: int,
        sharers: Set[int],
        breakdown: LatencyBreakdown,
        *,
        downgrade_to: Optional[StableState] = None,
        data_returned: bool = False,
    ) -> int:
        """Invalidate (or downgrade) every sharer except the requester.

        Returns the number of caches acted upon and charges the critical-path
        delay: the global directory sends invalidations to every chip with
        sharers in parallel, each chip invalidates its local caches through
        its L3, and acks flow back.  Cross-chip invalidations therefore cost
        an off-chip round trip plus a small per-sharer serialization term;
        chip-local ones cost an on-chip round trip.
        """
        victims = sorted(sharers - {requester})
        if not victims:
            return 0
        requester_chip = self._chip(requester)
        victim_chips = {self._chip(core) for core in victims}
        offchip_chips = {chip for chip in victim_chips if chip != requester_chip}

        inval_latency = 0.0
        if offchip_chips:
            # The global directory at the line's home L4 chip invalidates
            # every chip in parallel: the critical path is the slowest
            # L4 <-> chip round trip (all equal under the dancehall).
            home_l4 = line_addr % self._n_l4_chips
            now = self.current_time
            inval_latency += max(
                self._l4_control_rt(chip, home_l4, line_addr, now)
                for chip in offchip_chips
            )
            inval_latency += self._onchip_hop * 2
        else:
            inval_latency += self._onchip_hop * 2
        inval_latency += self._l2_latency
        inval_latency += self.PER_SHARER_INVAL_CYCLES * (len(victims) - 1)
        breakdown.l4_invalidations += inval_latency

        for core in victims:
            state = self.core_state(core, line_addr)
            scope = (
                LinkScope.OFF_CHIP
                if self._chip(core) != requester_chip
                else LinkScope.ON_CHIP
            )
            self.interconnect.record_one(MessageType.INVALIDATE, scope)
            if state is StableState.MODIFIED or data_returned:
                self.interconnect.record_one(MessageType.DATA_WRITEBACK, scope)
            else:
                self.interconnect.record_one(MessageType.ACK, scope)
            if downgrade_to is None:
                self.hierarchy.private_invalidate(core, line_addr)
                self._set_state(core, line_addr, StableState.INVALID)
                self.directory.remove_sharer(line_addr, core)
                self.stat_invalidations += 1
            else:
                self._set_state(core, line_addr, downgrade_to)
                self.stat_downgrades += 1
        return len(victims)

    # ------------------------------------------------------------- transactions

    def _serialize_at_home(
        self,
        line_addr: int,
        now: float,
        breakdown: LatencyBreakdown,
        occupancy: float,
        entry=None,
    ) -> None:
        """Queue behind any in-flight transaction for this line."""
        if entry is None:
            entry = self.directory.entry(line_addr)
        start = max(now, entry.busy_until)
        wait = start - now
        if wait > 0:
            breakdown.serialization += wait
        entry.busy_until = start + occupancy

    def _read_transaction(
        self, core_id: int, line_addr: int, now: float
    ) -> AccessOutcome:
        """GetS: obtain read permission (S, or E if unshared)."""
        outcome = AccessOutcome()
        breakdown = outcome.latency
        breakdown.l1 += self._l1_latency
        breakdown.l2 += self._l2_latency
        chip = self._chip(core_id)
        entry = self.directory.entry(line_addr)
        self.interconnect.record_one(MessageType.GET_SHARED, LinkScope.ON_CHIP)

        if entry.mode is LineMode.EXCLUSIVE:
            owner = entry.exclusive_owner()
            occupancy = self._downgrade_owner_for_read(
                core_id, owner, line_addr, breakdown
            )
            self._serialize_at_home(line_addr, now, breakdown, occupancy, entry)
            self.directory.clear_all_sharers(line_addr)
            self.directory.grant_shared(line_addr, owner)
            self._set_state(owner, line_addr, StableState.SHARED)
            entry = self.directory.grant_shared(line_addr, core_id)
            outcome.invalidations += 1
        else:
            self._ensure_shared_levels(chip, line_addr, breakdown)
            self._serialize_at_home(line_addr, now, breakdown, self.LIGHT_OCCUPANCY, entry)
            if entry.mode is LineMode.UNCACHED:
                # Unshared: grant Exclusive (the E optimisation of MESI).
                self.directory.grant_exclusive(line_addr, core_id)
                self._set_state(core_id, line_addr, StableState.EXCLUSIVE)
                self._fill_private(core_id, line_addr)
                self.interconnect.record_one(MessageType.DATA_RESPONSE, LinkScope.ON_CHIP)
                outcome.value = self._load_value(line_addr)
                return outcome
            self.directory.grant_shared(line_addr, core_id)

        self._set_state(core_id, line_addr, StableState.SHARED)
        self._fill_private(core_id, line_addr)
        self.interconnect.record_one(MessageType.DATA_RESPONSE, LinkScope.ON_CHIP)
        outcome.value = self._load_value(line_addr)
        return outcome

    def _downgrade_owner_for_read(
        self, requester: int, owner: int, line_addr: int, breakdown: LatencyBreakdown
    ) -> float:
        """Fetch data from the current exclusive owner, downgrading it to S."""
        requester_chip = self._chip(requester)
        owner_chip = self._chip(owner)
        breakdown.l3 += self._onchip_hop + self._l3_latency
        latency = self._l2_latency + 2 * self._onchip_hop
        if owner_chip != requester_chip:
            transfer = self._chip_rt(requester_chip, owner_chip, self.current_time)
            latency += transfer
            breakdown.offchip_network += transfer
            breakdown.l4 += self._l4_latency
            scope = LinkScope.OFF_CHIP
        else:
            scope = LinkScope.ON_CHIP
        breakdown.l4_invalidations += latency
        self.interconnect.record_one(MessageType.DOWNGRADE, scope)
        self.interconnect.record_one(MessageType.DATA_WRITEBACK, scope)
        self.stat_downgrades += 1
        self._l3_caches[requester_chip].insert(line_addr)
        return latency

    def _write_transaction(
        self,
        core_id: int,
        line_addr: int,
        now: float,
        *,
        needs_data: bool,
    ) -> AccessOutcome:
        """GetX/Upgrade: obtain exclusive (M) permission."""
        outcome = AccessOutcome()
        breakdown = outcome.latency
        breakdown.l1 += self._l1_latency
        breakdown.l2 += self._l2_latency
        chip = self._chip(core_id)
        entry = self.directory.entry(line_addr)
        self.interconnect.record_one(MessageType.GET_EXCLUSIVE, LinkScope.ON_CHIP)

        sharers = entry.sharers
        occupancy = self.LIGHT_OCCUPANCY

        if entry.mode is LineMode.EXCLUSIVE and entry.exclusive_owner() != core_id:
            owner = entry.exclusive_owner()
            occupancy = self._downgrade_owner_for_read(core_id, owner, line_addr, breakdown)
            self.hierarchy.private_invalidate(owner, line_addr)
            self._set_state(owner, line_addr, StableState.INVALID)
            self.stat_invalidations += 1
            outcome.invalidations += 1
        elif (entry.mode is LineMode.READ_ONLY or entry.mode is LineMode.UPDATE_ONLY) and (
            len(sharers) > 1 or (sharers and core_id not in sharers)
        ):
            self._ensure_shared_levels(chip, line_addr, breakdown)
            count = self._invalidate_sharers(core_id, line_addr, set(sharers), breakdown)
            outcome.invalidations += count
            occupancy = breakdown.l4_invalidations + self.LIGHT_OCCUPANCY
        else:
            if needs_data and self.core_state(core_id, line_addr) is StableState.INVALID:
                self._ensure_shared_levels(chip, line_addr, breakdown)
            occupancy = max(self.LIGHT_OCCUPANCY, breakdown.offchip_network + breakdown.l4)

        self._serialize_at_home(line_addr, now, breakdown, occupancy, entry)
        self.directory.clear_all_sharers(line_addr)
        self.directory.grant_exclusive(line_addr, core_id)
        self._set_state(core_id, line_addr, StableState.MODIFIED)
        self._fill_private(core_id, line_addr)
        self.interconnect.record_one(MessageType.DATA_RESPONSE, LinkScope.ON_CHIP)
        return outcome

    # ------------------------------------------------------------ value helpers

    def _load_value(self, line_addr: int):
        if not self.track_values:
            return None
        return None  # Line-level loads have word granularity handled by callers.

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

    # --------------------------------------------------------------- main entry

    def access(self, core_id: int, access: MemoryAccess, now: float) -> AccessOutcome:
        result = self.access_hot(core_id, access, now)
        if result.__class__ is int:
            outcome = AccessOutcome(private_hit=True)
            outcome.latency = self._private_hit_latency(result)
            outcome.value = self._hit_value(access)
            return outcome
        return result

    def access_hot(self, core_id: int, access: MemoryAccess, now: float):
        """Resolve one access; private hits return just the hit level (1/2).

        This is the simulator's per-access entry point.  The private-hit fast
        path performs the same lookups, LRU refreshes, state transitions, and
        functional updates as the transaction path's hit handling used to,
        but skips every allocation (no outcome, no breakdown): the caller
        charges the fixed L1/L2 hit latency itself.
        """
        line_addr = access.address >> self._line_shift
        access_type = access.access_type
        # MESI has no update-only support: commutative and remote updates are
        # executed as conventional atomic read-modify-writes.
        if (
            access_type is AccessType.COMMUTATIVE_UPDATE
            or access_type is AccessType.REMOTE_UPDATE
        ):
            access_type = AccessType.ATOMIC_RMW

        states = self.core_states[core_id]
        state = states.get(line_addr)
        level = self._private_level(core_id, line_addr)

        if level and state is not None:
            if access_type is AccessType.LOAD:
                # repro-lint: disable=P203(shared MESI-family fast path also services MEUSI U lines via inheritance; plain MESI never reaches this state)
                if state is not StableState.UPDATE:  # S/E/M can satisfy a load
                    return level
            elif (
                state is StableState.MODIFIED or state is StableState.EXCLUSIVE
            ):  # store or atomic with write permission
                states[line_addr] = StableState.MODIFIED
                if access_type is AccessType.STORE:
                    if self.track_values and access.value is not None:
                        self.memory_image[access.address] = access.value
                else:
                    self._functional_update(access)
                return level

        return self.resolve_slow(core_id, access, line_addr, state, level, now)

    def resolve_slow(
        self,
        core_id: int,
        access: MemoryAccess,
        line_addr: int,
        state: Optional[StableState],
        level,
        now: float,
    ) -> AccessOutcome:
        if level is None:
            self._private_level(core_id, line_addr)
        access_type = access.access_type
        if (
            access_type is AccessType.COMMUTATIVE_UPDATE
            or access_type is AccessType.REMOTE_UPDATE
        ):
            access_type = AccessType.ATOMIC_RMW
        self.current_time = now
        return self._access_slow(core_id, access, access_type, line_addr, state, now)

    # ------------------------------------------------- group retirement (batch)

    def slow_batch_begin(self, cpi: float, atomic_overhead: float, commutative_overhead: float) -> None:
        """Receive the core-model constants the retirement loop charges."""
        self._sb_core_params = (cpi, atomic_overhead, commutative_overhead)

    def _slow_batch_consts(self) -> Tuple[Any, Any, Any, int]:
        """Hoisted per-run constants for :meth:`resolve_slow_batch`."""
        consts = self._sb_consts
        if consts is None:
            size_of = self.interconnect._size_of
            labels = {
                key: (msg_type.label, size_of[msg_type.label])
                for key, msg_type in (
                    ("gs", MessageType.GET_SHARED),
                    ("gx", MessageType.GET_EXCLUSIVE),
                    ("gu", MessageType.GET_UPDATE),
                    ("dr", MessageType.DATA_RESPONSE),
                    ("dw", MessageType.DATA_WRITEBACK),
                    ("dg", MessageType.DOWNGRADE),
                    ("inv", MessageType.INVALIDATE),
                    ("ack", MessageType.ACK),
                    ("gnd", MessageType.GRANT_NO_DATA),
                )
            }
            consts = (
                labels,
                self.interconnect.l4_round_trip_table,
                self.interconnect.chip_transfer_table,
                self.config.line_bytes,
            )
            self._sb_consts = consts
        return consts

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
        slot_dirty: List[bool],
        streak_cap: int,
    ) -> Tuple[int, int, int]:
        """Group-retire the pending accesses of many cores in one merged call.

        See :meth:`CoherenceProtocol.slow_batch_ready` for the contract.  One
        slot per participating core: ``slot_codes`` / ``slot_addrs`` /
        ``slot_gaps`` / ``slot_deltas`` hold the full per-core trace columns,
        ``slot_cursor`` / ``slot_limit`` the half-open index range still to
        retire, and ``slot_clock`` the core clock at the cursor.  The loop
        replays the exact scalar ``(clock, core_id)`` heap order across all
        slots with a k-way merge — each step retires one access of the
        earliest slot, so the interleaving is bit-identical to the scalar
        heap by construction — while amortizing the per-event interpreter
        cost (window re-extraction, classification, mirror repair, heap
        churn) over whole stretches of the merge.  Hits retire inline with
        the same hand-duplicated probe as the scalar loops;
        independence-classified slow transactions retire flattened (same
        state mutations, same statistics, same float-operation sequences).

        A slot whose head access is a true conflict (cross-op update or
        demand on an update-only line — a reduction trigger — or any update
        under a ``comm_never`` engine) **parks before any mutation**: its
        pending event becomes a bound no other slot may retire past, and the
        merge returns once that event is the earliest remaining, leaving it
        for the caller's exact one-at-a-time path.  The merge also returns
        once ``streak_cap`` consecutive hits retire (hit-dense stretches
        belong to the vectorized window path).

        ``slot_cursor`` and ``slot_clock`` are updated in place;
        ``slot_dirty[s]`` is set when slot ``s``'s private-cache membership
        changed (L2 promotions, fills, evictions), i.e. when its tag mirror
        needs a rebuild.  Returns ``(n_retired, n_slow, n_parked)``.
        """
        labels, l4_rt_table, chip_rt_table, line_bytes = self._slow_batch_consts()
        cpi, atomic_overhead, commutative_overhead = self._sb_core_params
        # MEUSI-only members (delta buffers, update statistics) are reached
        # solely under ``comm_local``; the Any view keeps the shared loop in
        # one place without widening the MESI class surface.
        sp: Any = self
        kind_of = _KIND_OF_CODE
        code_op = CODE_OP
        code_vk = CODE_VALUE_KIND
        line_shift = self._line_shift
        chip_of = self._chip_of_core
        onchip = self._onchip_hop
        l1_lat = self._l1_latency
        l2_lat = self._l2_latency
        l3_lat = self._l3_latency
        l4_lat = self._l4_latency
        l1_hit_total = l1_lat + 0.0
        l2_hit_total = l1_lat + l2_lat + 0.0
        light = self.LIGHT_OCCUPANCY
        per_sharer = self.PER_SHARER_INVAL_CYCLES
        n_l4 = self._n_l4_chips
        comm_local = self.HOT_COMMUTATIVE == "local"
        comm_never = self.HOT_COMMUTATIVE == "never"
        track = self.track_values
        image = self.memory_image
        dir_entries = self.directory._entries
        core_states = self.core_states
        l3_caches = self._l3_caches
        l4_caches = self._l4_caches
        memory = self._memory
        hierarchy = self.hierarchy
        fill_victim = hierarchy.private_fill_victim
        private_invalidate = hierarchy.private_invalidate
        handle_eviction = self._handle_private_eviction
        traffic = self.interconnect.traffic
        mbt = traffic.messages_by_type
        bbt = traffic.bytes_by_type
        touched = self.touched_cores
        if touched is None:
            touched = set()
        l_gs, s_gs = labels["gs"]
        l_gx, s_gx = labels["gx"]
        l_gu, s_gu = labels["gu"]
        l_dr, s_dr = labels["dr"]
        l_dw, s_dw = labels["dw"]
        l_dg, s_dg = labels["dg"]
        l_inv, s_inv = labels["inv"]
        l_ack, s_ack = labels["ack"]
        l_gnd, s_gnd = labels["gnd"]
        MOD = StableState.MODIFIED
        EXC = StableState.EXCLUSIVE
        SHR = StableState.SHARED
        # repro-lint: disable=P203(shared MESI-family retirement loop also services MEUSI U shapes via inheritance, mirroring access_hot; plain MESI never reaches those branches)
        UPD = StableState.UPDATE
        M_EXCLUSIVE = LineMode.EXCLUSIVE
        M_READ_ONLY = LineMode.READ_ONLY
        M_UNCACHED = LineMode.UNCACHED
        M_UPDATE_ONLY = LineMode.UPDATE_ONLY

        # -- per-slot object hoists (indexed by merge slot) --------------------
        n_slots = len(slot_cores)
        a_states = [core_states[cid] for cid in slot_cores]
        a_l1 = [self._l1_caches[cid] for cid in slot_cores]
        a_l2 = [self._l2_caches[cid] for cid in slot_cores]
        a_l1_sets = [l1.probe_parts()[0] for l1 in a_l1]
        a_l1_nsets = [l1.probe_parts()[1] for l1 in a_l1]
        a_l2_sets = [l2.probe_parts()[0] for l2 in a_l2]
        a_l2_nsets = [l2.probe_parts()[1] for l2 in a_l2]
        a_chip = [chip_of[cid] for cid in slot_cores]
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

        pk_clock = float("inf")  # earliest parked (conflict) event
        pk_cid = -1
        retired = 0
        n_slow = 0
        n_parked = 0
        streak = 0

        while heap:
            clock, cid, s = heappop(heap)
            if clock > pk_clock or (clock == pk_clock and cid > pk_cid):
                # The parked conflict is the next event in heap order: stop
                # and hand it back for the exact one-at-a-time path.
                heappush(heap, (clock, cid, s))
                break
            if heap:
                head = heap[0]
                nxt_clock = head[0]
                nxt_cid = head[1]
            else:
                nxt_clock = pk_clock
                nxt_cid = pk_cid
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
            chip = a_chip[s]
            codes_l = a_codes[s]
            addrs_l = a_addrs[s]
            gaps_l = a_gaps[s]
            deltas_l = a_deltas[s]
            base = a_base[s]
            cend = a_cend[s]

            while True:
                if cursor >= cend:
                    if cursor >= limit:
                        # Slot exhausted (phase limit): leaves the merge.
                        slot_cursor[s] = cursor
                        slot_clock[s] = clock
                        break
                    base = cursor
                    cend = cursor + _FLEET_CHUNK
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
                is_comm = kind >= 3

                # -- classification: a true conflict parks before any mutation
                if is_comm:
                    if comm_never:
                        park = True
                    elif comm_local:
                        entry = dir_entries.get(line_addr)
                        # Cross-op update: full reduction (conflict).
                        park = (
                            entry is not None
                            and entry.mode is M_UPDATE_ONLY
                            and entry.op is not code_op[code]
                        )
                    else:
                        park = False
                elif comm_local:
                    entry = dir_entries.get(line_addr)
                    # Demand on an update-only line: reduction (conflict).
                    park = (
                        entry is not None and entry.mode is M_UPDATE_ONLY
                    ) or state is UPD
                else:
                    park = False
                if park:
                    slot_cursor[s] = cursor
                    slot_clock[s] = clock
                    n_parked += 1
                    if clock < pk_clock or (clock == pk_clock and cid < pk_cid):
                        pk_clock = clock
                        pk_cid = cid
                    break

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

                # -- inline private probe (same hand-duplicated sequence as the
                # scalar loops; see CoherenceProtocol._private_level's WARNING)
                level = None
                hit_level = 0
                if state is not None and (True if is_comm else state is not UPD):
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
                            slot_dirty[s] = True
                            level = 2
                        else:
                            l2.misses += 1
                            level = 0
                    if level:
                        if kind == 0:
                            if state is not UPD:
                                hit_level = level
                        elif state is MOD or state is EXC:
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
                        elif state is UPD and is_comm and comm_local:
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
                    if streak >= streak_cap:
                        slot_cursor[s] = cursor
                        slot_clock[s] = clock
                        return retired, n_slow, n_parked
                    if clock > nxt_clock or (clock == nxt_clock and cid > nxt_cid):
                        slot_cursor[s] = cursor
                        slot_clock[s] = clock
                        heappush(heap, (clock, cid, s))
                        break
                    continue

                # ---------------------------------------------------- slow shapes
                self.current_time = issue
                slot_dirty[s] = True
                if level is None:
                    # Not probed yet (untracked state / update-state demand):
                    # replicate resolve_slow's exactly-once probe.
                    cache_set = l1_sets.get(line_addr % l1_nsets)
                    info = cache_set.get(line_addr) if cache_set is not None else None
                    if info is not None:
                        l1.hits += 1
                        l1._tick = tick = l1._tick + 1
                        info.last_use = tick
                    else:
                        l1.misses += 1
                        cache_set = l2_sets.get(line_addr % l2_nsets)
                        info = cache_set.get(line_addr) if cache_set is not None else None
                        if info is not None:
                            l2.hits += 1
                            l2._tick = tick = l2._tick + 1
                            info.last_use = tick
                            l1.insert(line_addr)
                        else:
                            l2.misses += 1

                b1 = 0.0 + l1_lat
                b2 = 0.0 + l2_lat
                b3 = 0.0
                b4 = 0.0  # offchip_network
                b5 = 0.0  # l4
                b6 = 0.0  # l4_invalidations
                b7 = 0.0  # main_memory
                b8 = 0.0  # serialization
                entry = dir_entries.get(line_addr)
                if entry is None:
                    entry = DirectoryEntry(line_addr=line_addr)
                    dir_entries[line_addr] = entry
                mode = entry.mode
                value = (
                    decode_value(code_vk[code], deltas_l[i])
                    if (track and kind != 0)
                    else None
                )

                if is_comm and comm_local:
                    # ---------------- MEUSI GetU shapes (U1-U5; U6 parked) ------
                    op = code_op[code]
                    traffic.on_chip_bytes += s_gu
                    mbt[l_gu] += 1
                    bbt[l_gu] += s_gu
                    sp.stat_update_grants += 1
                    if mode is M_UNCACHED:
                        # U1: unshared, grant M directly.
                        b3, b4, b5, b7 = self._sb_ensure_shared(
                            chip, line_addr, issue, b3, b4, b5, b7,
                            l3_caches, l4_caches, memory, traffic, mbt, bbt,
                            onchip, l3_lat, l4_lat, n_l4, l4_rt_table, line_bytes,
                            l_gs, s_gs, l_dr, s_dr,
                        )
                        start = entry.busy_until
                        if issue > start:
                            start = issue
                        wait = start - issue
                        if wait > 0:
                            b8 += wait
                        entry.busy_until = start + light
                        entry.mode = M_EXCLUSIVE
                        entry.sharers = {core_id}
                        entry.op = None
                        touched.add((core_id, line_addr))
                        states[line_addr] = MOD
                        victim = fill_victim(core_id, line_addr)
                        if victim is not None:
                            handle_eviction(core_id, victim)
                        traffic.on_chip_bytes += s_dr
                        mbt[l_dr] += 1
                        bbt[l_dr] += s_dr
                        if track and value is not None:
                            current = image.get(address, op.identity)
                            image[address] = op.apply(current, value)
                    elif mode is M_EXCLUSIVE:
                        owner = next(iter(entry.sharers))
                        if owner == core_id:
                            # U2: our own copy absorbs the update in M.
                            touched.add((core_id, line_addr))
                            states[line_addr] = MOD
                            if track and value is not None:
                                current = image.get(address, op.identity)
                                image[address] = op.apply(current, value)
                        else:
                            # U3: downgrade the owner M->U; both become updaters.
                            owner_chip = chip_of[owner]
                            lat = l2_lat + 2 * onchip
                            if owner_chip != chip:
                                transfer = chip_rt_table[chip][owner_chip]
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
                            start = entry.busy_until
                            if issue > start:
                                start = issue
                            wait = start - issue
                            if wait > 0:
                                b8 += wait
                            entry.busy_until = start + lat
                            self.stat_downgrades += 1
                            l3_caches[owner_chip].insert(line_addr)
                            entry.mode = M_UPDATE_ONLY
                            entry.sharers = {owner, core_id}
                            entry.op = op
                            touched.add((owner, line_addr))
                            core_states[owner][line_addr] = UPD
                            touched.add((core_id, line_addr))
                            states[line_addr] = UPD
                            sp._buffer_for(owner, line_addr, op)
                            victim = fill_victim(core_id, line_addr)
                            if victim is not None:
                                handle_eviction(core_id, victim)
                            traffic.on_chip_bytes += s_gnd
                            mbt[l_gnd] += 1
                            bbt[l_gnd] += s_gnd
                            if track and value is not None:
                                sp._buffer_for(core_id, line_addr, op).update(
                                    address, value
                                )
                    elif mode is M_READ_ONLY:
                        # U4: invalidate all readers, then grant update-only.
                        b3, b4, b5, b7 = self._sb_ensure_shared(
                            chip, line_addr, issue, b3, b4, b5, b7,
                            l3_caches, l4_caches, memory, traffic, mbt, bbt,
                            onchip, l3_lat, l4_lat, n_l4, l4_rt_table, line_bytes,
                            l_gs, s_gs, l_dr, s_dr,
                        )
                        victims = sorted(entry.sharers - {core_id})
                        if victims:
                            b6 = self._sb_invalidate(
                                core_id, chip, line_addr, entry, victims, b6,
                                core_states, private_invalidate, touched,
                                traffic, mbt, bbt, chip_of,
                                onchip, l2_lat, per_sharer, n_l4, l4_rt_table,
                                l_inv, s_inv, l_ack, s_ack, l_dw, s_dw,
                            )
                        occupancy = b6 + light
                        start = entry.busy_until
                        if issue > start:
                            start = issue
                        wait = start - issue
                        if wait > 0:
                            b8 += wait
                        entry.busy_until = start + occupancy
                        entry.mode = M_UPDATE_ONLY
                        entry.sharers = {core_id}
                        entry.op = op
                        touched.add((core_id, line_addr))
                        states[line_addr] = UPD
                        victim = fill_victim(core_id, line_addr)
                        if victim is not None:
                            handle_eviction(core_id, victim)
                        traffic.on_chip_bytes += s_gnd
                        mbt[l_gnd] += 1
                        bbt[l_gnd] += s_gnd
                        if track and value is not None:
                            sp._buffer_for(core_id, line_addr, op).update(address, value)
                    else:
                        # U5: same-op update-only join (cross-op parked above).
                        b3, b4, b5, b7 = self._sb_ensure_shared(
                            chip, line_addr, issue, b3, b4, b5, b7,
                            l3_caches, l4_caches, memory, traffic, mbt, bbt,
                            onchip, l3_lat, l4_lat, n_l4, l4_rt_table, line_bytes,
                            l_gs, s_gs, l_dr, s_dr,
                        )
                        start = entry.busy_until
                        if issue > start:
                            start = issue
                        wait = start - issue
                        if wait > 0:
                            b8 += wait
                        entry.busy_until = start + light
                        entry.sharers.add(core_id)
                        touched.add((core_id, line_addr))
                        states[line_addr] = UPD
                        victim = fill_victim(core_id, line_addr)
                        if victim is not None:
                            handle_eviction(core_id, victim)
                        traffic.on_chip_bytes += s_gnd
                        mbt[l_gnd] += 1
                        bbt[l_gnd] += s_gnd
                        if track and value is not None:
                            sp._buffer_for(core_id, line_addr, op).update(address, value)
                elif kind == 0:
                    # ------------------------ GetS (R1 downgrade / R2 / R3) ------
                    traffic.on_chip_bytes += s_gs
                    mbt[l_gs] += 1
                    bbt[l_gs] += s_gs
                    if mode is M_EXCLUSIVE:
                        owner = next(iter(entry.sharers))
                        owner_chip = chip_of[owner]
                        b3 += onchip + l3_lat
                        lat = l2_lat + 2 * onchip
                        if owner_chip != chip:
                            transfer = chip_rt_table[chip][owner_chip]
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
                        self.stat_downgrades += 1
                        l3_caches[chip].insert(line_addr)
                        start = entry.busy_until
                        if issue > start:
                            start = issue
                        wait = start - issue
                        if wait > 0:
                            b8 += wait
                        entry.busy_until = start + lat
                        entry.mode = M_READ_ONLY
                        entry.sharers = {owner}
                        entry.op = None
                        touched.add((owner, line_addr))
                        core_states[owner][line_addr] = SHR
                        entry.sharers.add(core_id)
                    else:
                        b3, b4, b5, b7 = self._sb_ensure_shared(
                            chip, line_addr, issue, b3, b4, b5, b7,
                            l3_caches, l4_caches, memory, traffic, mbt, bbt,
                            onchip, l3_lat, l4_lat, n_l4, l4_rt_table, line_bytes,
                            l_gs, s_gs, l_dr, s_dr,
                        )
                        start = entry.busy_until
                        if issue > start:
                            start = issue
                        wait = start - issue
                        if wait > 0:
                            b8 += wait
                        entry.busy_until = start + light
                        if mode is M_UNCACHED:
                            # R2: unshared read is granted Exclusive.
                            entry.mode = M_EXCLUSIVE
                            entry.sharers = {core_id}
                            entry.op = None
                            touched.add((core_id, line_addr))
                            states[line_addr] = EXC
                            victim = fill_victim(core_id, line_addr)
                            if victim is not None:
                                handle_eviction(core_id, victim)
                            traffic.on_chip_bytes += s_dr
                            mbt[l_dr] += 1
                            bbt[l_dr] += s_dr
                            slat.l1 += b1
                            slat.l2 += b2
                            slat.l3 += b3
                            slat.offchip_network += b4
                            slat.l4 += b5
                            slat.l4_invalidations += b6
                            slat.main_memory += b7
                            slat.serialization += b8
                            total = b1 + b2 + b3 + b4 + b5 + b6 + b7 + b8
                            stats.accesses += 1
                            stats.compute_cycles += think + overhead
                            stats.memory_cycles += total
                            clock = issue + overhead + total
                            cursor += 1
                            retired += 1
                            n_slow += 1
                            streak = 0
                            if clock > nxt_clock or (
                                clock == nxt_clock and cid > nxt_cid
                            ):
                                slot_cursor[s] = cursor
                                slot_clock[s] = clock
                                heappush(heap, (clock, cid, s))
                                break
                            continue
                        # R3: read-only join.
                        entry.mode = M_READ_ONLY
                        entry.sharers.add(core_id)
                        entry.op = None
                    touched.add((core_id, line_addr))
                    states[line_addr] = SHR
                    victim = fill_victim(core_id, line_addr)
                    if victim is not None:
                        handle_eviction(core_id, victim)
                    traffic.on_chip_bytes += s_dr
                    mbt[l_dr] += 1
                    bbt[l_dr] += s_dr
                else:
                    # --------------- GetX / Upgrade (W1 / W2 / cold-upgrade) -----
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
                            transfer = chip_rt_table[chip][owner_chip]
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
                        self.stat_downgrades += 1
                        l3_caches[chip].insert(line_addr)
                        occupancy = lat
                        private_invalidate(owner, line_addr)
                        touched.add((owner, line_addr))
                        core_states[owner].pop(line_addr, None)
                        self.stat_invalidations += 1
                    elif mode is M_READ_ONLY and (
                        len(entry.sharers) > 1
                        or (entry.sharers and core_id not in entry.sharers)
                    ):
                        # W2: invalidate every reader, then take ownership.
                        b3, b4, b5, b7 = self._sb_ensure_shared(
                            chip, line_addr, issue, b3, b4, b5, b7,
                            l3_caches, l4_caches, memory, traffic, mbt, bbt,
                            onchip, l3_lat, l4_lat, n_l4, l4_rt_table, line_bytes,
                            l_gs, s_gs, l_dr, s_dr,
                        )
                        victims = sorted(entry.sharers - {core_id})
                        b6 = self._sb_invalidate(
                            core_id, chip, line_addr, entry, victims, b6,
                            core_states, private_invalidate, touched,
                            traffic, mbt, bbt, chip_of,
                            onchip, l2_lat, per_sharer, n_l4, l4_rt_table,
                            l_inv, s_inv, l_ack, s_ack, l_dw, s_dw,
                        )
                        occupancy = b6 + light
                    else:
                        # W3/cold: upgrade in place or fetch-and-own.
                        if state is None:
                            b3, b4, b5, b7 = self._sb_ensure_shared(
                                chip, line_addr, issue, b3, b4, b5, b7,
                                l3_caches, l4_caches, memory, traffic, mbt, bbt,
                                onchip, l3_lat, l4_lat, n_l4, l4_rt_table, line_bytes,
                                l_gs, s_gs, l_dr, s_dr,
                            )
                        occupancy = b4 + b5
                        if occupancy < light:
                            occupancy = light
                    start = entry.busy_until
                    if issue > start:
                        start = issue
                    wait = start - issue
                    if wait > 0:
                        b8 += wait
                    entry.busy_until = start + occupancy
                    entry.mode = M_EXCLUSIVE
                    entry.sharers = {core_id}
                    entry.op = None
                    touched.add((core_id, line_addr))
                    states[line_addr] = MOD
                    victim = fill_victim(core_id, line_addr)
                    if victim is not None:
                        handle_eviction(core_id, victim)
                    traffic.on_chip_bytes += s_dr
                    mbt[l_dr] += 1
                    bbt[l_dr] += s_dr
                    if track and value is not None:
                        if kind == 1:
                            image[address] = value
                        else:
                            op = code_op[code]
                            if op is not None:
                                current = image.get(address, op.identity)
                                image[address] = op.apply(current, value)

                slat.l1 += b1
                slat.l2 += b2
                slat.l3 += b3
                slat.offchip_network += b4
                slat.l4 += b5
                slat.l4_invalidations += b6
                slat.main_memory += b7
                slat.serialization += b8
                total = b1 + b2 + b3 + b4 + b5 + b6 + b7 + b8
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

        return retired, n_slow, n_parked

    def _sb_ensure_shared(
        self, chip: int, line_addr: int, now: float,
        b3: float, b4: float, b5: float, b7: float,
        l3_caches: Any, l4_caches: Any, memory: Any, traffic: Any,
        mbt: Any, bbt: Any,
        onchip: float, l3_lat: float, l4_lat: float, n_l4: int,
        l4_rt_table: Any, line_bytes: int,
        l_gs: Any, s_gs: int, l_dr: Any, s_dr: int,
    ) -> Tuple[float, float, float, float]:
        """Flattened :meth:`_ensure_shared_levels` (contention-free tables)."""
        b3 += onchip + l3_lat
        l3 = l3_caches[chip]
        l3_sets, l3_nsets = l3.probe_parts()
        cache_set = l3_sets.get(line_addr % l3_nsets)
        info = cache_set.get(line_addr) if cache_set is not None else None
        if info is not None:
            l3.hits += 1
            l3._tick = tick = l3._tick + 1
            info.last_use = tick
            return b3, b4, b5, b7
        l3.misses += 1
        home_l4 = line_addr % n_l4
        b4 += l4_rt_table[chip][home_l4]
        b5 += l4_lat
        traffic.off_chip_bytes += s_gs + s_dr
        mbt[l_gs] += 1
        bbt[l_gs] += s_gs
        mbt[l_dr] += 1
        bbt[l_dr] += s_dr
        l4 = l4_caches[home_l4]
        l4_sets, l4_nsets = l4.probe_parts()
        cache_set = l4_sets.get(line_addr % l4_nsets)
        info = cache_set.get(line_addr) if cache_set is not None else None
        if info is not None:
            l4.hits += 1
            l4._tick = tick = l4._tick + 1
            info.last_use = tick
        else:
            l4.misses += 1
            timing = memory.access(home_l4, now, line_bytes)
            b7 += timing.latency
            l4.insert(line_addr)
        l3.insert(line_addr)
        return b3, b4, b5, b7

    def _sb_invalidate(
        self, core_id: int, chip: int, line_addr: int,
        entry: Any, victims: Any, b6: float,
        core_states: Any, private_invalidate: Any, touched: Any,
        traffic: Any, mbt: Any, bbt: Any, chip_of: Any,
        onchip: float, l2_lat: float, per_sharer: float, n_l4: int,
        l4_rt_table: Any,
        l_inv: Any, s_inv: int, l_ack: Any, s_ack: int, l_dw: Any, s_dw: int,
    ) -> float:
        """Flattened :meth:`_invalidate_sharers` (no downgrade, no data)."""
        victim_chips = {chip_of[core] for core in victims}
        offchip_chips = {c for c in victim_chips if c != chip}
        inval_latency = 0.0
        if offchip_chips:
            home_l4 = line_addr % n_l4
            inval_latency += max(l4_rt_table[c][home_l4] for c in offchip_chips)
            inval_latency += onchip * 2
        else:
            inval_latency += onchip * 2
        inval_latency += l2_lat
        inval_latency += per_sharer * (len(victims) - 1)
        b6 += inval_latency
        MOD = StableState.MODIFIED
        for core in victims:
            vstate = core_states[core].get(line_addr)
            if chip_of[core] != chip:
                traffic.off_chip_bytes += s_inv
                if vstate is MOD:
                    traffic.off_chip_bytes += s_dw
                    mbt[l_dw] += 1
                    bbt[l_dw] += s_dw
                else:
                    traffic.off_chip_bytes += s_ack
                    mbt[l_ack] += 1
                    bbt[l_ack] += s_ack
            else:
                traffic.on_chip_bytes += s_inv
                if vstate is MOD:
                    traffic.on_chip_bytes += s_dw
                    mbt[l_dw] += 1
                    bbt[l_dw] += s_dw
                else:
                    traffic.on_chip_bytes += s_ack
                    mbt[l_ack] += 1
                    bbt[l_ack] += s_ack
            mbt[l_inv] += 1
            bbt[l_inv] += s_inv
            private_invalidate(core, line_addr)
            touched.add((core, line_addr))
            core_states[core].pop(line_addr, None)
            entry.sharers.discard(core)
            if not entry.sharers:
                entry.mode = LineMode.UNCACHED
                entry.op = None
            self.stat_invalidations += 1
        return b6

    def _access_slow(
        self,
        core_id: int,
        access: MemoryAccess,
        access_type: AccessType,
        line_addr: int,
        state: Optional[StableState],
        now: float,
    ) -> AccessOutcome:
        """Directory/transaction path for accesses the fast path rejected."""
        if access_type is AccessType.LOAD:
            outcome = self._read_transaction(core_id, line_addr, now)
            outcome.value = self._functional_load(access)
            return outcome

        if access_type is AccessType.STORE:
            outcome = self._write_transaction(
                core_id, line_addr, now, needs_data=state is None
            )
            self._functional_store(access)
            return outcome

        # Atomic read-modify-write: requires M just like a store, plus the
        # core-side atomic sequence overhead charged by the core model.
        outcome = self._write_transaction(
            core_id, line_addr, now, needs_data=state is None
        )
        self._functional_update(access)
        outcome.value = self._functional_load(access)
        return outcome

    def _hit_value(self, access: MemoryAccess):
        """Value a private hit returns through the full :meth:`access` API."""
        if access.access_type is AccessType.STORE:
            return None
        return self._functional_load(access)
