"""MEUSI: the COUP-extended MESI protocol engine.

MEUSI adds the update-only (U) state to MESI (Fig. 6): multiple private caches
may simultaneously hold a line in U and satisfy commutative updates of the
line's current operation type locally, buffering deltas relative to the
identity element.  Reads, writes, evictions, and updates of a *different*
commutative type trigger reductions that fold the buffered deltas into the
authoritative copy at the shared cache:

* an L2 capacity eviction of a U line sends its partial update to the chip's
  L3 bank — a *partial reduction*, off the critical path;
* a read or write request to a line in update-only mode triggers a *full
  reduction*: every updater is invalidated, partial updates are gathered
  hierarchically (per-chip L3 reduction, then L4), and the reduction unit
  folds them before data is returned.

Just as MESI grants E to a read of an unshared line, MEUSI grants M to an
update of an unshared line, so interleaved reads and updates to private data
cost the same as under MESI.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.commutative import CommutativeOp, DeltaBuffer
from repro.core.mesi import MesiProtocol
from repro.core.protocol import AccessOutcome
from repro.core.states import LineMode, StableState
from repro.interconnect.messages import LinkScope, MessageType
from repro.sim.access import AccessType, MemoryAccess
from repro.sim.columnar import NO_OP_INDEX, OP_INDEX
from repro.sim.config import SystemConfig
from repro.sim.stats import LatencyBreakdown


class MeusiProtocol(MesiProtocol):
    """COUP: MESI extended with update-only permission and reductions."""

    name = "COUP"
    HOT_COMMUTATIVE = "local"

    def __init__(self, config: SystemConfig, track_values: bool = True) -> None:
        super().__init__(config, track_values=track_values)
        #: Per-core delta buffers for lines held in U: (core, line) -> buffer.
        self.delta_buffers: Dict[Tuple[int, int], DeltaBuffer] = {}
        #: Commutative updates satisfied locally without any protocol action.
        self.stat_local_updates = 0
        #: Update-only permission grants (GetU transactions).
        self.stat_update_grants = 0

    # ----------------------------------------------------------- delta handling

    def _buffer_for(self, core_id: int, line_addr: int, op: CommutativeOp) -> DeltaBuffer:
        key = (core_id, line_addr)
        buffer = self.delta_buffers.get(key)
        if buffer is None or buffer.op is not op:
            buffer = DeltaBuffer(op)
            self.delta_buffers[key] = buffer
        return buffer

    def _apply_local_update(self, core_id: int, access: MemoryAccess) -> None:
        """Buffer a commutative update in the core's U-state line."""
        line_addr = self.line_addr(access.address)
        if self.track_values and access.value is not None:
            buffer = self._buffer_for(core_id, line_addr, access.op)
            buffer.update(access.address, access.value)

    def batch_uop_code(self, core_id: int, line_addr: int) -> int:
        """Op index under which the batched kernel may classify a U line hot.

        Part of the batch-classification contract (see
        :meth:`CoherenceProtocol.hot_mask`): a commutative or remote update
        to a line this core holds in U is a pure local hit only when the
        directory entry carries the same op.  One extra guard keeps batching
        bit-identical when values are tracked: the core's delta buffer for
        the line must already exist.  Creating a buffer inserts a key into
        ``delta_buffers``, and ``finalize`` commits buffers in insertion
        order — floating-point reductions make that order observable — so
        first-buffering updates are deliberately sent through the globally
        ordered slow/inline path instead of a reordered hit-run.  Returns
        the op's :data:`~repro.sim.columnar.OP_INDEX`, or
        :data:`~repro.sim.columnar.NO_OP_INDEX` when the line must classify
        slow.
        """
        entry = self.directory.peek(line_addr)
        if entry is None or entry.op is None:
            return NO_OP_INDEX
        if self.track_values and (core_id, line_addr) not in self.delta_buffers:
            return NO_OP_INDEX
        return OP_INDEX[entry.op]

    def _commit_buffer(self, core_id: int, line_addr: int) -> int:
        """Fold one core's delta buffer into the memory image.

        Returns 1 if a (possibly empty) partial update was present, so callers
        can count the number of partial updates gathered by a reduction.
        """
        key = (core_id, line_addr)
        buffer = self.delta_buffers.pop(key, None)
        if buffer is None:
            return 1
        if self.track_values:
            for word_addr in buffer.touched_offsets():
                current = self.memory_image.get(word_addr, buffer.op.identity)
                self.memory_image[word_addr] = buffer.op.apply(
                    current, buffer.delta(word_addr)
                )
        return 1

    # ------------------------------------------------------- eviction handling

    def _handle_private_eviction(self, core_id: int, line_addr: int) -> None:
        state = self.core_state(core_id, line_addr)
        if state is StableState.UPDATE:
            # Partial reduction: ship the delta to the chip's L3 reduction unit.
            chip = self._chip(core_id)
            self.interconnect.record_one(MessageType.PUT_PARTIAL, LinkScope.ON_CHIP)
            unit = self.reduction_unit_for_l3(chip, line_addr)
            unit.schedule(self.current_time, 1)
            self._commit_buffer(core_id, line_addr)
            self._set_state(core_id, line_addr, StableState.INVALID)
            self.directory.remove_sharer(line_addr, core_id)
            self.directory.drop_if_uncached(line_addr)
            self._l3_caches[chip].insert(line_addr)
            self.stat_partial_reductions += 1
            return
        super()._handle_private_eviction(core_id, line_addr)

    # ---------------------------------------------------------- full reductions

    def _full_reduction(
        self,
        requester: int,
        line_addr: int,
        breakdown: LatencyBreakdown,
        *,
        keep_requester: bool = False,
    ) -> Tuple[int, float]:
        """Reduce all update-only copies of a line into the shared cache.

        Returns ``(n_partials, critical_path_latency)``.  The reduction is
        hierarchical: each chip with updaters invalidates them and folds their
        partial updates at its L3 bank's reduction unit; the home L4 bank then
        folds the per-chip results.  The critical path is therefore the
        slowest chip-local gather plus the cross-chip gather, mirroring the
        8 + 16 = 24 example of Sec. 3.2.
        """
        entry = self.directory.entry(line_addr)
        updaters = set(entry.sharers)
        if keep_requester:
            updaters.discard(requester)
        if not updaters and entry.mode is not LineMode.UPDATE_ONLY:
            return 0, 0.0

        requester_chip = self._chip(requester)
        chips: Dict[int, List[int]] = {}
        for core in sorted(updaters):
            chips.setdefault(self._chip(core), []).append(core)

        critical_path = 0.0
        total_partials = 0
        # repro-lint: disable=D102(chips is keyed by ascending core id so view order is deterministic; the loop accumulates order-insensitive sums and maxima)
        for chip, cores in chips.items():
            # Invalidation fan-out within the chip plus local gather.
            local_latency = (
                2 * self._onchip_hop
                + self._l2_latency
                + self.PER_SHARER_INVAL_CYCLES * max(0, len(cores) - 1)
            )
            unit = self.reduction_unit_for_l3(chip, line_addr)
            timing = unit.schedule(self.current_time, len(cores))
            local_latency += timing.latency
            scope = LinkScope.OFF_CHIP if chip != requester_chip else LinkScope.ON_CHIP
            for core in cores:
                self.interconnect.record_one(MessageType.REDUCE_REQUEST, scope if chip != requester_chip else LinkScope.ON_CHIP)
                self.interconnect.record_one(MessageType.PARTIAL_UPDATE, LinkScope.ON_CHIP)
                self._commit_buffer(core, line_addr)
                self.hierarchy.private_invalidate(core, line_addr)
                self._set_state(core, line_addr, StableState.INVALID)
                total_partials += 1
            if chip != requester_chip:
                # The chip's single aggregated partial update crosses off-chip
                # to the home L4 bank's reduction unit.
                self.interconnect.record_one(MessageType.PARTIAL_UPDATE, LinkScope.OFF_CHIP)
                local_latency += self._l4_partial(
                    chip, line_addr % self._n_l4_chips, line_addr, self.current_time
                )
            critical_path = max(critical_path, local_latency)

        if len(chips) > 1 or (chips and requester_chip not in chips):
            # Cross-chip gather at the home L4 bank's reduction unit.
            l4_unit = self.reduction_unit_for_l4(line_addr)
            timing = l4_unit.schedule(self.current_time, max(1, len(chips)))
            critical_path += timing.latency + self._l4_latency

        breakdown.l4_invalidations += critical_path
        self.directory.clear_all_sharers(line_addr)
        self.stat_full_reductions += 1
        self.stat_invalidations += total_partials
        return total_partials, critical_path

    # ------------------------------------------- cross-op GetU (U6 transaction)

    def _cross_op_update(
        self, core_id: int, line_addr: int, op: CommutativeOp, now: float
    ) -> AccessOutcome:
        """Update of a different type than the line's update-only op (U6).

        Updates of different commutative types do not commute: the directory
        performs a full reduction (the type switch through the NN transient
        of Fig. 7b), then grants update-only permission for the new type.
        U1-U5 are the shared MESI-family transaction shapes.
        """
        outcome = AccessOutcome()
        breakdown = outcome.latency
        breakdown.l1 += self._l1_latency
        breakdown.l2 += self._l2_latency
        self.interconnect.record_one(MessageType.GET_UPDATE, LinkScope.ON_CHIP)
        self.stat_update_grants += 1
        partials, latency = self._full_reduction(core_id, line_addr, breakdown)
        outcome.invalidations += partials
        outcome.full_reduction = True
        self._serialize_at_home(line_addr, now, breakdown, latency + self.LIGHT_OCCUPANCY)
        self.directory.grant_update_only(line_addr, core_id, op)
        self._set_state(core_id, line_addr, StableState.UPDATE)
        self._fill_private(core_id, line_addr)
        self.interconnect.record_one(MessageType.GRANT_NO_DATA, LinkScope.ON_CHIP)
        return outcome

    # ------------------------------------------------------------- main entry

    def resolve_slow(
        self,
        core_id: int,
        access: MemoryAccess,
        line_addr: int,
        state,
        level,
        now: float,
    ) -> AccessOutcome:
        access_type = access.access_type
        entry = self.directory.peek(line_addr)
        update_only = entry is not None and entry.mode is LineMode.UPDATE_ONLY
        if access_type.is_commutative:
            if update_only and entry.op is not access.op:
                if level is None:
                    self._private_level(core_id, line_addr)
                self.current_time = now
                outcome = self._cross_op_update(core_id, line_addr, access.op, now)
                self._apply_local_update(core_id, access)
                return outcome
            # U1-U5: the shared transaction shapes (GetU under local folding).
            return self._resolve_transaction(core_id, access, line_addr, state, level, now)

        if update_only:
            self.current_time = now
            return self._demand_on_update_mode_line(
                core_id, access, access_type, line_addr, now
            )

        # A core's own U-state line cannot satisfy loads/stores; drop it to
        # untracked first so the transaction treats it as a miss.  This can
        # only happen if the directory entry lost update mode, which the
        # full-reduction path above prevents; kept as a safety net.
        if self.core_states[core_id].get(line_addr) is StableState.UPDATE:
            self.current_time = now
            self._commit_buffer(core_id, line_addr)
            self._set_state(core_id, line_addr, StableState.INVALID)
            self.directory.remove_sharer(line_addr, core_id)
            state = None
        return self._resolve_transaction(core_id, access, line_addr, state, level, now)

    def _demand_on_update_mode_line(
        self,
        core_id: int,
        access: MemoryAccess,
        access_type: AccessType,
        line_addr: int,
        now: float,
    ) -> AccessOutcome:
        """Read or write request to a line currently in update-only mode.

        Either triggers a full reduction; a read is then granted S, a write
        (store or atomic) takes exclusive ownership.
        """
        is_load = access_type is AccessType.LOAD
        outcome = AccessOutcome()
        breakdown = outcome.latency
        breakdown.l1 += self._l1_latency
        breakdown.l2 += self._l2_latency
        self.interconnect.record_one(
            MessageType.GET_SHARED if is_load else MessageType.GET_EXCLUSIVE,
            LinkScope.ON_CHIP,
        )
        (
            breakdown.l3,
            breakdown.offchip_network,
            breakdown.l4,
            breakdown.main_memory,
        ) = self._ensure_shared_levels(
            self, self._chip(core_id), line_addr, now,
            breakdown.l3, breakdown.offchip_network, breakdown.l4, breakdown.main_memory,
        )
        partials, latency = self._full_reduction(core_id, line_addr, breakdown)
        outcome.invalidations += partials
        outcome.full_reduction = True
        self._serialize_at_home(line_addr, now, breakdown, latency + self.LIGHT_OCCUPANCY)
        if is_load:
            self.directory.grant_shared(line_addr, core_id)
            self._set_state(core_id, line_addr, StableState.SHARED)
        else:
            self.directory.grant_exclusive(line_addr, core_id)
            self._set_state(core_id, line_addr, StableState.MODIFIED)
        self._fill_private(core_id, line_addr)
        self.interconnect.record_one(MessageType.DATA_RESPONSE, LinkScope.ON_CHIP)
        if access_type is AccessType.STORE:
            self._functional_store(access)
            return outcome
        if not is_load:
            self._functional_update(access)
        outcome.value = self._functional_load(access)
        return outcome

    # ---------------------------------------------------------------- finalize

    def finalize(self) -> None:
        """Fold every outstanding delta buffer into the memory image.

        At the end of a run some lines may still be in update-only mode; their
        buffered deltas have not yet been observed by any reader.  Committing
        them here makes the functional memory image equal to what a reader
        would see after a full reduction, which is what result-checking tests
        compare against.
        """
        # repro-lint: disable=D102(buffers commit independently per line; insertion order is the deterministic trace order, pinned by golden fingerprints)
        for (core_id, line_addr) in list(self.delta_buffers.keys()):
            self._commit_buffer(core_id, line_addr)
