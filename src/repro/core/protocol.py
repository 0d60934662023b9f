"""Abstract coherence protocol interface used by the timing simulator.

A protocol engine owns all coherence state for one simulation run: per-core
private line states, directory entries, reduction units, and the functional
memory image used to check results.  The simulator hands it one access at a
time (in global-time order) and receives an :class:`AccessOutcome` describing
the critical-path latency (broken down by level), the traffic generated, and
the coherence actions taken.

Protocol engines resolve each access atomically against *stable* states; the
transient-state machinery needed for correctness on an unordered network is
modelled and verified separately in :mod:`repro.verification`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro import obs as _obs
from repro.core.directory import Directory
from repro.core.reduction import ReductionUnit
from repro.core.states import StableState
from repro.hierarchy.cache import (
    STATE_ABSENT,
    STATE_EXCLUSIVE,
    STATE_MODIFIED,
    STATE_SHARED,
    STATE_UPDATE,
)
from repro.hierarchy.system import CacheHierarchy
from repro.interconnect.network import InterconnectModel
from repro.sim.access import MemoryAccess
from repro.sim.columnar import NO_OP_INDEX
from repro.sim.config import SystemConfig
from repro.sim.stats import LatencyBreakdown


@dataclass(slots=True)
class AccessOutcome:
    """Result of resolving one memory access against the protocol."""

    latency: LatencyBreakdown = field(default_factory=LatencyBreakdown)
    #: Value returned to the core (loads and atomics only; None otherwise).
    value: object = None
    #: Whether the access hit in the private hierarchy without protocol action.
    private_hit: bool = False
    #: Number of sharers invalidated or downgraded on the critical path.
    invalidations: int = 0
    #: Whether a full reduction was performed to satisfy this access.
    full_reduction: bool = False

    @property
    def total_latency(self) -> float:
        return self.latency.total


# -- the private-hit rule -------------------------------------------------------

#: Hit-table actions.  ``ACT_SLOW`` goes to ``resolve_slow`` unprobed; the
#: others probe the private caches once, then ``ACT_PROBE`` goes to
#: ``resolve_slow`` and a private hit retires inline: ``ACT_HIT`` as is,
#: ``ACT_HIT_M`` leaving the line in M (a store, an atomic, an update the
#: owned copy absorbs), ``ACT_BUFFER`` buffering an update of the U line's
#: op.  A miss, or an update of another op, goes to ``resolve_slow``.
ACT_SLOW, ACT_PROBE, ACT_HIT, ACT_HIT_M, ACT_BUFFER = range(5)

#: Folding mode (``HOT_COMMUTATIVE``) -> the cells of a commutative or remote
#: update to a line held in S, in E/M, and in U.
_UPDATE_CELLS = {
    "atomic": (ACT_PROBE, ACT_HIT_M, ACT_PROBE),
    "local": (ACT_PROBE, ACT_HIT_M, ACT_BUFFER),
    "never": (ACT_SLOW, ACT_SLOW, ACT_SLOW),
}

#: StableState (``None``: untracked) -> hit-table row = tag-mirror code.
STATE_CODE = {
    None: STATE_ABSENT,
    StableState.INVALID: STATE_ABSENT,
    StableState.SHARED: STATE_SHARED,
    StableState.EXCLUSIVE: STATE_EXCLUSIVE,
    StableState.MODIFIED: STATE_MODIFIED,
    StableState.UPDATE: STATE_UPDATE,
}


def hit_table(folding: str) -> Tuple[Tuple[int, ...], ...]:
    """The private-hit rule (paper Sec. 3, Fig. 6) of one folding mode.

    Rows are ``STATE_*`` codes, columns ``KIND_*`` slots.  Loads hit in
    S/E/M, stores and atomics in E/M.  Updates run as atomics under
    ``"atomic"`` (MESI), also buffer in U under ``"local"`` (MEUSI), and go
    to the home bank unprobed under ``"never"`` (RMO).  Demands on a U line
    skip the probe: ``resolve_slow`` reduces the line first.
    """
    shared, owned, update = _UPDATE_CELLS[folding]
    rows = {
        STATE_ABSENT: (ACT_SLOW,) * 5,
        STATE_SHARED: (ACT_HIT, ACT_PROBE, ACT_PROBE, shared, shared),
        STATE_EXCLUSIVE: (ACT_HIT, ACT_HIT_M, ACT_HIT_M, owned, owned),
        STATE_MODIFIED: (ACT_HIT, ACT_HIT_M, ACT_HIT_M, owned, owned),
        STATE_UPDATE: (ACT_SLOW, ACT_SLOW, ACT_SLOW, update, update),
    }
    return tuple(rows[code] for code in sorted(rows))


class CoherenceProtocol(abc.ABC):
    """Base class for the stable-state protocol engines (MESI, MEUSI, RMO)."""

    #: Human-readable protocol name used in results and experiment tables.
    name: str = "abstract"

    #: How private hits treat commutative/remote updates: ``"atomic"`` folds
    #: them into atomic read-modify-writes (MESI), ``"local"`` applies COUP's
    #: update-only rules (MEUSI), ``"never"`` forces the slow path (RMO).
    #: The engine's hit table (:func:`hit_table`) is built from it alone.
    HOT_COMMUTATIVE: str = "atomic"

    def __init__(self, config: SystemConfig, track_values: bool = True) -> None:
        self.config = config
        self.track_values = track_values
        self.hierarchy = CacheHierarchy(config)
        self.directory = Directory()
        self.interconnect: InterconnectModel = self.hierarchy.interconnect
        # -- hot-path tables, computed once per run ---------------------------
        # The per-access resolution path must not recompute config-derived
        # quantities; everything it needs is hoisted here.
        if config.line_bytes & (config.line_bytes - 1):
            raise ValueError("line_bytes must be a power of two")
        #: ``addr >> _line_shift`` == ``config.line_address(addr)``.
        self._line_shift = config.line_bytes.bit_length() - 1
        #: Chip hosting each core, as a flat table (no bounds check, no division).
        self._chip_of_core = [
            core // config.cores_per_chip for core in range(config.n_cores)
        ]
        self._onchip_hop = self.interconnect.onchip_hop_latency()
        self._offchip_round_trip = self.interconnect.offchip_round_trip()
        # Per-pair off-chip latency hooks.  Engines call
        # ``self._l4_rt(chip, l4_chip, line_addr, now)`` for a demand-fetch
        # chip <-> home-L4 round trip, ``self._l4_control_rt(...)`` for a
        # control-only exchange (invalidate/ack, remote op/ack),
        # ``self._l4_partial(...)`` for a reduction gather (data travels
        # chip -> L4), and ``self._chip_rt(src, dst, now)`` for a chip <->
        # chip transfer.  All three L4 kinds share one base latency; they
        # differ only in the bytes the contention model occupies links with.
        # Every off-chip charge (retire loop, ``resolve_slow``, ``access``)
        # goes through these attributes, read at call time, so rebinding
        # them after construction reprices every path.
        # With contention disabled every hook is a pure table lookup (under
        # the default dancehall every entry equals the original fixed
        # constants, so results are bit-identical to the pre-topology
        # model); with contention enabled they also accumulate epoch
        # occupancy and fold the queueing surcharge into the latency.
        contention = self.interconnect.contention
        if contention is not None:
            self._l4_rt = contention.l4_round_trip
            self._l4_control_rt = contention.l4_control_round_trip
            self._l4_partial = contention.l4_partial_update
            self._chip_rt = contention.chip_transfer
        else:
            l4_table = self.interconnect.l4_round_trip_table
            chip_table = self.interconnect.chip_transfer_table
            self._l4_rt = lambda chip, l4, line_addr, now: l4_table[chip][l4]
            self._l4_control_rt = self._l4_rt
            self._l4_partial = self._l4_rt
            self._chip_rt = lambda src, dst, now: chip_table[src][dst]
        self._l1_latency = config.l1d.latency
        self._l2_latency = config.l2.latency
        self._l3_latency = config.l3.latency
        self._l4_latency = config.l4.latency
        self._l1_caches = self.hierarchy.l1
        self._l2_caches = self.hierarchy.l2
        self._l3_caches = self.hierarchy.l3
        self._l4_caches = self.hierarchy.l4
        self._memory = self.hierarchy.memory
        #: The private L1/L2 probe (1: L1 hit, 2: L2 hit, 0: miss).  The
        #: retire loop inlines it; see ``CacheHierarchy.private_lookup_level``.
        self._private_level = self.hierarchy.private_lookup_level
        self._n_l4_chips = config.n_l4_chips
        table = hit_table(self.HOT_COMMUTATIVE)
        #: The hit table's rows for the retire loop and ``access``, keyed by
        #: ``StableState._value_`` (a str hash is cached, an enum's is not).
        self.hit_rows = {
            None if state is None else state._value_: list(table[STATE_CODE[state]])
            for state in (None, *StableState)
        }
        #: The hit table for :meth:`hot_mask`.
        self.hit_array = np.array(table, dtype=np.uint8)
        #: One reduction unit per L3 bank per chip plus one per L4 bank.
        self.l3_reduction_units = {
            (chip, bank): ReductionUnit(config.reduction_unit, name=f"rdu.l3.{chip}.{bank}")
            for chip in range(config.n_chips)
            for bank in range(config.l3.banks)
        }
        self.l4_reduction_units = {
            (chip, bank): ReductionUnit(config.reduction_unit, name=f"rdu.l4.{chip}.{bank}")
            for chip in range(config.n_l4_chips)
            for bank in range(config.l4.banks)
        }
        #: Functional memory image: word address -> value.
        self.memory_image: Dict[int, object] = {}
        #: Simulator time of the access currently being resolved; protocol
        #: engines set this at the top of :meth:`access` so internal helpers
        #: (evictions, reductions) can schedule shared resources correctly.
        self.current_time: float = 0.0
        # Aggregate statistics (also mirrored in SimulationResult).
        self.stat_invalidations = 0
        self.stat_downgrades = 0
        self.stat_full_reductions = 0
        self.stat_partial_reductions = 0
        #: Telemetry hook (``repro.obs``): ``None`` when ``REPRO_OBS=off``.
        #: Engines may ``self.obs.inc(...)`` on their own slow paths (guarded
        #: on ``is not None``); the simulator folds the run's aggregate
        #: protocol statistics through :meth:`obs_fold_stats` at finish.
        #: Write-only from the simulation's point of view — nothing here is
        #: ever read back into a SimulationResult.
        self.obs = _obs.get_registry()

    # -- functional memory image ----------------------------------------------

    def read_word(self, address: int):
        """Current architectural value of a word (after any pending reduction).

        Note: callers must have triggered the protocol-level reduction first;
        this only consults the committed memory image.
        """
        return self.memory_image.get(address, 0)

    # -- telemetry -------------------------------------------------------------

    def obs_fold_stats(self) -> None:
        """Fold the run's protocol-level aggregates into the obs registry.

        Called once by the simulator when a run finishes (after the result
        statistics are final), so telemetry reports carry protocol context
        — invalidation/downgrade/reduction volume — next to the kernel's
        phase timings.  One-way: the registry is never read back.
        """
        reg = self.obs
        if reg is None:
            return
        reg.inc("protocol.invalidations", self.stat_invalidations)
        reg.inc("protocol.downgrades", self.stat_downgrades)
        reg.inc("protocol.full_reductions", self.stat_full_reductions)
        reg.inc("protocol.partial_reductions", self.stat_partial_reductions)

    # -- protocol interface ----------------------------------------------------

    @abc.abstractmethod
    def access(self, core_id: int, access: MemoryAccess, now: float) -> AccessOutcome:
        """Resolve one access issued by ``core_id`` at simulator time ``now``."""

    def resolve_slow(
        self,
        core_id: int,
        access: MemoryAccess,
        line_addr: int,
        state,
        level,
        now: float,
    ) -> AccessOutcome:
        """Resolve an access its hit-table cell does not retire as a hit.

        The retire loop and :meth:`access` call this after running the
        engine's hit table (:func:`hit_table`).  ``state`` is the core's
        stable state for the line (``None`` if untracked) and ``level`` the
        private-probe result, or ``None`` for an ``ACT_SLOW`` cell, which
        does not probe: then the probe happens here, if the transaction needs
        it, so lookup statistics and LRU state advance exactly once per
        access.
        """
        raise NotImplementedError

    def hot_mask(
        self,
        kinds: np.ndarray,
        member: np.ndarray,
        states: np.ndarray,
        uops: Optional[np.ndarray],
        op_index: np.ndarray,
    ) -> np.ndarray:
        """The hit table, vectorized over one window of a core's trace.

        Returns a boolean array marking the accesses that are private L1
        hits the hit table retires inline: exactly the L1 hits among the
        accesses the retire loop would retire as hits.  Inputs are parallel
        arrays over the window:

        ``kinds``
            Access kind per :data:`repro.sim.columnar.CODE_KIND`.
        ``member``
            Whether the line is L1-resident (from the core's
            :class:`~repro.hierarchy.cache.TagArray` mirror).
        ``states``
            The core's stable-state code for the line
            (``repro.hierarchy.cache.STATE_*``; 0 when absent/untracked).
        ``uops``
            For ``STATE_UPDATE`` lines, the directory entry's op index when
            same-type updates may buffer locally (else ``NO_OP_INDEX``).
            Read only where the table has an ``ACT_BUFFER`` cell.
        ``op_index``
            The access's own op index (:data:`repro.sim.columnar.CODE_OP_INDEX`).
        """
        # The flat take is the 2-D lookup hit_array[states, kinds], faster.
        action = self.hit_array.take(states * self.hit_array.shape[1] + kinds)
        hot = member & (action >= ACT_HIT)
        buffer = hot & (action == ACT_BUFFER)
        if buffer.any():
            hot &= ~buffer | ((uops == op_index) & (uops != NO_OP_INDEX))
        return hot

    def finalize(self) -> None:
        """Flush protocol state at the end of a run.

        MEUSI overrides this to reduce any outstanding update-only lines so
        that the functional memory image reflects all buffered deltas.
        """

    # -- shared latency helpers -------------------------------------------------

    def line_addr(self, byte_addr: int) -> int:
        return self.config.line_address(byte_addr)

    def home_l4_chip(self, line_addr: int) -> int:
        return line_addr % self._n_l4_chips

    def reduction_unit_for_l3(self, chip: int, line_addr: int) -> ReductionUnit:
        return self.l3_reduction_units[(chip, self.config.l3_home_bank(line_addr))]

    def reduction_unit_for_l4(self, line_addr: int) -> ReductionUnit:
        chip = self.home_l4_chip(line_addr)
        bank = line_addr % self.config.l4.banks
        return self.l4_reduction_units[(chip, bank)]
