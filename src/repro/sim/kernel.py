"""Batched columnar simulation kernel: vectorized hit-run scanning.

The simulator's retire loop (:meth:`MesiProtocol.resolve_slow_batch`)
interprets one access per Python iteration, even though on hit-friendly
workloads the overwhelming majority of accesses are private L1 hits that
change no coherence state visible to any other core.  This kernel removes
the interpreter from that common case, and does nothing else:

* On entry, each runnable core's private L1 residency and stable states
  are mirrored into flat NumPy arrays
  (:class:`~repro.hierarchy.cache.TagArray`).  Nothing but hits runs while
  the kernel holds the simulation, so the mirrors stay exact until it hands
  back, and the next entry rebuilds them.
* Per window of the columnar trace (up to :data:`BATCH_SIZE` accesses), the
  engine's hit table (:func:`repro.core.protocol.hit_table`, the private-hit
  rule the retire loop and ``access()`` run too) is evaluated for the whole
  window at once against the tag mirror
  (:meth:`CoherenceProtocol.hot_mask`).  The window's *hit-run* — its
  maximal hot prefix — is advanced with O(1) Python work: clocks,
  compute/memory cycles, latency, per-type counters and LRU order are all
  computed with NumPy reductions over the run.
* The kernel hands the simulation back to the retire loop at the first
  access its mask does not classify hot, in the retire loop's exact
  ``(clock, core id)`` order.

Bit-identity
------------

Results are bit-identical to a run that never enters the kernel (pinned by
the golden fingerprints and the batch-boundary grids in ``tests/sim/``),
which rests on three invariants:

1. **Hits commute across cores.**  A private L1 hit touches only per-core
   state (the core's clock, statistics, cache LRU, its own line states and
   delta buffers) plus per-address functional values that no other core can
   concurrently touch: a line written on the hit path is held in E/M (or
   buffered in U), so any other core's access to it must first take the
   globally ordered slow path.  Reordering hit-runs of *different* cores is
   therefore unobservable.  (Two deliberate guards keep the observable dict
   orders pinned: ``SimulationResult.to_jsonable`` emits ``final_values``
   sorted, and a U-state update whose delta buffer does not exist yet
   classifies slow — see :meth:`MeusiProtocol.batch_uop_code`.)
2. **No hit passes an earlier non-hit.**  The kernel finds the earliest
   access in ``(clock, core id)`` order that its masks do not classify hot,
   advances every core through exactly the hits whose heap priority
   precedes it, and hands back: the retire loop then resumes from the very
   state its own loop would have reached.
3. **Float arithmetic replays the per-access op sequence.**  When every
   timing constant (CPI, issue overheads, L1 latency) is a dyadic rational
   with at most 8 fractional bits — true for every shipped configuration —
   all the per-access partial sums are exact in float64 (non-negative
   addends, magnitudes capped by a runtime guard), so order of summation
   cannot change a single bit and closed-form NumPy reductions are used.
   Any other configuration, or a run that exceeds the magnitude guard, uses
   the fold pipeline instead: ``np.cumsum`` (strictly sequential
   accumulation) over the same per-access addend sequence the retire loop
   folds, which reproduces every partial sum bit-for-bit unconditionally.

Dispatch
--------

``REPRO_SIM_KERNEL`` selects ``auto`` (default), ``batch`` or ``scalar``;
the rule each way is in :meth:`MulticoreSimulator.run`.  Dispatch is a
function of counts alone, so which path runs is a pure function of (trace,
configuration), on any host.
"""

from __future__ import annotations

import os
from typing import List

import numpy as np

from repro.core.protocol import STATE_CODE
from repro.core.states import StableState
from repro.hierarchy.cache import STATE_ABSENT, STATE_UPDATE, TagArray
from repro import obs as _obs
from repro.sim.columnar import (
    CODE_KIND,
    CODE_OP,
    CODE_OP_INDEX,
    NO_OP_INDEX,
    ColumnarTrace,
    KIND_LOAD,
    KIND_STORE,
    decode_values,
)
from repro.sim.stats import CoreStats

#: Upper bound on the classification window (accesses per window).
BATCH_SIZE = 4096
#: Windows start here and double every time one is consumed fully hot.
MIN_WINDOW = 64

#: Closed-form reductions require every partial sum to stay exactly
#: representable: addends are non-negative dyadic rationals with <= 8
#: fractional bits, so sums are exact while below 2**53 / 2**8 = 2**45.
#: The guard trips well before that.
_EXACT_CLOCK_LIMIT = float(1 << 44)

_VALID_MODES = ("auto", "batch", "scalar")


def kernel_mode() -> str:
    """Kernel selection from ``REPRO_SIM_KERNEL`` (``auto`` when unset).

    Raises ``ValueError`` for a value outside ``auto | batch | scalar``: a
    typo must not silently select (and time) a different path.
    """
    raw = os.environ.get("REPRO_SIM_KERNEL", "")
    mode = raw.strip().lower() or "auto"
    if mode not in _VALID_MODES:
        raise ValueError(
            f"REPRO_SIM_KERNEL must be one of {' | '.join(_VALID_MODES)}, got {raw!r}"
        )
    return mode


def _dyadic(value: float, bits: int = 8) -> bool:
    """Whether ``value`` is a non-negative multiple of ``2**-bits``."""
    return value >= 0 and float(value * (1 << bits)).is_integer()


class _BatchCore:
    """Per-core cursor plus the current window's hit-run."""

    __slots__ = (
        "core_id",
        "clock",
        "next_index",
        "limit",
        "tags",
        "window",
        # -- classified window -------------------------------------------------
        "win_start",
        "win_len",
        "win_lines",
        "win_kinds",
        "win_states",
        "win_codes",
        "win_addrs",
        "win_t",
        "values",
        # -- its hit-run (the window's hot prefix) ----------------------------
        "hot_len",
        "applied",
        "end_reason",  # "slow" | "window" | "limit"
        "slow_priority",
        "pop_clocks",
        "end_clocks",
        "cc_fold",
        "mc_fold",
        "l1_fold",
        "cnt_folds",
    )

    def __init__(self, core_id: int, l1_config, window: int) -> None:
        self.core_id = core_id
        self.clock = 0.0
        self.next_index = 0
        self.limit = 0
        self.tags = TagArray(l1_config)
        self.window = window
        self.win_start = 0
        self.win_len = 0
        self.win_lines = None
        self.win_kinds = None
        self.win_states = None
        self.win_codes = None
        self.win_addrs = None
        self.win_t = None
        self.values = None
        self.hot_len = 0
        self.applied = 0
        self.end_reason = "limit"
        self.slow_priority = 0.0
        self.pop_clocks = None
        self.end_clocks = None
        self.cc_fold = None
        self.mc_fold = None
        self.l1_fold = None
        self.cnt_folds = None


class BatchedKernel:
    """The hit-run accelerator for one simulation of a :class:`ColumnarTrace`.

    Construct once per run with the owning :class:`MulticoreSimulator`, the
    trace and the run's per-core statistics; every :meth:`run` is one stint.
    """

    __slots__ = (
        "protocol",
        "columns",
        "codes_col",
        "addrs_col",
        "gaps_col",
        "core_stats",
        "cores",
        "_cpi",
        "_l1_latency",
        "_l1_hit_total",
        "_overhead_by_kind",
        "_shift_u64",
        "_nsets_u64",
        "_core_states",
        "_l1_caches",
        "_track_values",
        "_memory_image",
        "_comm_local",
        "_max_window",
        "_exact",
        "_hits_batched",
        "_obs_timing",
    )

    def __init__(
        self, simulator, workload: ColumnarTrace, core_stats: List[CoreStats]
    ) -> None:
        config = simulator.config
        protocol = simulator.protocol
        self.protocol = protocol
        self.columns = workload.columns
        self.codes_col = [column["type_code"] for column in workload.columns]
        self.addrs_col = [column["address"] for column in workload.columns]
        self.gaps_col = [column["compute_gap"] for column in workload.columns]
        self.core_stats = core_stats
        self._max_window = BATCH_SIZE
        min_window = min(MIN_WINDOW, self._max_window)
        self.cores = [
            _BatchCore(i, config.l1d, min_window) for i in range(workload.n_cores)
        ]

        # -- hoisted constants (the same values the retire loop charges) -------
        core_model = simulator.core_model
        self._cpi = core_model.cycles_per_instruction
        atomic_overhead = core_model.atomic_overhead
        commutative_overhead = core_model.commutative_overhead
        self._l1_latency = config.l1d.latency
        self._l1_hit_total = self._l1_latency + 0.0
        self._overhead_by_kind = np.array(
            [0.0, 0.0, atomic_overhead, commutative_overhead, commutative_overhead]
        )
        self._shift_u64 = np.uint64(protocol._line_shift)
        self._nsets_u64 = np.uint64(config.l1d.num_sets)

        self._core_states = protocol.core_states
        self._l1_caches = protocol._l1_caches
        self._track_values = protocol.track_values
        self._memory_image = protocol.memory_image
        self._comm_local = protocol.HOT_COMMUTATIVE == "local"

        #: Whether closed-form reductions are exact for this configuration
        #: (see the module docstring); checked per run against the magnitude
        #: guard and demoted permanently if it ever trips.
        self._exact = all(
            _dyadic(value)
            for value in (
                self._cpi,
                atomic_overhead,
                commutative_overhead,
                float(self._l1_latency),
            )
        )
        self._hits_batched = 0

        # Telemetry (repro.obs): None when REPRO_OBS is not ``full``.  The
        # one timed phase is window classification; nothing recorded here
        # ever feeds a SimulationResult.
        self._obs_timing = _obs.timing_registry()

    # ------------------------------------------------------------ tag mirrors

    def _rebuild_tags(self, core: _BatchCore) -> None:
        """Refill a core's tag mirror from the object L1 (full resync)."""
        core_id = core.core_id
        tags = core.tags
        tags.clear()
        states = self._core_states[core_id]
        comm_local = self._comm_local
        protocol = self.protocol
        state_code = STATE_CODE
        # repro-lint: disable=D102(full resync visits each set exactly once; sets are independent so visit order cannot affect the rebuilt mirror)
        for set_index, cache_set in self._l1_caches[core_id]._sets.items():
            tag_row = tags.tags[set_index]
            state_row = tags.state[set_index]
            uop_row = tags.uop[set_index]
            way = 0
            for line_addr in cache_set:
                code = state_code[states.get(line_addr)]
                tag_row[way] = line_addr
                state_row[way] = code
                if code == STATE_UPDATE and comm_local:
                    uop_row[way] = protocol.batch_uop_code(core_id, line_addr)
                else:
                    uop_row[way] = NO_OP_INDEX
                way += 1

    # ---------------------------------------------------------- classification

    def _classify(self, core: _BatchCore) -> None:
        """Classify the window at the core's cursor and extract its hit-run."""
        core_id = core.core_id
        start = core.next_index
        width = min(core.window, core.limit - start)
        core.win_start = start
        core.win_len = width
        core.applied = 0
        core.cnt_folds = None  # set only by the sequential-fold pipeline
        if width <= 0:  # at the limit: nothing left to classify
            core.hot_len = 0
            core.end_reason = "limit"
            core.slow_priority = core.clock
            return
        obs_timing = self._obs_timing
        if obs_timing is not None:
            _obs_t0 = obs_timing.clock()
        codes = self.codes_col[core_id][start : start + width]
        addrs = self.addrs_col[core_id][start : start + width]
        gaps = self.gaps_col[core_id][start : start + width]
        lines = addrs >> self._shift_u64
        kinds = CODE_KIND[codes]
        t = gaps * self._cpi + self._overhead_by_kind[kinds]
        sets = lines % self._nsets_u64
        tags = core.tags
        match = tags.tags[sets] == lines[:, None]
        member = match.any(axis=1)
        ways = match.argmax(axis=1)
        states = np.where(member, tags.state[sets, ways], STATE_ABSENT)
        uops = (
            np.where(states == STATE_UPDATE, tags.uop[sets, ways], NO_OP_INDEX)
            if self._comm_local
            else None
        )
        hot = self.protocol.hot_mask(kinds, member, states, uops, CODE_OP_INDEX[codes])
        cold = np.flatnonzero(~hot)
        end = int(cold[0]) if cold.size else width
        core.win_codes = codes
        core.win_addrs = addrs
        core.win_lines = lines
        core.win_kinds = kinds
        core.win_states = states
        core.win_t = t
        core.values = None
        core.hot_len = end
        if obs_timing is not None:
            obs_timing.observe("eval_mask", obs_timing.clock() - _obs_t0)
        if end < width:
            core.end_reason = "slow"
        elif start + width == core.limit:
            core.end_reason = "limit"
        else:
            core.end_reason = "window"
            # The window was consumed fully hot: grow the next one so
            # classification amortizes over longer runs.
            core.window = min(core.window * 2, self._max_window)

        if not end:
            core.slow_priority = core.clock
            return

        if self._exact:
            end_clocks = core.clock + np.cumsum(t[:end] + self._l1_hit_total)
            last = float(end_clocks[-1])
            if last < _EXACT_CLOCK_LIMIT:
                pop_clocks = np.empty(end)
                pop_clocks[0] = core.clock
                pop_clocks[1:] = end_clocks[:-1]
                core.end_clocks = end_clocks
                core.pop_clocks = pop_clocks
                core.slow_priority = last
                return
            # Magnitude guard tripped: closed forms are no longer provably
            # exact; demote to the sequential-fold pipeline for good (runs
            # already classified passed their own guard and stay exact).
            self._exact = False
        self._classify_folds(core, end)


    def _classify_folds(self, core: _BatchCore, end: int) -> None:
        """Sequential-fold clock/statistic arrays for a non-dyadic config.

        Replays the per-access recurrence
        ``clock = ((clock + think) + overhead) + l1_hit_total``
        as one strictly sequential cumulative sum over the interleaved
        addend sequence (np.cumsum accumulates left to right), and builds
        absolute per-offset values for each statistic the run advances.
        """
        core_id = core.core_id
        stats = self.core_stats[core_id]
        kinds_run = core.win_kinds[:end]
        think = self.gaps_col[core_id][core.win_start : core.win_start + end] * self._cpi
        overhead = self._overhead_by_kind[kinds_run]
        tri = np.empty(3 * end + 1)
        tri[0] = core.clock
        tri[1::3] = think
        tri[2::3] = overhead
        tri[3::3] = self._l1_hit_total
        folded = np.cumsum(tri)
        end_clocks = folded[3::3]
        pop_clocks = np.empty(end)
        pop_clocks[0] = core.clock
        pop_clocks[1:] = end_clocks[:-1]
        core.end_clocks = end_clocks
        core.pop_clocks = pop_clocks
        core.slow_priority = float(end_clocks[-1])
        core.cc_fold = np.cumsum(
            np.concatenate(([stats.compute_cycles], think + overhead))
        )
        core.mc_fold = np.cumsum(
            np.concatenate(([stats.memory_cycles], np.full(end, self._l1_hit_total)))
        )
        core.l1_fold = np.cumsum(
            np.concatenate(([stats.latency.l1], np.full(end, float(self._l1_latency))))
        )
        zero = np.zeros(1, dtype=np.int64)
        core.cnt_folds = [
            np.concatenate((zero, np.cumsum(kinds_run == kind, dtype=np.int64)))
            for kind in range(5)
        ]

    # ------------------------------------------------------------- application

    def _apply(self, core: _BatchCore, cut: int) -> None:
        """Advance the core through hit-run accesses ``[applied, cut)``."""
        begin = core.applied
        if cut <= begin:
            return
        core_id = core.core_id
        stats = self.core_stats[core_id]
        count = cut - begin

        # The fold regime is a per-run property: a run classified under the
        # exact regime has no fold arrays (and its closed forms are valid —
        # its magnitude guard passed), even if the kernel has since demoted
        # to the fold pipeline for future classifications.
        run_exact = core.cnt_folds is None
        if run_exact and count <= 8:
            self._apply_small(core, stats, begin, cut, count)
            core.clock = float(core.end_clocks[cut - 1])
            core.applied = cut
            core.next_index += count
            self._hits_batched += count
            return

        kinds_seg = core.win_kinds[begin:cut]
        if run_exact:
            counts = np.bincount(kinds_seg, minlength=5)
            comm_n = int(counts[3])
            remote_n = int(counts[4])
            stats.loads += int(counts[0])
            stats.stores += int(counts[1])
            stats.atomics += int(counts[2])
            stats.commutative_updates += comm_n
            stats.remote_updates += remote_n
            stats.compute_cycles += float(np.sum(core.win_t[begin:cut]))
            stats.memory_cycles += self._l1_hit_total * count
            stats.latency.l1 += self._l1_latency * count
        else:
            c_load, c_store, c_atomic, c_comm, c_remote = core.cnt_folds
            stats.loads += int(c_load[cut] - c_load[begin])
            stats.stores += int(c_store[cut] - c_store[begin])
            stats.atomics += int(c_atomic[cut] - c_atomic[begin])
            comm_n = int(c_comm[cut] - c_comm[begin])
            remote_n = int(c_remote[cut] - c_remote[begin])
            stats.commutative_updates += comm_n
            stats.remote_updates += remote_n
            stats.compute_cycles = float(core.cc_fold[cut])
            stats.memory_cycles = float(core.mc_fold[cut])
            stats.latency.l1 = float(core.l1_fold[cut])
        stats.accesses += count
        stats.l1_hits += count
        core.clock = float(core.end_clocks[cut - 1])
        if self._comm_local and (comm_n or remote_n):
            self.protocol.stat_local_updates += comm_n + remote_n

        # L1 statistics and LRU: every hit bumps the tick and refreshes the
        # line; after the run each distinct line holds the tick of its last
        # hit, which is what the scalar per-access refresh converges to.
        l1 = self._l1_caches[core_id]
        base_tick = l1._tick
        l1.hits += count
        l1._tick = base_tick + count
        seg_lines = core.win_lines[begin:cut]
        line_sets = l1._sets
        num_sets = l1._num_sets
        if count <= 64:
            # Short slice: replay the refreshes directly (the last assignment
            # per line wins, exactly as the per-access loop converges).
            tick = base_tick
            for line_addr in seg_lines.tolist():
                tick += 1
                line_sets[line_addr % num_sets][line_addr].last_use = tick
        else:
            distinct, reverse_first = np.unique(seg_lines[::-1], return_index=True)
            last_offsets = (count - 1) - reverse_first
            for line_addr, offset in zip(distinct.tolist(), last_offsets.tolist()):
                line_sets[line_addr % num_sets][line_addr].last_use = (
                    base_tick + offset + 1
                )

        # Write permission upgrades: stores/atomics/folded updates against an
        # E copy leave the line in M (U-state buffering does not).
        states_seg = core.win_states[begin:cut]
        write_mask = (kinds_seg != KIND_LOAD) & (states_seg != STATE_UPDATE)
        if write_mask.any():
            state_map = self._core_states[core_id]
            modified = StableState.MODIFIED
            for line_addr in np.unique(seg_lines[write_mask]).tolist():
                state_map[line_addr] = modified

        # Functional updates (tracked-value runs only), replaying the scalar
        # per-access dict operations in program order.
        if self._track_values:
            update_offsets = np.flatnonzero(kinds_seg != KIND_LOAD)
            if update_offsets.size:
                if core.values is None:
                    core.values = decode_values(
                        self.columns[core_id][
                            core.win_start : core.win_start + core.win_len
                        ]
                    )
                values = core.values
                lines_win = core.win_lines
                kinds_win = core.win_kinds
                states_win = core.win_states
                codes_win = core.win_codes
                addrs_win = core.win_addrs
                memory_image = self._memory_image
                protocol = self.protocol
                code_op = CODE_OP
                for rel in update_offsets.tolist():
                    j = begin + rel
                    value = values[j]
                    if value is None:
                        continue
                    address = int(addrs_win[j])
                    if kinds_win[j] == KIND_STORE:
                        memory_image[address] = value
                    elif states_win[j] == STATE_UPDATE:
                        op = code_op[codes_win[j]]
                        buffer = protocol._buffer_for(core_id, int(lines_win[j]), op)
                        buffer.update(address, value)
                    else:
                        op = code_op[codes_win[j]]
                        if op is not None:
                            current = memory_image.get(address, op.identity)
                            memory_image[address] = op.apply(current, value)

        core.applied = cut
        core.next_index += count
        self._hits_batched += count

    def _apply_small(
        self, core: _BatchCore, stats: CoreStats, low: int, high: int, count: int
    ) -> None:
        """Fused scalar advance for short slices (exact regime only).

        Tight interleaves shatter hit-runs into slices of a few hits; the
        vectorized reductions in :meth:`_apply` cost more than the
        interpreter work they replace there.  Everything folds with scalar
        arithmetic, which is bit-identical because in the exact regime every
        addend is dyadic — grouping cannot change a bit.
        """
        core_id = core.core_id
        kinds_l = core.win_kinds[low:high].tolist()
        lines_l = core.win_lines[low:high].tolist()
        states_l = core.win_states[low:high].tolist()
        l1 = self._l1_caches[core_id]
        tick = l1._tick
        l1.hits += count
        line_sets = l1._sets
        num_sets = l1._num_sets
        state_map = self._core_states[core_id]
        modified = StableState.MODIFIED
        memory_image = self._memory_image
        track = self._track_values
        comm_n = 0
        if track and core.values is None:
            core.values = decode_values(
                self.columns[core_id][core.win_start : core.win_start + core.win_len]
            )
        values = core.values
        for offset in range(count):
            kind = kinds_l[offset]
            line_addr = lines_l[offset]
            tick += 1
            line_sets[line_addr % num_sets][line_addr].last_use = tick
            if kind == 0:
                stats.loads += 1
                continue
            state = states_l[offset]
            if kind == 1:
                stats.stores += 1
            elif kind == 2:
                stats.atomics += 1
            elif kind == 3:
                stats.commutative_updates += 1
                comm_n += 1
            else:
                stats.remote_updates += 1
                comm_n += 1
            if state != STATE_UPDATE:
                state_map[line_addr] = modified
            if track:
                j = low + offset
                value = values[j]
                if value is None:
                    continue
                address = int(core.win_addrs[j])
                if kind == 1:
                    memory_image[address] = value
                elif state == STATE_UPDATE:
                    op = CODE_OP[core.win_codes[j]]
                    self.protocol._buffer_for(core_id, line_addr, op).update(
                        address, value
                    )
                else:
                    op = CODE_OP[core.win_codes[j]]
                    if op is not None:
                        current = memory_image.get(address, op.identity)
                        memory_image[address] = op.apply(current, value)
        l1._tick = tick
        if self._comm_local and comm_n:
            self.protocol.stat_local_updates += comm_n
        stats.compute_cycles += sum(core.win_t[low:high].tolist())
        stats.memory_cycles += self._l1_hit_total * count
        stats.latency.l1 += self._l1_latency * count
        stats.accesses += count
        stats.l1_hits += count

    # --------------------------------------------------------------- scheduler

    def run(
        self,
        core_ids: List[int],
        cursors: List[int],
        clocks: List[float],
        limits: List[int],
    ) -> int:
        """One stint: apply hit-runs up to the first access not classified hot.

        ``core_ids`` are the runnable cores; ``cursors`` / ``clocks`` /
        ``limits`` are the simulator's per-core lists, updated in place.
        Cores enter in ``(clock, core id)`` order, each with a freshly
        rebuilt tag mirror, and only while one could pop before the earliest
        run end found so far: a core that cannot has no hit to apply.
        Returns the number of hits applied.
        """
        pending = sorted(core_ids, key=lambda core_id: (clocks[core_id], core_id))
        pending.reverse()  # pop() takes the earliest
        cores: List[_BatchCore] = []
        hits_before = self._hits_batched

        while True:
            # The earliest run end in (clock, core id) order.
            best = None
            for core in cores:
                if core.end_reason == "limit":
                    continue
                if (
                    best is None
                    or core.slow_priority < best.slow_priority
                    or (
                        core.slow_priority == best.slow_priority
                        and core.core_id < best.core_id
                    )
                ):
                    best = core
            if pending:
                core_id = pending[-1]
                clock = clocks[core_id]
                if (
                    best is None
                    or clock < best.slow_priority
                    or (clock == best.slow_priority and core_id < best.core_id)
                ):
                    # Its first access may pop before every run end seen.
                    pending.pop()
                    core = self.cores[core_id]
                    core.next_index = cursors[core_id]
                    core.clock = clock
                    core.limit = limits[core_id]
                    self._rebuild_tags(core)
                    self._classify(core)
                    cores.append(core)
                    continue
            if best is None:
                # Every core's hit-run drains into its barrier or trace end.
                for core in cores:
                    self._apply(core, core.hot_len)
                break
            if best.end_reason == "window":
                # Only a classification horizon, and nothing unclassified
                # pops before it: extend it.
                self._apply(best, best.hot_len)
                self._classify(best)
                continue
            # The first access not classified hot pops at (best_clock,
            # best_id).  Advance every core through exactly the hits whose
            # heap priority precedes it — a hit popping at ``clock`` does iff
            # ``clock < best_clock``, or they tie and its core id is smaller —
            # and hand back.
            best_clock = best.slow_priority
            best_id = best.core_id
            for core in cores:
                if core.hot_len:
                    side = "right" if core.core_id < best_id else "left"
                    self._apply(
                        core,
                        int(np.searchsorted(core.pop_clocks, best_clock, side=side)),
                    )
            break

        for core in cores:
            cursors[core.core_id] = core.next_index
            clocks[core.core_id] = core.clock
        return self._hits_batched - hits_before
