"""Multicore trace-driven timing simulator.

The simulator interleaves per-core access traces in global-time order: the
core with the smallest local clock issues its next access, the protocol engine
resolves it (returning critical-path latency and recording traffic), and the
core's clock advances by the compute time plus memory latency.  Optional phase
barriers synchronise all cores, which is how reduction phases of privatized
workloads and supersteps of iterative algorithms are modelled.

One loop does this: the engine's retire loop
(:meth:`MesiProtocol.resolve_slow_batch`), a k-way merge over every runnable
core in exact ascending ``(clock, core id)`` order.  The batched kernel
(:mod:`repro.sim.kernel`) only accelerates it: it advances whole private-hit
runs with vectorized scans and hands back at the first access its masks do
not classify hot.  Dispatch is one rule each way — a run starts in the
kernel, the kernel hands back at its first non-hot access, and the retire
loop hands back after :data:`HANDBACK_HITS` consecutive hits — so which path
runs depends on counts alone, never on the host.

This per-access atomic resolution plus per-line serialization at the directory
captures the effects COUP targets — line ping-pong, invalidation storms, and
serialization of contended atomics — without modelling transient protocol
races (those are verified separately in :mod:`repro.verification`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Type

from repro import obs as _obs
from repro.core.mesi import MesiProtocol
from repro.core.meusi import MeusiProtocol
from repro.core.protocol import CoherenceProtocol
from repro.core.rmo import RmoProtocol
from repro.sim.columnar import ColumnarTrace
from repro.sim.config import SystemConfig
from repro.sim.core_model import CoreTimingModel
from repro.sim.stats import CoreStats, SimulationResult


#: Consecutive hits (across all cores) after which the retire loop hands the
#: run to the batched kernel under ``REPRO_SIM_KERNEL=auto``: a streak that
#: long means every core is in the kernel's hit-run regime.  ``batch`` hands
#: back after every hit, ``scalar`` never.
HANDBACK_HITS = 4096


#: Registry of protocol engines selectable by name.
PROTOCOLS: Dict[str, Type[CoherenceProtocol]] = {
    "MESI": MesiProtocol,
    "COUP": MeusiProtocol,
    "MEUSI": MeusiProtocol,
    "RMO": RmoProtocol,
}


def make_protocol(
    name: str, config: SystemConfig, track_values: bool = True
) -> CoherenceProtocol:
    """Instantiate a protocol engine by name (``MESI``, ``COUP``, ``RMO``)."""
    try:
        protocol_cls = PROTOCOLS[name.upper()]
    except KeyError as exc:
        raise ValueError(
            f"unknown protocol {name!r}; expected one of {sorted(PROTOCOLS)}"
        ) from exc
    return protocol_cls(config, track_values=track_values)


class MulticoreSimulator:
    """Runs one workload trace under one protocol on one machine config."""

    __slots__ = ("config", "protocol", "core_model", "track_values")

    def __init__(
        self,
        config: SystemConfig,
        protocol: CoherenceProtocol,
        *,
        track_values: bool = True,
    ) -> None:
        self.config = config
        self.protocol = protocol
        self.core_model = CoreTimingModel(config.core)
        self.track_values = track_values

    def run(self, workload: ColumnarTrace) -> SimulationResult:
        """Simulate the workload to completion and return statistics.

        The run alternates between the batched kernel and the engine's
        retire loop on one shared state — per-core cursors, clocks and
        statistics — phase by phase: when no core can run before its next
        phase boundary, every core waits at the barrier until the slowest
        arrives.  Every ``REPRO_SIM_KERNEL`` mode gives a bit-identical
        result (golden suite plus the batch-boundary grids in
        tests/sim/test_batch_kernel.py).

        Hand-written object-form traces are packed first with
        :meth:`ColumnarTrace.from_workload`.
        """
        if not isinstance(workload, ColumnarTrace):
            raise TypeError(
                f"expected a ColumnarTrace, got {type(workload).__name__}; "
                "pack object-form traces with ColumnarTrace.from_workload"
            )
        if workload.n_cores > self.config.n_cores:
            raise ValueError(
                f"workload uses {workload.n_cores} cores but the machine has "
                f"{self.config.n_cores}"
            )
        workload.validate()

        from repro.sim.kernel import BatchedKernel, kernel_mode

        mode = kernel_mode()
        protocol = self.protocol
        core_model = self.core_model
        core_params = (
            core_model.cycles_per_instruction,
            core_model.atomic_overhead,
            core_model.commutative_overhead,
        )
        n_cores = workload.n_cores
        core_stats = [CoreStats(core_id=i) for i in range(n_cores)]
        columns = workload.columns
        codes = [column["type_code"] for column in columns]
        addrs = [column["address"] for column in columns]
        gaps = [column["compute_gap"] for column in columns]
        deltas = [column["value_delta"] for column in columns]
        trace_lens = [len(column) for column in columns]
        phase_boundaries = workload.phase_boundaries or []
        n_phases = len(phase_boundaries)

        def limits_at(phase: int) -> List[int]:
            # How far each core may run before the phase's barrier.
            if phase >= n_phases:
                return list(trace_lens)
            return [
                min(trace_len, boundary)
                for trace_len, boundary in zip(trace_lens, phase_boundaries[phase])
            ]

        cursors = [0] * n_cores
        clocks = [0.0] * n_cores
        phase = 0
        limits = limits_at(phase)
        kernel = (
            None if mode == "scalar" else BatchedKernel(self, workload, core_stats)
        )
        streak_cap = {"auto": HANDBACK_HITS, "batch": 1, "scalar": 0}[mode]
        retire = protocol.resolve_slow_batch
        obs_reg = _obs.get_registry()
        in_kernel = True  # a run starts in the kernel
        while True:
            runnable = [c for c in range(n_cores) if cursors[c] < limits[c]]
            if not runnable:
                if phase >= n_phases:
                    break
                # Every core reached the barrier: release them all together
                # at the latest arrival.
                release_time = max(clocks)
                clocks = [release_time] * n_cores
                phase += 1
                limits = limits_at(phase)
                continue
            if kernel is not None and in_kernel:
                hits = kernel.run(runnable, cursors, clocks, limits)
                if obs_reg is not None:
                    obs_reg.inc("kernel.stints")
                    obs_reg.inc("kernel.hits_batched", hits)
                # Still runnable cores mean the kernel met an access it does
                # not classify hot; otherwise it drained the phase.
                in_kernel = all(cursors[c] >= limits[c] for c in runnable)
                continue
            slot_cursor = [cursors[c] for c in runnable]
            slot_clock = [clocks[c] for c in runnable]
            retired, _n_slow, n_resolve = retire(
                runnable,
                [codes[c] for c in runnable],
                [addrs[c] for c in runnable],
                [gaps[c] for c in runnable],
                [deltas[c] for c in runnable],
                slot_cursor,
                [limits[c] for c in runnable],
                slot_clock,
                [core_stats[c] for c in runnable],
                core_params,
                streak_cap,
            )
            for s, core_id in enumerate(runnable):
                cursors[core_id] = slot_cursor[s]
                clocks[core_id] = slot_clock[s]
            if obs_reg is not None:
                obs_reg.inc("retire.stints")
                obs_reg.inc("retire.accesses", retired)
                obs_reg.inc("retire.resolve_slow", n_resolve)
            # A core still short of its limit means the hit streak ran out.
            in_kernel = any(cursors[c] < limits[c] for c in runnable)
        return self._finish(workload, clocks, core_stats)

    def _finish(
        self,
        workload: ColumnarTrace,
        clocks: Sequence[float],
        core_stats: List[CoreStats],
    ) -> SimulationResult:
        """Finalize the protocol and assemble the result structure."""
        self.protocol.finalize()
        # Telemetry fold (no-op when REPRO_OBS=off): one-way, after the
        # result statistics are final, so nothing here can feed the result.
        self.protocol.obs_fold_stats()

        for clock, stats in zip(clocks, core_stats):
            stats.finish_time = clock

        run_cycles = max((stats.finish_time for stats in core_stats), default=0.0)
        interconnect = self.protocol.interconnect
        traffic = interconnect.traffic
        reductions = self.protocol.stat_full_reductions
        partials = self.protocol.stat_partial_reductions

        return SimulationResult(
            protocol=self.protocol.name,
            workload=workload.name,
            n_cores=len(core_stats),
            core_stats=core_stats,
            run_cycles=run_cycles,
            offchip_bytes=traffic.off_chip_bytes,
            onchip_bytes=traffic.on_chip_bytes,
            reductions=reductions,
            partial_reductions=partials,
            invalidations=self.protocol.stat_invalidations,
            downgrades=self.protocol.stat_downgrades,
            final_values=dict(self.protocol.memory_image) if self.track_values else None,
            params=dict(workload.params),
            bytes_by_type=dict(traffic.bytes_by_type),
            link_stats=interconnect.link_report(run_cycles),
        )


def simulate(
    workload: ColumnarTrace,
    config: SystemConfig,
    protocol: str = "MESI",
    *,
    track_values: bool = True,
) -> SimulationResult:
    """Convenience wrapper: build the protocol engine and run the workload."""
    engine = make_protocol(protocol, config, track_values=track_values)
    simulator = MulticoreSimulator(config, engine, track_values=track_values)
    return simulator.run(workload)


def compare_protocols(
    workload_factory: Callable[[int], ColumnarTrace],
    config: SystemConfig,
    protocols: Sequence[str] = ("MESI", "COUP"),
    *,
    track_values: bool = False,
    share_trace: bool = True,
) -> Dict[str, SimulationResult]:
    """Run the same workload under several protocols.

    The factory receives the core count and is called once: trace generation
    is deterministic and the simulator never mutates a trace, so the one
    materialized trace is shared across every protocol (the equivalence
    suite pins that results are bit-identical to per-protocol regeneration).
    ``share_trace=False`` restores the old regenerate-per-protocol behavior,
    which only matters for diagnosing a workload whose generation has become
    nondeterministic.
    """
    results: Dict[str, SimulationResult] = {}
    workload = workload_factory(config.n_cores) if share_trace else None
    for protocol in protocols:
        trace = workload if share_trace else workload_factory(config.n_cores)
        results[protocol] = simulate(
            trace, config, protocol, track_values=track_values
        )
    return results
