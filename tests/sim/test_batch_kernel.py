"""Batched-kernel equivalence: batch-boundary grids and dispatch.

The batched columnar kernel (:mod:`repro.sim.kernel`) must leave results
bit-identical to a run that never enters it (``REPRO_SIM_KERNEL=scalar``,
the retire loop alone) for every chunking of the trace: window edges,
single-access windows, and windows longer than the trace all exercise
different interleavings of hit-run application and retire-loop stretches.
``SimulationResult.to_jsonable()`` is compared verbatim (it covers run
cycles, per-core statistics, traffic, and the functional memory image).
"""

from __future__ import annotations

import dataclasses
import itertools
import time

import pytest

import repro.obs as obs
from repro.hierarchy.cache import STATE_EXCLUSIVE, STATE_MODIFIED, TagArray
from repro.sim import table1_config
from repro.sim.columnar import NO_OP_INDEX, ColumnarTrace
from repro.sim.config import small_test_config
import repro.sim.kernel as kernel_module
from repro.sim.kernel import BatchedKernel, kernel_mode
from repro.sim.simulator import MulticoreSimulator, make_protocol, simulate
from repro.workloads.base import UpdateStyle
from repro.workloads.histogram import HistogramWorkload
from repro.workloads.pagerank import PageRankWorkload
from repro.workloads.synthetic import (
    MultiCounterWorkload,
    ReadOnlyWorkload,
    ScalarReductionWorkload,
    SharedCounterWorkload,
)

N_CORES = 8

PROTOCOLS = ("MESI", "COUP", "RMO")

#: At least three workloads spanning load/store/atomic/commutative/remote
#: traffic, phase barriers (scalar reduction), and U-state buffering.
WORKLOADS = {
    "hist": lambda: HistogramWorkload(
        n_bins=32, n_items=400, update_style=UpdateStyle.COMMUTATIVE
    ),
    "multi-counter": lambda: MultiCounterWorkload(
        n_counters=32, updates_per_core=150, hot_fraction=0.3
    ),
    "scalar-reduction": lambda: ScalarReductionWorkload(items_per_core=200),
    "shared-counter-remote": lambda: SharedCounterWorkload(
        updates_per_core=120, update_style=UpdateStyle.REMOTE
    ),
}


def _simulate(trace, protocol, monkeypatch, mode, chunk=None):
    monkeypatch.setenv("REPRO_SIM_KERNEL", mode)
    if chunk is not None:
        monkeypatch.setattr(kernel_module, "BATCH_SIZE", chunk)
    config = small_test_config(N_CORES)
    return simulate(trace, config, protocol, track_values=True)


def _counted(run):
    """``run()`` under ``REPRO_OBS=counters``; (its result, the counters)."""
    registry = obs.reconfigure("counters")
    try:
        result = run()
    finally:
        obs.reconfigure()
    return result, registry.snapshot()["counters"]


def _columnar(factory) -> ColumnarTrace:
    return factory().generate_columnar(N_CORES)


@pytest.fixture(scope="module")
def traces():
    return {name: _columnar(factory) for name, factory in WORKLOADS.items()}


@pytest.fixture(scope="module")
def scalar_results(traces):
    import os

    previous = os.environ.get("REPRO_SIM_KERNEL")
    os.environ["REPRO_SIM_KERNEL"] = "scalar"
    try:
        results = {}
        for name, trace in traces.items():
            for protocol in PROTOCOLS:
                config = small_test_config(N_CORES)
                results[(name, protocol)] = simulate(
                    trace, config, protocol, track_values=True
                ).to_jsonable()
        return results
    finally:
        if previous is None:
            del os.environ["REPRO_SIM_KERNEL"]
        else:
            os.environ["REPRO_SIM_KERNEL"] = previous


def _chunk_sizes(trace: ColumnarTrace):
    """Chunk sizes 1, 7, exact trace length, and trace length + 1."""
    trace_len = max(len(column) for column in trace.columns)
    return (1, 7, trace_len, trace_len + 1)


@pytest.fixture(scope="module")
def batch_hits(traces):
    """Kernel hits of each workload under ``batch``, summed over protocols."""
    import os

    previous = os.environ.get("REPRO_SIM_KERNEL")
    os.environ["REPRO_SIM_KERNEL"] = "batch"
    try:
        hits = {}
        for name, trace in traces.items():
            hits[name] = 0
            for protocol in PROTOCOLS:
                config = small_test_config(N_CORES)
                _, counters = _counted(
                    lambda: simulate(trace, config, protocol, track_values=True)
                )
                hits[name] += counters.get("kernel.hits_batched", 0)
        return hits
    finally:
        if previous is None:
            del os.environ["REPRO_SIM_KERNEL"]
        else:
            os.environ["REPRO_SIM_KERNEL"] = previous


@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_batched_bit_identical_across_chunk_sizes(
    workload_name, protocol, traces, scalar_results, batch_hits, monkeypatch
):
    """Forced-batch runs match the scalar path for every chunk boundary."""
    # ``batch`` keeps the kernel under test: the workload's runs batch hits.
    assert batch_hits[workload_name] > 0
    trace = traces[workload_name]
    reference = scalar_results[(workload_name, protocol)]
    for chunk in _chunk_sizes(trace):
        result = _simulate(trace, protocol, monkeypatch, "batch", chunk=chunk)
        assert result.to_jsonable() == reference, (
            f"{workload_name}/{protocol} diverges at BATCH_SIZE={chunk}"
        )


@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_auto_mode_bit_identical(
    workload_name, protocol, traces, scalar_results, monkeypatch
):
    """The default auto mode (hand-backs both ways) matches too."""
    trace = traces[workload_name]
    result = _simulate(trace, protocol, monkeypatch, "auto")
    assert result.to_jsonable() == scalar_results[(workload_name, protocol)]


def test_non_dyadic_config_uses_fold_pipeline(monkeypatch):
    """A non-dyadic CPI forces the sequential-fold path; results still match."""
    config = small_test_config(4)
    config = dataclasses.replace(
        config, core=dataclasses.replace(config.core, cycles_per_instruction=0.3)
    )
    trace = HistogramWorkload(
        n_bins=16, n_items=200, update_style=UpdateStyle.COMMUTATIVE
    ).generate_columnar(4)

    monkeypatch.setenv("REPRO_SIM_KERNEL", "scalar")
    reference = simulate(trace, config, "COUP", track_values=True)

    monkeypatch.setenv("REPRO_SIM_KERNEL", "batch")
    engine = make_protocol("COUP", config, track_values=True)
    simulator = MulticoreSimulator(config, engine, track_values=True)
    kernel = BatchedKernel(simulator, trace, [])
    assert not kernel._exact  # 0.3 is not a dyadic rational
    batched = simulator.run(trace)
    assert batched.to_jsonable() == reference.to_jsonable()


#: Pinned auto-mode dispatch of two 16-core Table 1 points: (kernel stints,
#: hits the kernel batched, accesses the retire loop retired).
DISPATCH_POINTS = {
    "pgrank/MESI": (
        lambda: PageRankWorkload(
            n_vertices=512, avg_degree=6, n_iterations=2,
            update_style=UpdateStyle.ATOMIC, seed=0,
        ),
        "MESI",
        (1, 0, 15292),
    ),
    "read-only/MESI": (
        lambda: ReadOnlyWorkload(n_elements=256, reads_per_core=2000, seed=0),
        "MESI",
        (2, 25300, 6700),
    ),
}


def _dispatch(counters) -> tuple:
    return (
        counters.get("kernel.stints", 0),
        counters.get("kernel.hits_batched", 0),
        counters.get("retire.accesses", 0),
    )


@pytest.mark.parametrize("point", sorted(DISPATCH_POINTS))
def test_dispatch_is_a_function_of_trace_and_config(point, monkeypatch):
    """Which path runs, and where it switches, never depends on the host.

    The split is pinned for a slow-dense point (pgrank) and a hit-run point
    (read-only), then replayed with a host clock that jumps a full second on
    every read: a dispatch rule that sampled wall-clock would move.
    """
    factory, protocol, expected = DISPATCH_POINTS[point]
    trace = factory().generate_columnar(16)
    config = table1_config(16)
    monkeypatch.setenv("REPRO_SIM_KERNEL", "auto")
    result, counters = _counted(lambda: simulate(trace, config, protocol))
    reference = result.to_jsonable()
    stints, hits, retired = _dispatch(counters)
    assert hits + retired == trace.total_accesses
    assert (stints, hits, retired) == expected

    ticks = itertools.count()
    monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))
    monkeypatch.setattr(time, "monotonic", lambda: float(next(ticks)))
    result, counters = _counted(lambda: simulate(trace, config, protocol))
    assert result.to_jsonable() == reference
    assert _dispatch(counters) == expected


def test_env_knob_parsing(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_KERNEL", "BATCH")
    assert kernel_mode() == "batch"
    monkeypatch.delenv("REPRO_SIM_KERNEL", raising=False)
    assert kernel_mode() == "auto"
    # A typo must not silently select (and time) a different path.
    monkeypatch.setenv("REPRO_SIM_KERNEL", "scaler")
    with pytest.raises(ValueError, match="REPRO_SIM_KERNEL.*auto \\| batch \\| scalar"):
        kernel_mode()


class TestTagArray:
    """The flat L1 mirror used by the kernel's vectorized classification."""

    def _config(self):
        return small_test_config(2).l1d

    def test_rebuild_sets_membership(self):
        # The kernel rebuilds the mirror on every entry: clear, then fill.
        config = self._config()
        tags = TagArray(config)
        num_sets = config.num_sets
        first, second = num_sets, 2 * num_sets  # both map to set 0
        tags.fill_way(0, 0, first, STATE_EXCLUSIVE, NO_OP_INDEX)
        tags.fill_way(0, 1, second, STATE_MODIFIED, NO_OP_INDEX)
        assert sorted(tags.tags[0][:2].tolist()) == [first, second]
        assert tags.state[0][:2].tolist() == [STATE_EXCLUSIVE, STATE_MODIFIED]
        tags.clear()
        assert not (tags.tags == first).any()
        assert not tags.state.any()
        assert (tags.uop == NO_OP_INDEX).all()
