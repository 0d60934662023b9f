"""``resolve_slow`` and the retire loop run one transaction implementation.

``resolve_slow`` and the simulator's retire loop (``resolve_slow_batch``)
call the same MESI-family transaction shapes, and both charge every off-chip
latency through the engine's hooks (``_l4_rt`` / ``_l4_control_rt`` /
``_chip_rt``), read at call time.  Two consequences are pinned here:

* rebinding the hooks after construction reprices every kernel mode alike
  (a path reading the raw latency tables diverges);
* runs with the epoch contention model enabled, whose hooks mutate queueing
  state per call, are bit-identical across kernel modes.
"""

from __future__ import annotations

import pytest

import repro.obs as obs
from repro.obs import events
from repro.sim.config import TopologyConfig, table1_config
from repro.sim.simulator import MulticoreSimulator, make_protocol
from repro.workloads.base import UpdateStyle
from repro.workloads.histogram import HistogramWorkload
from repro.workloads.pagerank import PageRankWorkload

STYLES = {"MESI": UpdateStyle.ATOMIC, "COUP": UpdateStyle.COMMUTATIVE}

WORKLOADS = {
    "hist": lambda style: HistogramWorkload(n_bins=64, n_items=3000, update_style=style),
    "pgrank": lambda style: PageRankWorkload(
        n_vertices=256, avg_degree=6, n_iterations=2, update_style=style
    ),
}


def _run(trace, config, protocol, monkeypatch, mode, *, rebind=False):
    monkeypatch.setenv("REPRO_SIM_KERNEL", mode)
    engine = make_protocol(protocol, config, track_values=True)
    if rebind:
        # Constants that differ from every table entry (80 under the
        # Table 1 dancehall; 0 on the chip-transfer diagonal).
        engine._l4_rt = lambda chip, l4, line_addr, now: 37
        engine._l4_control_rt = lambda chip, l4, line_addr, now: 41
        engine._chip_rt = lambda src, dst, now: 23
    return MulticoreSimulator(config, engine, track_values=True).run(trace).to_jsonable()


@pytest.mark.parametrize("n_cores", (16, 32))
def test_merge_charges_through_rebound_hooks(n_cores, monkeypatch):
    """hist/MESI: batch equals scalar under hooks rebound to constants."""
    trace = WORKLOADS["hist"](UpdateStyle.ATOMIC).generate_columnar(n_cores)
    config = table1_config(n_cores)
    scalar = _run(trace, config, "MESI", monkeypatch, "scalar", rebind=True)
    assert scalar != _run(trace, config, "MESI", monkeypatch, "scalar"), (
        "the rebound hooks must change the result, or the check is vacuous"
    )
    assert _run(trace, config, "MESI", monkeypatch, "batch", rebind=True) == scalar


@pytest.fixture
def counters_obs(monkeypatch):
    """``REPRO_OBS=counters`` for one test; telemetry is off again afterwards."""
    monkeypatch.setenv("REPRO_OBS", "counters")
    monkeypatch.delenv("REPRO_OBS_DIR", raising=False)
    obs.reconfigure()
    yield
    monkeypatch.delenv("REPRO_OBS")
    events.reset_process_writer()
    obs.reconfigure()


@pytest.mark.parametrize("protocol", sorted(STYLES))
@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_contention_runs_merge_bit_identically(
    workload_name, protocol, monkeypatch, counters_obs
):
    """Contention-enabled dancehall: batch and auto match scalar."""
    n_cores = 32
    trace = WORKLOADS[workload_name](STYLES[protocol]).generate_columnar(n_cores)
    config = table1_config(
        n_cores, topology=TopologyConfig(name="dancehall", contention=True)
    )
    scalar = _run(trace, config, protocol, monkeypatch, "scalar")
    for mode in ("batch", "auto"):
        obs.reconfigure()
        registry = obs.get_registry()
        assert registry is not None
        assert _run(trace, config, protocol, monkeypatch, mode) == scalar, mode
        counters = registry.snapshot()["counters"]
        assert counters.get("retire.accesses", 0) > 0, f"{mode}: the retire loop never ran"
