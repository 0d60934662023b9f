"""Contention model limits and end-to-end AMAT behaviour under load.

Pins the two limits the epoch queueing model is anchored on — zero load
means zero surcharge, and the surcharge grows monotonically as utilization
approaches 1 — plus the end-to-end acceptance property: with contention
enabled, measured AMAT increases monotonically with injected load (here:
shrinking link bandwidth) on every topology, and the dancehall/no-contention
configuration stays bit-identical to the default machine.
"""

from __future__ import annotations

import pytest

from repro.interconnect.contention import ContentionModel
from repro.interconnect.network import InterconnectModel
from repro.sim.config import (
    TOPOLOGY_NAMES,
    CacheConfig,
    SystemConfig,
    TopologyConfig,
    small_test_config,
    table1_config,
)
from repro.sim.simulator import simulate
from repro.workloads.base import UpdateStyle
from repro.workloads.synthetic import MultiCounterWorkload, SharedCounterWorkload


def contended_model(
    name: str = "dancehall", n_cores: int = 32, **overrides
) -> ContentionModel:
    config = table1_config(n_cores).with_topology(
        TopologyConfig(name=name, contention=True, **overrides)
    )
    model = InterconnectModel(config)
    assert model.contention is not None
    return model.contention


class TestQueueingLimits:
    def test_zero_load_zero_surcharge(self):
        """An idle network charges exactly the base topology latency."""
        contention = contended_model()
        base = contention._base_l4_rt[0][1]
        assert contention.l4_round_trip(0, 1, line_addr=17, now=0.0) == base
        # The very first transfer of an epoch sees no prior-epoch load either.
        assert contention.chip_transfer(0, 1, now=0.0) == contention._base_chip[0][1]

    def test_surcharge_appears_only_after_a_loaded_epoch(self):
        contention = contended_model(epoch_cycles=100)
        base = contention._base_l4_rt[0][1]
        # Load epoch 0 heavily; epoch 0 transfers still pay no surcharge
        # (their basis — the previous epoch — was idle).
        for _ in range(200):
            assert contention.l4_round_trip(0, 1, line_addr=3, now=10.0) == base
        # Epoch 1 transfers queue behind epoch 0's occupancy.
        assert contention.l4_round_trip(0, 1, line_addr=3, now=110.0) > base

    def test_surcharge_monotone_in_utilization(self):
        """Higher previous-epoch occupancy => strictly larger surcharge."""
        surcharges = []
        for transfers in (1, 10, 50, 200, 1000):
            contention = contended_model(epoch_cycles=1000)
            for _ in range(transfers):
                contention.l4_round_trip(0, 1, line_addr=3, now=0.0)
            loaded = contention.l4_round_trip(0, 1, line_addr=3, now=1000.0)
            surcharges.append(loaded - contention._base_l4_rt[0][1])
        assert surcharges[0] > 0.0
        assert surcharges == sorted(surcharges)
        assert len(set(surcharges)) == len(surcharges)  # strictly increasing

    def test_utilization_clamp_keeps_surcharge_finite(self):
        contention = contended_model(epoch_cycles=10, max_utilization=0.9)
        for _ in range(100_000):
            contention.l4_round_trip(0, 1, line_addr=3, now=0.0)
        loaded = contention.l4_round_trip(0, 1, line_addr=3, now=10.0)
        base = contention._base_l4_rt[0][1]
        # rho clamps at 0.9: wait <= service * 0.9 / 0.2 per queue on the path.
        per_queue = contention.link_service * 0.9 / (2 * 0.1)
        bank = contention.bank_service * 0.9 / (2 * 0.1)
        assert base < loaded <= base + 2 * per_queue + bank + 1e-9

    def test_stale_epochs_reset_the_basis(self):
        """Jumping several idle epochs forgets the old load (idle basis)."""
        contention = contended_model(epoch_cycles=100)
        for _ in range(500):
            contention.l4_round_trip(0, 1, line_addr=3, now=0.0)
        base = contention._base_l4_rt[0][1]
        assert contention.l4_round_trip(0, 1, line_addr=3, now=1050.0) == base

    def test_link_report_totals_and_utilization(self):
        contention = contended_model(epoch_cycles=100)
        contention.l4_round_trip(0, 1, line_addr=3, now=0.0)
        report = contention.link_report(run_cycles=1000.0)
        assert report.topology == "dancehall"
        assert report.offchip_transfers == 1
        total_bytes = sum(entry["bytes"] for entry in report.links.values())
        # One control request out, one data response back.
        assert total_bytes == 8 + 72
        for entry in report.links.values():
            assert entry["utilization"] == pytest.approx(
                entry["bytes"] / (contention.bandwidth * 1000.0)
            )
        assert report.max_link_utilization > 0.0

    def test_exchange_kinds_occupy_matching_bytes(self):
        """Each exchange kind charges the bytes its real messages carry."""
        contention = contended_model()
        contention.l4_round_trip(0, 1, line_addr=3, now=0.0)
        by_link = dict(contention.link_bytes_total)
        assert by_link == {("p0", "d1"): 8, ("d1", "p0"): 72}  # request/data

        contention.reset()
        contention.l4_control_round_trip(0, 1, line_addr=3, now=0.0)
        by_link = dict(contention.link_bytes_total)
        assert by_link == {("p0", "d1"): 8, ("d1", "p0"): 8}  # inval/ack

        contention.reset()
        contention.l4_partial_update(0, 1, line_addr=3, now=0.0)
        by_link = dict(contention.link_bytes_total)
        # Reduce request L4 -> chip (control), partial update chip -> L4 (data).
        assert by_link == {("p0", "d1"): 72, ("d1", "p0"): 8}

    def test_reset_clears_everything(self):
        contention = contended_model(epoch_cycles=100)
        contention.l4_round_trip(0, 1, line_addr=3, now=0.0)
        contention.reset()
        assert contention.surcharge_cycles == 0.0
        assert not contention.link_bytes_total
        assert contention.link_report(100.0).offchip_transfers == 0


class TestEndToEnd:
    """Acceptance: AMAT under load, and the disabled path's bit-identity."""

    N_CORES = 8

    def _trace(self):
        workload = SharedCounterWorkload(
            updates_per_core=300, update_style=UpdateStyle.ATOMIC
        )
        return workload.generate_columnar(self.N_CORES)

    def _config(self, **topology_kwargs):
        return small_test_config(self.N_CORES).with_topology(
            TopologyConfig(**topology_kwargs)
        )

    def test_dancehall_disabled_is_bit_identical_to_default(self):
        trace = self._trace()
        default = simulate(trace, small_test_config(self.N_CORES), "MESI")
        explicit = simulate(trace, self._config(), "MESI")
        assert explicit == default

    @pytest.mark.parametrize("name", TOPOLOGY_NAMES)
    def test_amat_monotone_in_injected_load(self, name):
        """Shrinking link bandwidth must never *reduce* measured AMAT."""
        trace = self._trace()
        previous = None
        for bandwidth in (1024.0, 64.0, 8.0, 1.0):
            config = self._config(
                name=name,
                contention=True,
                link_bandwidth_bytes_per_cycle=bandwidth,
            )
            result = simulate(trace, config, "MESI")
            assert result.link_stats is not None
            if previous is not None:
                assert result.amat >= previous - 1e-9, (
                    f"{name}: AMAT fell from {previous} to {result.amat} when "
                    f"bandwidth shrank to {bandwidth}"
                )
            previous = result.amat

    @pytest.mark.parametrize("name", TOPOLOGY_NAMES)
    def test_contention_never_speeds_up_a_run(self, name):
        trace = self._trace()
        free = simulate(trace, self._config(name=name), "MESI")
        loaded = simulate(
            trace,
            self._config(name=name, contention=True, link_bandwidth_bytes_per_cycle=2.0),
            "MESI",
        )
        assert loaded.run_cycles >= free.run_cycles
        assert loaded.amat >= free.amat
        assert loaded.link_stats.surcharge_cycles > 0.0

    def test_multi_chip_machine_exercises_multi_hop_routing(self):
        """An 8-chip machine drives real XY/wrap routes end-to-end.

        ``table1_config`` only reaches one chip below 17 cores, so this
        builds a 16-core, 2-cores-per-chip machine: 8 processor + 8 L4
        chips on a full 4x4 grid.  Mesh hops reach 6, so the mesh must run
        measurably slower than the 1-hop crossbar; torus wrap links can
        only shorten paths; and the topology must never change *functional*
        results.
        """
        config = SystemConfig(
            n_cores=16,
            cores_per_chip=2,
            l1d=CacheConfig(size_bytes=1024, ways=2, latency=4),
            l2=CacheConfig(size_bytes=4096, ways=4, latency=7),
            l3=CacheConfig(size_bytes=16 * 1024, ways=4, latency=27, banks=2),
            l4=CacheConfig(size_bytes=64 * 1024, ways=4, latency=35, banks=2),
        )
        workload = MultiCounterWorkload(
            n_counters=64, updates_per_core=150, hot_fraction=0.3
        )
        trace = workload.generate_columnar(16)
        runs = {}
        for name in TOPOLOGY_NAMES:
            topo_config = config.with_topology(TopologyConfig(name=name))
            runs[name] = simulate(trace, topo_config, "MESI", track_values=True)
        # Functional results are latency-independent.
        reference = runs["dancehall"].final_values
        for name, result in runs.items():
            assert result.final_values == reference, name
        # Multi-hop mesh pays for distance; the crossbar reaches any chip
        # in one latency hop; wrap-around can only shorten grid paths.
        assert runs["mesh"].run_cycles > runs["crossbar"].run_cycles
        assert runs["torus"].run_cycles <= runs["mesh"].run_cycles * 1.01
        # With contention on, multi-hop routes occupy intermediate links:
        # the mesh report must show more distinct links than the dancehall's
        # bipartite chip<->L4 pairs that this traffic pattern touches.
        mesh_loaded = simulate(
            trace,
            config.with_topology(TopologyConfig(name="mesh", contention=True)),
            "MESI",
        )
        dance_loaded = simulate(
            trace,
            config.with_topology(TopologyConfig(name="dancehall", contention=True)),
            "MESI",
        )
        assert len(mesh_loaded.link_stats.links) > 0
        assert mesh_loaded.link_stats.surcharge_cycles > 0.0
        assert (
            mesh_loaded.link_stats.links.keys()
            != dance_loaded.link_stats.links.keys()
        )

    def test_link_stats_surface_through_simulation_result(self):
        trace = self._trace()
        result = simulate(
            trace, self._config(name="mesh", contention=True), "COUP"
        )
        stats = result.link_stats
        assert stats is not None and stats.topology == "mesh"
        assert stats.links, "per-link counters missing"
        assert 0.0 <= stats.max_link_utilization <= 1.0
        summary = result.summary()
        assert summary["max_link_utilization"] == stats.max_link_utilization
        assert summary["bytes_by_type"] == result.bytes_by_type
        # The breakdown must be present on ordinary runs too.
        plain = simulate(trace, small_test_config(self.N_CORES), "COUP")
        assert plain.bytes_by_type and plain.link_stats is None
