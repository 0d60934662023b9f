"""Tests for the interconnect model and message catalogue."""

from __future__ import annotations

import pytest

from repro.interconnect.messages import (
    LinkScope,
    MessageClass,
    MessageEvent,
    MessageType,
    total_bytes,
)
from repro.interconnect.network import InterconnectModel, TrafficCounters
from repro.sim.config import NetworkConfig, table1_config


class TestMessageCatalogue:
    def test_control_and_data_sizes(self):
        network = NetworkConfig()
        assert MessageType.GET_SHARED.size_bytes(network) == 8
        assert MessageType.INVALIDATE.size_bytes(network) == 8
        assert MessageType.DATA_RESPONSE.size_bytes(network) == 72
        assert MessageType.PARTIAL_UPDATE.size_bytes(network) == 72

    def test_every_type_has_a_class(self):
        for msg_type in MessageType:
            assert msg_type.msg_class in (MessageClass.CONTROL, MessageClass.DATA)
            assert msg_type.label

    def test_total_bytes(self):
        network = NetworkConfig()
        events = [
            MessageEvent(MessageType.GET_SHARED, LinkScope.ON_CHIP, count=2),
            MessageEvent(MessageType.DATA_RESPONSE, LinkScope.OFF_CHIP),
        ]
        assert total_bytes(events, network) == 2 * 8 + 72


class TestInterconnectModel:
    def test_latency_helpers(self):
        model = InterconnectModel(table1_config(32))
        assert model.offchip_round_trip() == 80
        assert model.offchip_one_way() == 40
        assert model.onchip_hop_latency() == 3
        assert model.cross_socket_latency() == 80

    def test_traffic_accounting_by_scope(self):
        model = InterconnectModel(table1_config(32))
        model.record_one(MessageType.GET_SHARED, LinkScope.ON_CHIP)
        model.record_one(MessageType.DATA_RESPONSE, LinkScope.OFF_CHIP, count=3)
        assert model.traffic.on_chip_bytes == 8
        assert model.traffic.off_chip_bytes == 3 * 72
        assert model.traffic.total_bytes == 8 + 216
        assert model.traffic.messages_by_type["Data"] == 3

    def test_reset(self):
        model = InterconnectModel(table1_config(16))
        model.record_one(MessageType.ACK, LinkScope.ON_CHIP)
        model.reset()
        assert model.traffic.total_bytes == 0

    def test_sharer_chips(self):
        config = table1_config(64)
        model = InterconnectModel(config)
        assert model.sharer_chips([0, 1, 15]) == [0]
        assert model.sharer_chips([0, 16, 48]) == [0, 1, 3]
        assert model.is_offchip(0, 1)
        assert not model.is_offchip(2, 2)

    def test_counters_get_independent_default_dicts(self):
        """The dataclass defaults must be per-instance factories, not None."""
        a = TrafficCounters()
        b = TrafficCounters()
        assert a.messages_by_type == {} and a.bytes_by_type == {}
        a.messages_by_type["Data"] += 1  # defaultdict semantics preserved
        a.bytes_by_type["Data"] += 72
        assert b.messages_by_type == {} and b.bytes_by_type == {}
        # Annotated type is honest now: instantiation never yields None.
        assert TrafficCounters(on_chip_bytes=1).messages_by_type is not None

    def test_counters_merge(self):
        a = TrafficCounters(on_chip_bytes=10, off_chip_bytes=20)
        b = TrafficCounters(on_chip_bytes=1, off_chip_bytes=2)
        b.messages_by_type["Data"] = 4
        a.merge(b)
        assert a.on_chip_bytes == 11
        assert a.off_chip_bytes == 22
        assert a.messages_by_type["Data"] == 4
        assert a.as_dict()["total_bytes"] == 33


class TestNetworkSummary:
    def test_hierarchy_summary_matches_simulation_traffic(self):
        from repro.sim.config import small_test_config
        from repro.sim.simulator import MulticoreSimulator, make_protocol
        from repro.workloads.synthetic import SharedCounterWorkload

        config = small_test_config(4)
        engine = make_protocol("MESI", config, track_values=False)
        simulator = MulticoreSimulator(config, engine, track_values=False)
        result = simulator.run(SharedCounterWorkload(updates_per_core=50).generate_columnar(4))
        summary = engine.hierarchy.network_summary()
        assert summary["topology"] == "dancehall"
        assert summary["contention"] is False
        assert summary["off_chip_bytes"] == result.offchip_bytes
        assert summary["on_chip_bytes"] == result.onchip_bytes
        assert summary["bytes_by_type"] == result.bytes_by_type
