"""Tests for the software baseline models: privatization, SNZI, Refcache."""

from __future__ import annotations

import numpy as np

from repro.core.commutative import CommutativeOp
from repro.sim.access import AccessType
from repro.sim.columnar import CODE_ACCESS_TYPE, ColumnBuilder
from repro.software.privatization import (
    PrivatizationLevel,
    PrivatizedReductionBuilder,
    PrivatizedReductionPlan,
    socket_of_core,
)
from repro.software.refcache import RefcacheConfig, RefcacheThreadCache
from repro.software.snzi import SnziTree
from repro.workloads.base import AddressMap


def _types(columns) -> list:
    """Access type of every record of a packed column."""
    return [CODE_ACCESS_TYPE[code] for code in columns["type_code"]]


def _emitted(emit) -> np.ndarray:
    """The packed column one SNZI/Refcache operation appends."""
    builder = ColumnBuilder()
    emit(builder)
    return builder.build()


class TestPrivatization:
    def _plan(self, level, n_replicas):
        return PrivatizedReductionPlan(
            n_elements=8,
            element_bytes=8,
            op=CommutativeOp.ADD_I64,
            level=level,
            n_replicas=n_replicas,
        )

    def test_footprint_scales_with_replicas(self):
        core_plan = self._plan(PrivatizationLevel.CORE, 16)
        socket_plan = self._plan(PrivatizationLevel.SOCKET, 2)
        assert core_plan.footprint_bytes == 8 * 8 * 16
        assert core_plan.footprint_bytes > socket_plan.footprint_bytes

    def test_core_level_update_phase_uses_plain_accesses(self):
        plan = self._plan(PrivatizationLevel.CORE, 2)
        builder = PrivatizedReductionBuilder(plan, AddressMap())
        trace = builder.update_phase(0, np.array([1, 2]), 1, 5)
        assert _types(trace) == [AccessType.LOAD, AccessType.STORE] * 2

    def test_socket_level_update_phase_uses_atomics(self):
        plan = self._plan(PrivatizationLevel.SOCKET, 2)
        builder = PrivatizedReductionBuilder(
            plan, AddressMap(), replica_of_core=socket_of_core(2)
        )
        trace = builder.update_phase(0, np.array([1]), 1, 5)
        assert _types(trace) == [AccessType.ATOMIC_RMW]

    def test_replicas_have_disjoint_addresses(self):
        plan = self._plan(PrivatizationLevel.CORE, 2)
        builder = PrivatizedReductionBuilder(plan, AddressMap())
        core0 = set(builder.update_phase(0, np.arange(8), 1, 0)["address"].tolist())
        core1 = set(builder.update_phase(1, np.arange(8), 1, 0)["address"].tolist())
        assert not core0 & core1

    def test_reduction_phase_reads_every_replica(self):
        plan = self._plan(PrivatizationLevel.CORE, 4)
        builder = PrivatizedReductionBuilder(plan, AddressMap())
        trace = builder.reduction_phase(0, n_cores=4)
        # Core 0 owns 2 of the 8 elements: per element, 4 replica reads and
        # then the store of the combined value.
        assert _types(trace) == ([AccessType.LOAD] * 4 + [AccessType.STORE]) * 2

    def test_core_without_elements_allocates_nothing(self):
        plan = self._plan(PrivatizationLevel.CORE, 4)
        addresses = AddressMap()
        builder = PrivatizedReductionBuilder(plan, addresses)
        assert not len(builder.reduction_phase(0, n_cores=16))
        assert not len(builder.update_phase(0, np.array([], dtype=np.int64), 1, 0))
        assert addresses.region("probe") == AddressMap().region("probe")

    def test_socket_of_core(self):
        socket = socket_of_core(16)
        assert socket(0) == 0
        assert socket(15) == 0
        assert socket(16) == 1


class TestSnzi:
    def test_arrive_depart_track_surplus(self):
        tree = SnziTree(AddressMap(), object_id=0, n_threads=4)
        first = _emitted(lambda out: tree.arrive(0, out))
        assert len(first) >= 2  # leaf plus propagation to ancestors
        second = _emitted(lambda out: tree.arrive(0, out))
        assert len(second) == 1  # surplus already positive, no propagation
        depart = _emitted(lambda out: tree.depart(0, out))
        assert len(depart) == 1
        last = _emitted(lambda out: tree.depart(0, out))
        assert len(last) >= 2  # surplus hits zero, propagates upward
        assert last["value_delta"].tolist() == [-1] * len(last)

    def test_extra_think_charged_to_first_access(self):
        tree = SnziTree(AddressMap(), object_id=0, n_threads=4)
        arrive = _emitted(lambda out: tree.arrive(0, out, think=15))
        assert arrive["compute_gap"].tolist() == [19] + [4] * (len(arrive) - 1)

    def test_query_reads_root_only(self):
        tree = SnziTree(AddressMap(), object_id=0, n_threads=8)
        query = _emitted(lambda out: tree.query(3, out))
        assert _types(query) == [AccessType.LOAD]

    def test_threads_use_distinct_leaves(self):
        tree = SnziTree(AddressMap(), object_id=0, n_threads=4)
        leaf0 = _emitted(lambda out: tree.arrive(0, out))["address"][0]
        leaf1 = _emitted(lambda out: tree.arrive(1, out))["address"][0]
        assert leaf0 != leaf1

    def test_footprint_grows_with_threads(self):
        small = SnziTree(AddressMap(), 0, n_threads=2)
        large = SnziTree(AddressMap(), 0, n_threads=16)
        assert large.footprint_bytes > small.footprint_bytes


class TestRefcache:
    def test_update_probes_hash_slot(self):
        cache = RefcacheThreadCache(AddressMap(), thread_id=0)
        trace = _emitted(lambda out: cache.update(7, 1, out))
        assert _types(trace) == [AccessType.LOAD, AccessType.STORE]
        assert cache.deltas[7] == 1

    def test_updates_coalesce_in_cache(self):
        cache = RefcacheThreadCache(AddressMap(), thread_id=0)
        out = ColumnBuilder()
        cache.update(7, 1, out)
        cache.update(7, 1, out)
        cache.update(7, -1, out)
        assert cache.deltas[7] == 1

    def test_flush_applies_deltas_with_atomics_and_clears(self):
        addresses = AddressMap()
        cache = RefcacheThreadCache(addresses, thread_id=0)
        out = ColumnBuilder()
        cache.update(1, 1, out)
        cache.update(2, -1, out)
        flush = _emitted(
            lambda out: cache.flush(lambda c: addresses.element("counters", c, 8), out)
        )
        assert _types(flush) == [AccessType.LOAD, AccessType.ATOMIC_RMW] * 2
        assert flush["value_delta"][1::2].tolist() == [1, -1]
        assert not cache.deltas

    def test_footprint(self):
        cache = RefcacheThreadCache(AddressMap(), 0, RefcacheConfig(n_slots=128, slot_bytes=16))
        assert cache.footprint_bytes == 2048
