"""Tests for the reference-counting and synthetic microbenchmark workloads."""

from __future__ import annotations

import pytest

from repro.sim.access import AccessType
from repro.sim.config import small_test_config
from repro.sim.simulator import simulate
from repro.workloads import (
    CountMode,
    DelayedRefcountWorkload,
    FalseSharingWorkload,
    ImmediateRefcountWorkload,
    InterleavedReadUpdateWorkload,
    MixedOpWorkload,
    MultiCounterWorkload,
    ReadOnlyWorkload,
    RefcountScheme,
    ScalarReductionWorkload,
    SharedCounterWorkload,
    UpdateStyle,
)


class TestImmediateRefcount:
    def test_coup_variant_uses_commutative_updates(self):
        trace = ImmediateRefcountWorkload(
            n_counters=32, updates_per_thread=50, scheme=RefcountScheme.COUP
        ).generate_columnar(2)
        types = {a.access_type for t in trace.to_workload().per_core for a in t}
        assert AccessType.COMMUTATIVE_UPDATE in types
        assert AccessType.LOAD in types  # decrement-and-read reads the counter

    def test_xadd_variant_uses_atomics(self):
        trace = ImmediateRefcountWorkload(
            n_counters=32, updates_per_thread=50, scheme=RefcountScheme.XADD
        ).generate_columnar(2)
        types = {a.access_type for t in trace.to_workload().per_core for a in t}
        assert AccessType.ATOMIC_RMW in types

    def test_snzi_variant_touches_tree_nodes(self):
        flat = ImmediateRefcountWorkload(
            n_counters=8, updates_per_thread=60, scheme=RefcountScheme.XADD
        ).generate_columnar(4)
        snzi = ImmediateRefcountWorkload(
            n_counters=8, updates_per_thread=60, scheme=RefcountScheme.SNZI
        ).generate_columnar(4)
        flat_addresses = {a.address for t in flat.to_workload().per_core for a in t}
        snzi_addresses = {a.address for t in snzi.to_workload().per_core for a in t}
        # SNZI spreads updates over a tree, so it touches more distinct lines.
        assert len(snzi_addresses) > len(flat_addresses)

    def test_low_count_alternates_increment_decrement(self):
        workload = ImmediateRefcountWorkload(
            n_counters=4, updates_per_thread=100, scheme=RefcountScheme.XADD,
            count_mode=CountMode.LOW,
        )
        trace = workload.generate_columnar(1)
        values = [
            a.value
            for t in trace.to_workload().per_core
            for a in t
            if a.access_type is AccessType.ATOMIC_RMW
        ]
        # In low-count mode each thread holds at most one reference, so the
        # net sum per counter can only be 0 or 1; overall sum is bounded by
        # the number of counters.
        assert abs(sum(values)) <= 4

    def test_refcache_not_valid_for_immediate(self):
        with pytest.raises(ValueError):
            ImmediateRefcountWorkload(scheme=RefcountScheme.REFCACHE)

    def test_runs_under_simulation(self):
        workload = ImmediateRefcountWorkload(
            n_counters=16, updates_per_thread=40, scheme=RefcountScheme.COUP
        )
        result = simulate(workload.generate_columnar(4), small_test_config(4), "COUP")
        assert result.total_accesses > 0


class TestDelayedRefcount:
    def test_coup_variant_uses_counters_and_bitmap(self):
        workload = DelayedRefcountWorkload(
            n_counters=64, updates_per_epoch=20, n_epochs=2, scheme=RefcountScheme.COUP
        )
        trace = workload.generate_columnar(2)
        assert len(trace.phase_boundaries) == 4  # update + check per epoch
        comm = [
            a
            for t in trace.to_workload().per_core
            for a in t
            if a.access_type is AccessType.COMMUTATIVE_UPDATE
        ]
        ops = {a.op.value for a in comm}
        assert ops == {"add_i64", "or_64"}

    def test_refcache_variant_flushes_at_epoch_end(self):
        workload = DelayedRefcountWorkload(
            n_counters=64, updates_per_epoch=20, n_epochs=1, scheme=RefcountScheme.REFCACHE
        )
        trace = workload.generate_columnar(2)
        atomics = [
            a for t in trace.to_workload().per_core for a in t if a.access_type is AccessType.ATOMIC_RMW
        ]
        assert atomics, "the flush phase applies deltas with atomics"

    def test_only_coup_and_refcache_supported(self):
        with pytest.raises(ValueError):
            DelayedRefcountWorkload(scheme=RefcountScheme.XADD)


class TestSyntheticWorkloads:
    def test_shared_counter_expected_total(self):
        workload = SharedCounterWorkload(updates_per_core=25)
        result = simulate(workload.generate_columnar(4), small_test_config(4), "COUP")
        assert result.final_values[workload.counter_address] == workload.expected_total(4)

    def test_multi_counter_spreads_updates(self):
        workload = MultiCounterWorkload(n_counters=16, updates_per_core=64)
        result = simulate(workload.generate_columnar(2), small_test_config(2), "COUP")
        total = sum(
            result.final_values.get(workload.counter_address(i), 0) for i in range(16)
        )
        assert total == workload.expected_total(2)

    def test_hot_fraction_concentrates_on_counter_zero(self):
        workload = MultiCounterWorkload(n_counters=64, updates_per_core=200, hot_fraction=0.9)
        result = simulate(workload.generate_columnar(2), small_test_config(2), "COUP")
        hot = result.final_values.get(workload.counter_address(0), 0)
        assert hot > 0.7 * workload.expected_total(2)

    def test_false_sharing_words_on_one_line(self):
        workload = FalseSharingWorkload(updates_per_core=10)
        addresses = {workload.word_address(core) for core in range(4)}
        lines = {address // 64 for address in addresses}
        assert len(lines) == 1

    def test_scalar_reduction_single_update_per_core(self):
        workload = ScalarReductionWorkload(items_per_core=50)
        trace = workload.generate_columnar(4)
        updates = sum(
            1
            for t in trace.to_workload().per_core
            for a in t
            if a.access_type is AccessType.COMMUTATIVE_UPDATE
        )
        assert updates == 4

    def test_read_only_has_no_updates(self):
        trace = ReadOnlyWorkload(n_elements=8, reads_per_core=20).generate_columnar(2)
        assert all(
            a.access_type is AccessType.LOAD for t in trace.to_workload().per_core for a in t
        )

    def test_interleaved_ratio(self):
        workload = InterleavedReadUpdateWorkload(updates_per_read=3, rounds=10)
        trace = workload.generate_columnar(2)
        loads = sum(1 for t in trace.to_workload().per_core for a in t if a.access_type is AccessType.LOAD)
        updates = sum(
            1
            for t in trace.to_workload().per_core
            for a in t
            if a.access_type is AccessType.COMMUTATIVE_UPDATE
        )
        assert loads == 20
        assert updates == 60

    def test_mixed_ops_switch_types(self):
        workload = MixedOpWorkload(updates_per_core=40, switch_every=5)
        result = simulate(workload.generate_columnar(2), small_test_config(2), "COUP")
        assert result.reductions > 0  # type switches force full reductions

    def test_update_style_propagates(self):
        trace = SharedCounterWorkload(
            updates_per_core=5, update_style=UpdateStyle.REMOTE
        ).generate_columnar(2)
        types = {a.access_type for t in trace.to_workload().per_core for a in t if a.access_type.is_update}
        assert types == {AccessType.REMOTE_UPDATE}
