"""Tests for the PageRank and BFS workloads."""

from __future__ import annotations

import pytest

from repro.core.commutative import CommutativeOp
from repro.sim.access import AccessType
from repro.sim.config import small_test_config
from repro.sim.simulator import simulate
from repro.workloads import BfsWorkload, PageRankWorkload, UpdateStyle


class TestPageRank:
    def test_trace_has_phases_per_iteration(self):
        workload = PageRankWorkload(n_vertices=128, avg_degree=4, n_iterations=2)
        trace = workload.generate_columnar(4)
        # Two phases (scatter, gather) per iteration.
        assert len(trace.phase_boundaries) == 4

    def test_updates_use_int64_add(self):
        workload = PageRankWorkload(n_vertices=64, avg_degree=3, n_iterations=1)
        trace = workload.generate_columnar(2)
        ops = {
            a.op
            for t in trace.to_workload().per_core
            for a in t
            if a.access_type is AccessType.COMMUTATIVE_UPDATE
        }
        assert ops == {CommutativeOp.ADD_I64}

    def test_reference_matches_simulation_single_iteration(self):
        workload = PageRankWorkload(n_vertices=96, avg_degree=3, n_iterations=1)
        reference = workload.reference_result()
        assert reference, "power-law graph must have at least one edge"
        result = simulate(workload.generate_columnar(4), small_test_config(4), "COUP")
        for address, expected in reference.items():
            assert result.final_values.get(address, 0) == expected

    def test_multi_iteration_reference_is_not_defined(self):
        assert PageRankWorkload(n_vertices=32, n_iterations=2).reference_result() is None

    def test_atomic_variant(self):
        trace = PageRankWorkload(
            n_vertices=64, avg_degree=3, n_iterations=1, update_style=UpdateStyle.ATOMIC
        ).generate_columnar(2)
        types = {a.access_type for t in trace.to_workload().per_core for a in t}
        assert AccessType.ATOMIC_RMW in types

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PageRankWorkload(n_vertices=0)


class TestBfs:
    def test_trace_reads_dominate_updates(self):
        """Each vertex is set once but its bit is checked once per in-edge."""
        workload = BfsWorkload(n_vertices=512, avg_degree=6, max_levels=6)
        trace = workload.generate_columnar(4)
        loads = sum(
            1 for t in trace.to_workload().per_core for a in t if a.access_type is AccessType.LOAD
        )
        updates = sum(
            1
            for t in trace.to_workload().per_core
            for a in t
            if a.access_type is AccessType.COMMUTATIVE_UPDATE
        )
        assert updates > 0
        assert loads > updates

    def test_updates_use_or(self):
        workload = BfsWorkload(n_vertices=256, avg_degree=4, max_levels=4)
        trace = workload.generate_columnar(2)
        ops = {
            a.op
            for t in trace.to_workload().per_core
            for a in t
            if a.access_type is AccessType.COMMUTATIVE_UPDATE
        }
        assert ops == {CommutativeOp.OR_64}

    def test_bitmap_reference_matches_simulation(self):
        workload = BfsWorkload(n_vertices=256, avg_degree=4, max_levels=4)
        reference = workload.reference_result()
        result = simulate(workload.generate_columnar(4), small_test_config(4), "COUP")
        for address, expected in reference.items():
            assert result.final_values.get(address, 0) == expected

    def test_visited_set_grows_with_levels(self):
        shallow = BfsWorkload(n_vertices=512, avg_degree=6, max_levels=1)
        deep = BfsWorkload(n_vertices=512, avg_degree=6, max_levels=4)
        bits = lambda wl: sum(bin(v).count("1") for v in wl.reference_result().values())
        assert bits(deep) > bits(shallow)

    def test_phase_boundaries_per_level(self):
        workload = BfsWorkload(n_vertices=256, avg_degree=4, max_levels=3)
        trace = workload.generate_columnar(2)
        assert trace.phase_boundaries is not None
        assert 1 <= len(trace.phase_boundaries) <= 3
