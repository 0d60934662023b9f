"""Tests for the spmv and fluidanimate workloads."""

from __future__ import annotations

import pytest

from repro.core.commutative import CommutativeOp
from repro.sim.access import AccessType
from repro.sim.config import small_test_config
from repro.sim.simulator import simulate
from repro.workloads import FluidanimateWorkload, SpmvWorkload


class TestSpmv:
    def test_updates_are_fp64_adds(self):
        trace = SpmvWorkload(n_rows=64, n_cols=64, nnz_per_col=3).generate_columnar(2)
        ops = {
            a.op
            for t in trace.to_workload().per_core
            for a in t
            if a.access_type is AccessType.COMMUTATIVE_UPDATE
        }
        assert ops == {CommutativeOp.ADD_F64}

    def test_scattered_rows_overlap_between_cores(self):
        """CSC columns owned by different cores must update common rows."""
        workload = SpmvWorkload(n_rows=64, n_cols=256, nnz_per_col=4)
        trace = workload.generate_columnar(4)
        updated_by_core = []
        for core_trace in trace.to_workload().per_core:
            updated_by_core.append(
                {
                    a.address
                    for a in core_trace
                    if a.access_type is AccessType.COMMUTATIVE_UPDATE
                }
            )
        overlap = updated_by_core[0] & updated_by_core[1]
        assert overlap, "adjacent cores should share output-vector elements"

    def test_reference_matches_simulation(self):
        workload = SpmvWorkload(n_rows=48, n_cols=48, nnz_per_col=3)
        reference = workload.reference_result()
        result = simulate(workload.generate_columnar(4), small_test_config(4), "COUP")
        for address, expected in reference.items():
            assert result.final_values.get(address, 0) == pytest.approx(expected)

    def test_column_count_controls_trace_size(self):
        small = SpmvWorkload(n_rows=32, n_cols=32, nnz_per_col=3).generate_columnar(2)
        large = SpmvWorkload(n_rows=32, n_cols=128, nnz_per_col=3).generate_columnar(2)
        assert large.total_accesses > small.total_accesses

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SpmvWorkload(n_rows=0, n_cols=8)


class TestFluidanimate:
    def test_boundary_cells_are_shared_between_neighbouring_cores(self):
        workload = FluidanimateWorkload(grid_x=8, grid_y=32, n_steps=1)
        trace = workload.generate_columnar(4)
        updated_by_core = []
        for core_trace in trace.to_workload().per_core:
            updated_by_core.append(
                {
                    a.address
                    for a in core_trace
                    if a.access_type is AccessType.COMMUTATIVE_UPDATE
                }
            )
        assert updated_by_core[0] & updated_by_core[1]
        # Cores that are not neighbours share nothing.
        assert not updated_by_core[0] & updated_by_core[3]

    def test_shared_fraction_is_small_for_tall_grids(self):
        workload = FluidanimateWorkload(grid_x=8, grid_y=128, n_steps=1)
        trace = workload.generate_columnar(4)
        all_updates = [
            a.address
            for t in trace.to_workload().per_core
            for a in t
            if a.access_type is AccessType.COMMUTATIVE_UPDATE
        ]
        owners = {}
        shared = set()
        for core_id, core_trace in enumerate(trace.to_workload().per_core):
            for access in core_trace:
                if access.access_type is AccessType.COMMUTATIVE_UPDATE:
                    previous = owners.setdefault(access.address, core_id)
                    if previous != core_id:
                        shared.add(access.address)
        assert len(shared) / len(set(all_updates)) < 0.2

    def test_single_core_reference(self):
        workload = FluidanimateWorkload(grid_x=8, grid_y=8, n_steps=2)
        reference = workload.reference_result()
        result = simulate(workload.generate_columnar(1), small_test_config(1), "COUP")
        for address, expected in reference.items():
            assert result.final_values.get(address, 0) == pytest.approx(expected)

    def test_phases_alternate_update_and_read(self):
        workload = FluidanimateWorkload(grid_x=8, grid_y=16, n_steps=2)
        trace = workload.generate_columnar(2)
        assert len(trace.phase_boundaries) == 4
