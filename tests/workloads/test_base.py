"""Tests for the workload framework (address map, partitioning, statistics)."""

from __future__ import annotations

import pytest

from repro.workloads import HistogramWorkload, PAPER_BENCHMARKS, Workload
from repro.workloads.base import AddressMap


class TestAddressMap:
    def test_regions_are_disjoint_and_stable(self):
        addresses = AddressMap()
        a = addresses.region("a")
        b = addresses.region("b")
        assert a != b
        assert addresses.region("a") == a  # stable on re-request

    def test_element_addressing(self):
        addresses = AddressMap()
        base = addresses.region("array")
        assert addresses.element("array", 0, 8) == base
        assert addresses.element("array", 3, 8) == base + 24
        assert addresses.element("array", 1, 4) == base + 4


class TestWorkloadFramework:
    def test_split_work_covers_all_items(self):
        parts = Workload.split_work(103, 4)
        assert sum(len(p) for p in parts) == 103
        assert parts[0].start == 0
        assert parts[-1].stop == 103
        # Balanced within one item.
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_split_work_more_cores_than_items(self):
        parts = Workload.split_work(2, 8)
        assert sum(len(p) for p in parts) == 2

    def test_generate_rejects_bad_core_count(self):
        with pytest.raises(ValueError):
            HistogramWorkload(n_bins=4, n_items=10).generate_columnar(0)

    def test_stats_reports_comm_fraction(self):
        stats = HistogramWorkload(n_bins=16, n_items=200).stats(2)
        assert stats.name == "hist"
        assert stats.update_accesses == 200
        assert stats.read_accesses == 200
        assert 0.0 < stats.comm_op_fraction < 0.5
        row = stats.as_row()
        assert row["benchmark"] == "hist"

    def test_paper_benchmark_registry(self):
        assert set(PAPER_BENCHMARKS) == {"hist", "spmv", "pgrank", "bfs", "fluidanimate"}
        for workload_cls in PAPER_BENCHMARKS.values():
            assert issubclass(workload_cls, Workload)

    def test_params_recorded_in_trace(self):
        trace = HistogramWorkload(n_bins=16, n_items=100, seed=3).generate_columnar(2)
        assert trace.params["n_bins"] == 16
        assert trace.params["seed"] == 3
        assert trace.params["update_style"] == "commutative"
