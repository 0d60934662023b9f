"""Tests for memory access records and workload traces."""

from __future__ import annotations

import pytest

from repro.core.commutative import CommutativeOp
from repro.sim.access import AccessType, MemoryAccess, WorkloadTrace
from repro.sim.columnar import ColumnarTrace


class TestMemoryAccess:
    def test_constructors(self):
        load = MemoryAccess.load(0x100, think=5)
        assert load.access_type is AccessType.LOAD
        assert load.think_instructions == 5

        store = MemoryAccess.store(0x100, 7)
        assert store.access_type is AccessType.STORE
        assert store.value == 7

        atomic = MemoryAccess.atomic(0x100, CommutativeOp.ADD_I32, 2)
        assert atomic.access_type is AccessType.ATOMIC_RMW
        assert atomic.size_bytes == 4

        commutative = MemoryAccess.commutative(0x100, CommutativeOp.OR_64, 0b1)
        assert commutative.access_type is AccessType.COMMUTATIVE_UPDATE
        assert commutative.op is CommutativeOp.OR_64

        remote = MemoryAccess.remote_update(0x100, CommutativeOp.ADD_I64, 1)
        assert remote.access_type is AccessType.REMOTE_UPDATE

    def test_update_classification(self):
        assert not AccessType.LOAD.is_update
        assert AccessType.STORE.is_update
        assert AccessType.ATOMIC_RMW.is_update
        assert AccessType.COMMUTATIVE_UPDATE.is_commutative
        assert AccessType.REMOTE_UPDATE.is_commutative

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryAccess(AccessType.LOAD, address=-1)
        with pytest.raises(ValueError):
            MemoryAccess(AccessType.LOAD, address=0, think_instructions=-1)
        with pytest.raises(ValueError):
            MemoryAccess(AccessType.COMMUTATIVE_UPDATE, address=0, op=None)


class TestWorkloadTrace:
    def _trace(self):
        per_core = [
            [MemoryAccess.load(0x0, think=3), MemoryAccess.commutative(0x8, CommutativeOp.ADD_I64, 1)],
            [MemoryAccess.atomic(0x8, CommutativeOp.ADD_I64, 1, think=2)],
        ]
        return ColumnarTrace.from_workload(WorkloadTrace(name="t", per_core=per_core))

    def test_counts(self):
        trace = self._trace()
        assert trace.n_cores == 2
        assert trace.total_accesses == 3
        assert trace.total_instructions == 3 + 5

    def test_commutative_fraction(self):
        trace = self._trace()
        # two updates out of eight instructions
        assert trace.commutative_fraction() == pytest.approx(2 / 8)

    def test_phase_validation(self):
        trace = self._trace()
        trace.phase_boundaries = [[2, 1]]
        trace.validate()
        trace.phase_boundaries = [[5, 1]]
        with pytest.raises(ValueError):
            trace.validate()
        trace.phase_boundaries = [[2]]
        with pytest.raises(ValueError):
            trace.validate()
