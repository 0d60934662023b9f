"""Round-trip tests for the columnar trace format.

**Codec exactness** — ``ColumnarTrace.from_workload`` followed by
``to_workload`` reproduces every access (``MemoryAccess.__eq__``), the phase
boundaries, and the metadata, for adversarial hand-built records: uint64 bit
masks, negative deltas, float operands, ``None`` store values.  The traces the
workload generators emit are pinned record for record by
``tests/workloads/test_trace_digests.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.commutative import CommutativeOp
from repro.sim.access import AccessType, MemoryAccess, WorkloadTrace
from repro.sim.columnar import (
    ACCESS_DTYPE,
    ColumnarTrace,
    TraceCodecError,
    pack_accesses,
    unpack_accesses,
)
from repro.workloads.histogram import HistogramWorkload
from repro.workloads.refcount import DelayedRefcountWorkload


def _assert_traces_equal(original: WorkloadTrace, restored: WorkloadTrace):
    assert restored.name == original.name
    assert restored.params == original.params
    assert restored.phase_boundaries == original.phase_boundaries
    assert len(restored.per_core) == len(original.per_core)
    for mine, theirs in zip(original.per_core, restored.per_core):
        assert mine == theirs


def test_roundtrip_random_records():
    """Property-style codec sweep over adversarial hand-built records."""
    rng = np.random.default_rng(7)
    accesses = []
    for _ in range(500):
        kind = rng.integers(0, 5)
        address = int(rng.integers(0, 1 << 48))
        think = int(rng.integers(0, 64))
        if kind == 0:
            accesses.append(
                MemoryAccess.load(address, think=think, size=int(rng.choice([1, 2, 4, 8])))
            )
        elif kind == 1:
            value = [None, int(rng.integers(-(1 << 62), 1 << 62)), float(rng.normal())][
                int(rng.integers(0, 3))
            ]
            accesses.append(MemoryAccess.store(address, value, think=think))
        else:
            op = CommutativeOp(
                str(rng.choice([op.value for op in CommutativeOp]))
            )
            if op in (CommutativeOp.AND_64, CommutativeOp.OR_64, CommutativeOp.XOR_64):
                value = int(rng.integers(0, 1 << 63)) | (1 << 63)  # force uint64 range
            elif op in (CommutativeOp.ADD_F32, CommutativeOp.ADD_F64):
                value = float(rng.normal() * 1e9)
            else:
                value = int(rng.integers(-(1 << 31), 1 << 31))
            ctor = [MemoryAccess.atomic, MemoryAccess.commutative, MemoryAccess.remote_update][
                kind - 2
            ]
            accesses.append(ctor(address, op, value, think=think))
    restored = unpack_accesses(pack_accesses(accesses))
    assert restored == accesses
    # The extreme corners individually: uint64 top bit, int64 extremes,
    # denormal and non-finite floats, None stores.
    corners = [
        MemoryAccess.commutative(64, CommutativeOp.OR_64, 1 << 63),
        MemoryAccess.commutative(64, CommutativeOp.AND_64, (1 << 64) - 1),
        MemoryAccess.commutative(64, CommutativeOp.ADD_I64, -(1 << 63)),
        MemoryAccess.commutative(64, CommutativeOp.ADD_I64, (1 << 63) - 1),
        MemoryAccess.commutative(64, CommutativeOp.ADD_F64, 5e-324),
        MemoryAccess.commutative(64, CommutativeOp.ADD_F64, float("inf")),
        MemoryAccess.store(128, None),
        MemoryAccess.store(128, -0.0),
    ]
    restored = unpack_accesses(pack_accesses(corners))
    assert restored == corners
    # -0.0 must keep its sign bit (== cannot see it).
    assert str(restored[-1].value) == "-0.0"


def test_unrepresentable_values_raise_codec_error():
    with pytest.raises(TraceCodecError):
        pack_accesses([MemoryAccess.store(0, value=(1, 2))])
    with pytest.raises(TraceCodecError):
        pack_accesses([MemoryAccess.commutative(0, CommutativeOp.ADD_I64, 1 << 64)])
    with pytest.raises(TraceCodecError):
        pack_accesses([MemoryAccess.load(0, size=3)])


def test_phase_column_reflects_boundaries():
    workload = DelayedRefcountWorkload(
        n_counters=64, updates_per_epoch=20, n_epochs=2
    )
    trace = workload.generate_columnar(3)
    boundaries = np.asarray(trace.phase_boundaries)
    for core_id, column in enumerate(trace.columns):
        phases = column["phase"]
        for access_index in range(len(column)):
            expected = int(np.sum(boundaries[:, core_id] <= access_index))
            assert phases[access_index] == expected


def test_npz_roundtrip(tmp_path):
    trace = HistogramWorkload(n_bins=16, n_items=200).generate_columnar(3)
    path = str(tmp_path / "trace.npz")
    trace.save_npz(path, extra_meta={"origin": "test"})
    loaded, extra = ColumnarTrace.load_npz_with_meta(path)
    assert loaded == trace
    assert extra == {"origin": "test"}
    assert ColumnarTrace.load_npz(path) == trace


def test_empty_trace_roundtrip():
    trace = WorkloadTrace(name="empty", per_core=[[], []])
    packed = ColumnarTrace.from_workload(trace)
    assert packed.total_accesses == 0
    assert all(column.dtype == ACCESS_DTYPE for column in packed.columns)
    restored = packed.to_workload()
    _assert_traces_equal(trace, restored)
