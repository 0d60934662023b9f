"""Unit tests for coherence state definitions and the N-state type field."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.commutative import CommutativeOp
from repro.core.meusi import MeusiProtocol
from repro.core.protocol import (
    ACT_BUFFER,
    ACT_HIT,
    ACT_HIT_M,
    ACT_PROBE,
    ACT_SLOW,
    STATE_CODE,
    hit_table,
)
from repro.core.states import (
    LineMode,
    NonExclusiveType,
    RequestType,
    StableState,
    decode_type_field,
    encode_type_field,
)
from repro.hierarchy.cache import STATE_UPDATE
from repro.sim.columnar import (
    KIND_ATOMIC,
    KIND_COMMUTATIVE,
    KIND_LOAD,
    KIND_REMOTE,
    KIND_STORE,
    NO_OP_INDEX,
)
from repro.sim.config import small_test_config


#: Every folding mode an engine may declare (``HOT_COMMUTATIVE``).
FOLDINGS = ("atomic", "local", "never")


def cell(folding, state, kind):
    """The hit-table action for a line in ``state`` under ``folding``."""
    return hit_table(folding)[STATE_CODE[state]][kind]


class TestStableState:
    # What each state may satisfy locally is the engines' hit table
    # (repro.core.protocol.hit_table); these pin the paper's rules on it.

    def test_read_permissions(self):
        for folding in FOLDINGS:
            for state in (StableState.SHARED, StableState.EXCLUSIVE, StableState.MODIFIED):
                assert cell(folding, state, KIND_LOAD) == ACT_HIT
            for state in (StableState.UPDATE, StableState.INVALID, None):
                assert cell(folding, state, KIND_LOAD) == ACT_SLOW

    def test_write_permissions(self):
        for folding in FOLDINGS:
            for kind in (KIND_STORE, KIND_ATOMIC):
                for state in (StableState.MODIFIED, StableState.EXCLUSIVE):
                    assert cell(folding, state, kind) == ACT_HIT_M
                assert cell(folding, StableState.SHARED, kind) == ACT_PROBE
                for state in (StableState.UPDATE, StableState.INVALID):
                    assert cell(folding, state, kind) == ACT_SLOW

    def test_update_permissions_in_owned_states(self):
        for folding in ("atomic", "local"):
            for kind in (KIND_COMMUTATIVE, KIND_REMOTE):
                for state in (StableState.MODIFIED, StableState.EXCLUSIVE):
                    assert cell(folding, state, kind) == ACT_HIT_M
        # RMO ships every update to the home bank, unprobed.
        for state in StableState:
            assert cell("never", state, KIND_COMMUTATIVE) == ACT_SLOW

    def test_update_permission_in_u_requires_matching_op(self):
        assert cell("local", StableState.UPDATE, KIND_COMMUTATIVE) == ACT_BUFFER
        engine = MeusiProtocol(small_test_config(2))
        # uop: the line's op index (0) or NO_OP_INDEX when it may not buffer.
        for uop, op_index, hot in ((0, 0, True), (0, 1, False), (NO_OP_INDEX, 0, False)):
            mask = engine.hot_mask(
                np.array([KIND_COMMUTATIVE], dtype=np.uint8),
                np.array([True]),
                np.array([STATE_UPDATE], dtype=np.uint8),
                np.array([uop], dtype=np.uint8),
                np.array([op_index], dtype=np.uint8),
            )
            assert mask.tolist() == [hot]

    def test_invalid_and_shared_cannot_update(self):
        for folding in FOLDINGS:
            for kind in (KIND_COMMUTATIVE, KIND_REMOTE):
                assert cell(folding, StableState.INVALID, kind) == ACT_SLOW
                assert cell(folding, StableState.SHARED, kind) in (ACT_SLOW, ACT_PROBE)

    def test_request_types(self):
        assert {r.value for r in RequestType} == {"R", "W", "C"}

    def test_line_modes(self):
        assert len(LineMode) == 4


class TestNonExclusiveType:
    def test_read_only_singleton(self):
        assert NonExclusiveType.READ_ONLY.is_read_only
        assert not NonExclusiveType.READ_ONLY.is_update

    def test_update_type(self):
        ne_type = NonExclusiveType(CommutativeOp.ADD_I32)
        assert ne_type.is_update
        assert ne_type.compatible_with_update(CommutativeOp.ADD_I32)
        assert not ne_type.compatible_with_update(CommutativeOp.ADD_I64)
        assert not ne_type.compatible_with_read()

    def test_equality_and_hash(self):
        a = NonExclusiveType(CommutativeOp.OR_64)
        b = NonExclusiveType(CommutativeOp.OR_64)
        assert a == b
        assert hash(a) == hash(b)
        assert a != NonExclusiveType.READ_ONLY


class TestTypeFieldEncoding:
    def test_four_bits_suffice_for_eight_ops(self):
        codes = {encode_type_field(NonExclusiveType(op)) for op in CommutativeOp}
        codes.add(encode_type_field(NonExclusiveType.READ_ONLY))
        assert len(codes) == 9
        assert max(codes) < 16  # fits in the paper's 4-bit field

    def test_round_trip(self):
        for op in CommutativeOp:
            field = encode_type_field(NonExclusiveType(op))
            assert decode_type_field(field).op is op
        assert decode_type_field(0).is_read_only

    def test_invalid_field_rejected(self):
        with pytest.raises(ValueError):
            decode_type_field(42)
