"""The private-hit rule, exhaustively: one hit table per folding mode.

Every reader of the rule — the batched kernel's ``hot_mask``, the retire
loop and the public ``access()`` — indexes the engine's hit table
(:func:`repro.core.protocol.hit_table`).  These tests pin ``hot_mask`` and
``access()`` to it cell by cell, and pin the table's hit cells to the
verification model's quiescent local rules, so the verification lanes
check the rule the simulator runs.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.commutative import CommutativeOp
from repro.core.protocol import (
    ACT_BUFFER,
    ACT_HIT,
    ACT_HIT_M,
    ACT_PROBE,
    ACT_SLOW,
    STATE_CODE,
    hit_table,
)
from repro.core.states import StableState
from repro.hierarchy.cache import (
    STATE_ABSENT,
    STATE_EXCLUSIVE,
    STATE_MODIFIED,
    STATE_SHARED,
    STATE_UPDATE,
)
from repro.sim.access import AccessType, MemoryAccess
from repro.sim.columnar import NO_OP_INDEX
from repro.sim.config import small_test_config
from repro.sim.simulator import make_protocol
from repro.verification.model import (
    CacheLine,
    CacheState,
    CoherenceModel,
    DirectoryLine,
    GlobalState,
    ModelConfig,
)

ENGINES = ("MESI", "COUP", "RMO")
HIT_ACTIONS = (ACT_HIT, ACT_HIT_M, ACT_BUFFER)
STATE_CODES = (STATE_ABSENT, STATE_SHARED, STATE_EXCLUSIVE, STATE_MODIFIED, STATE_UPDATE)
KIND_TYPES = (
    AccessType.LOAD,
    AccessType.STORE,
    AccessType.ATOMIC_RMW,
    AccessType.COMMUTATIVE_UPDATE,
    AccessType.REMOTE_UPDATE,
)
#: Hit-table row -> the verification model's quiescent cache state.
MODEL_STATE = {
    STATE_ABSENT: CacheState.I,
    STATE_SHARED: CacheState.S,
    STATE_EXCLUSIVE: CacheState.E,
    STATE_MODIFIED: CacheState.M,
    STATE_UPDATE: CacheState.U,
}


def _engine(name):
    return make_protocol(name, small_test_config(2))


def test_tables_are_built_from_the_folding_mode_alone():
    for name in ENGINES:
        engine = _engine(name)
        table = hit_table(engine.HOT_COMMUTATIVE)
        assert engine.hit_array.tolist() == [list(row) for row in table]
        for state in (None, *StableState):
            key = None if state is None else state._value_
            assert engine.hit_rows[key] == list(table[STATE_CODE[state]])
    with pytest.raises(KeyError):
        hit_table("sometimes")


@pytest.mark.parametrize("name", ENGINES)
def test_hot_mask_matches_the_table_in_every_cell(name):
    engine = _engine(name)
    table = hit_table(engine.HOT_COMMUTATIVE)
    local = engine.HOT_COMMUTATIVE == "local"
    cells = list(
        itertools.product(STATE_CODES, range(5), (True, False), (True, False), (True, False))
    )
    states, kinds, op_match, member, may_buffer = (np.array(c) for c in zip(*cells))
    op_index = np.where(op_match, 0, 1).astype(np.uint8)
    # The kernel's uops: the U line's op index (0), or NO_OP_INDEX when the
    # line may not buffer; passed only under update-only folding.
    uops = np.where(
        (states == STATE_UPDATE) & may_buffer, 0, NO_OP_INDEX
    ).astype(np.uint8)
    mask = engine.hot_mask(
        kinds.astype(np.uint8),
        member,
        states.astype(np.uint8),
        uops if local else None,
        op_index,
    )
    for (state, kind, match, resident, buffers), hot in zip(cells, mask.tolist()):
        action = table[state][kind]
        expected = resident and (
            action in (ACT_HIT, ACT_HIT_M)
            or (action == ACT_BUFFER and match and buffers)
        )
        assert hot == expected, (state, kind, match, resident, buffers)


def _install(engine, state, line_addr, op):
    """Give core 0 ``state`` for a resident line, with a consistent directory."""
    if state is None:
        return
    engine.hierarchy.private_fill_victim(0, line_addr)
    engine.core_states[0][line_addr] = state
    if state is StableState.SHARED:
        engine.directory.grant_shared(line_addr, 0)
    elif state is StableState.UPDATE:
        engine.directory.grant_update_only(line_addr, 0, op)
        engine._buffer_for(0, line_addr, op)
    else:
        engine.directory.grant_exclusive(line_addr, 0)


@pytest.mark.parametrize("name", ENGINES)
def test_access_runs_the_table_in_every_cell(name):
    table = hit_table(_engine(name).HOT_COMMUTATIVE)
    states = [None, StableState.SHARED, StableState.EXCLUSIVE, StableState.MODIFIED]
    if _engine(name).HOT_COMMUTATIVE == "local":
        states.append(StableState.UPDATE)
    line_op = CommutativeOp.ADD_I64
    for state, kind, op in itertools.product(
        states, range(5), (CommutativeOp.ADD_I64, CommutativeOp.OR_64)
    ):
        engine = _engine(name)
        address = 5 << engine._line_shift
        _install(engine, state, address >> engine._line_shift, line_op)
        l1 = engine._l1_caches[0]
        lookups = l1.hits + l1.misses
        outcome = engine.access(
            0, MemoryAccess(KIND_TYPES[kind], address, op=op, value=1), 0.0
        )
        action = table[STATE_CODE[state]][kind]
        cell = (state, kind, op)
        probes = l1.hits + l1.misses - lookups
        if action == ACT_SLOW:
            assert probes <= 1, cell  # resolve_slow probes if it needs to
        else:
            assert probes == 1, cell
        hit = action in (ACT_HIT, ACT_HIT_M) or (action == ACT_BUFFER and op is line_op)
        assert outcome.private_hit == hit, cell
        if hit and action == ACT_HIT_M:
            assert engine.core_states[0][address >> engine._line_shift] is StableState.MODIFIED


def _model_rules(protocol, cache_state):
    """Names of the quiescent local and request rules core 0 may take."""
    model = CoherenceModel(ModelConfig(n_cores=1, n_ops=2, protocol=protocol))
    op = 0 if cache_state is CacheState.U else None
    state = GlobalState((CacheLine(cache_state, 0, op),), DirectoryLine(), (), 0)
    local = {name.split(".", 1)[1] for name, _ in model._core_local_op_rules(state)}
    requests = {name.split(".", 1)[1] for name, _ in model._core_request_rules(state)}
    return local, requests


@pytest.mark.parametrize("folding,protocol", [("atomic", "MESI"), ("local", "MEUSI")])
def test_hit_cells_match_the_model_local_rules(folding, protocol):
    table = hit_table(folding)
    rows = STATE_CODES if protocol == "MEUSI" else STATE_CODES[:-1]
    for row in rows:
        local, requests = _model_rules(protocol, MODEL_STATE[row])
        load, store, atomic, commutative, remote = table[row]
        # Reads: S/E/M read with no request; I issues one, U reduces first.
        readable = "read_miss" not in requests and "local_update_in_u" not in local
        assert (load == ACT_HIT) == readable, row
        # Stores and atomics (and MESI's folded updates): M/E local_write.
        owned = "local_write" in local
        assert (store == ACT_HIT_M) == owned, row
        assert (atomic == ACT_HIT_M) == owned, row
        for cell in (commutative, remote):
            assert (cell == ACT_HIT_M) == owned, row
            # U buffers updates of the line's op only; any other op is a
            # type switch, a request.
            assert (cell == ACT_BUFFER) == ("local_update_in_u" in local), row
        if "local_update_in_u" in local:
            assert "type_switch_op1" in requests
        assert set(table[row]) <= {ACT_SLOW, ACT_PROBE, *HIT_ACTIONS}


def test_rmo_hit_cells_are_a_subset_of_the_meusi_model():
    # RMO's architectural contract is the MEUSI model's (see the
    # differential lane's MODEL_PROTOCOL), whose hit cells are the MEUSI
    # table's (test_hit_cells_match_the_model_local_rules).
    rmo, meusi = hit_table("never"), hit_table("local")
    for row, kind in itertools.product(STATE_CODES, range(5)):
        if rmo[row][kind] in HIT_ACTIONS:
            assert meusi[row][kind] == rmo[row][kind], (row, kind)
