"""Fixture suites for the protocol-contract rules (P201-P203)."""

from __future__ import annotations

import pytest

from repro.core import protocol
from repro.core.protocol import ACT_BUFFER, ACT_HIT, ACT_HIT_M
from repro.hierarchy.cache import STATE_ABSENT, STATE_SHARED, STATE_UPDATE
from repro.lint.rules.protocol import (
    BatchContractRule,
    StateAlphabetRule,
    UnknownEnumMemberRule,
)
from repro.sim.columnar import KIND_ATOMIC, KIND_COMMUTATIVE, KIND_LOAD, KIND_STORE

from lint_helpers import codes, lines_of, lint_sources  # noqa: F401 (fixture)

CORE = "src/repro/core/fixture.py"


class TestP201UnknownEnumMember:
    def test_unknown_member_fires(self, lint_sources):
        source = (
            "from repro.core.states import StableState\n"
            "state = StableState.BOGUS\n"
        )
        report = lint_sources({CORE: source}, rules=[UnknownEnumMemberRule()])
        assert codes(report) == ["P201"]
        assert lines_of(report, "P201") == [2]

    def test_real_members_pass(self, lint_sources):
        source = (
            "from repro.core.states import LineMode, RequestType, StableState\n"
            "a = StableState.MODIFIED\n"
            "b = LineMode.UPDATE_ONLY\n"
            "c = RequestType.READ\n"
        )
        report = lint_sources({CORE: source}, rules=[UnknownEnumMemberRule()])
        assert report.ok


class TestP202BatchContract:
    def test_bad_hot_commutative_value_fires(self, lint_sources):
        source = (
            "class FancyProtocol:\n"
            "    HOT_COMMUTATIVE = 'sometimes'\n"
        )
        report = lint_sources({CORE: source}, rules=[BatchContractRule()])
        assert "P202" in codes(report)

    def test_local_commutative_without_batch_hook_fires(self, lint_sources):
        source = (
            "class FancyProtocol:\n"
            "    HOT_COMMUTATIVE = 'local'\n"
        )
        report = lint_sources({CORE: source}, rules=[BatchContractRule()])
        assert "P202" in codes(report)

    @pytest.mark.parametrize(
        "row,kind,action,problem",
        [
            (STATE_UPDATE, KIND_LOAD, ACT_HIT, "a load hits from an absent or U line"),
            (STATE_ABSENT, KIND_LOAD, ACT_HIT, "a load hits from an absent or U line"),
            (STATE_SHARED, KIND_STORE, ACT_HIT_M, "a store or atomic hits outside E/M"),
            (STATE_UPDATE, KIND_ATOMIC, ACT_BUFFER, "a store or atomic hits outside E/M"),
            (STATE_UPDATE, KIND_COMMUTATIVE, ACT_BUFFER, "ACT_BUFFER outside"),
            (STATE_SHARED, KIND_LOAD, 7, "hold no legal action"),
        ],
        ids=["load-u", "load-absent", "store-s", "atomic-u", "buffer-atomic", "illegal"],
    )
    def test_broken_hit_table_fires(self, lint_sources, monkeypatch, row, kind, action, problem):
        real = protocol.hit_table

        def broken(folding):
            table = [list(cells) for cells in real(folding)]
            table[row][kind] = action
            return tuple(tuple(cells) for cells in table)

        monkeypatch.setattr(protocol, "hit_table", broken)
        source = (
            "class FancyProtocol:\n"
            "    HOT_COMMUTATIVE = 'atomic'\n"
            "    def resolve_slow_batch(self):\n"
            "        return (0, 0, 0)\n"
        )
        report = lint_sources({CORE: source}, rules=[BatchContractRule()])
        assert set(codes(report)) == {"P202"}
        assert any(problem in v.message for v in report.violations)

    def test_engine_without_retire_loop_fires(self, lint_sources):
        source = (
            "class FancyProtocol:\n"
            "    HOT_COMMUTATIVE = 'atomic'\n"
        )
        report = lint_sources({CORE: source}, rules=[BatchContractRule()])
        assert codes(report) == ["P202"]

    def test_full_contract_passes(self, lint_sources):
        source = (
            "class FancyProtocol:\n"
            "    HOT_COMMUTATIVE = 'local'\n"
            "    def batch_uop_code(self):\n"
            "        return 0\n"
            "    def resolve_slow_batch(self):\n"
            "        return (0, 0, 0)\n"
        )
        report = lint_sources({CORE: source}, rules=[BatchContractRule()])
        assert report.ok

    def test_inheriting_engine_passes(self, lint_sources):
        # A subclass of a known MESI-family engine inherits the contract.
        source = (
            "from repro.core.mesi import MesiProtocol\n"
            "class TweakedMesi(MesiProtocol):\n"
            "    HOT_COMMUTATIVE = 'atomic'\n"
        )
        report = lint_sources({CORE: source}, rules=[BatchContractRule()])
        assert report.ok

    def test_slow_batch_contract_passes_with_own_merge(self, lint_sources):
        source = (
            "class FancyProtocol:\n"
            "    HOT_COMMUTATIVE = 'never'\n"
            "    def resolve_slow_batch(self):\n"
            "        return (0, 0, 0)\n"
        )
        report = lint_sources({CORE: source}, rules=[BatchContractRule()])
        assert report.ok

    def test_slow_batch_contract_inherited_from_mesi_family(self, lint_sources):
        # RMO runs the MESI family's retire loop too.
        source = (
            "from repro.core.rmo import RmoProtocol\n"
            "class TweakedRmo(RmoProtocol):\n"
            "    HOT_COMMUTATIVE = 'never'\n"
        )
        report = lint_sources({CORE: source}, rules=[BatchContractRule()])
        assert report.ok

    def test_real_tree_semantic_contract(self):
        # The run-level finalize cross-checks the live PROTOCOLS registry
        # and the 104-entry columnar type-code table; exercised in full by
        # test_tree_is_clean, but assert the gate directly here too.
        from repro.lint.context import ProjectContext
        from repro.lint.engine import load_source_module, run_rules
        from lint_helpers import REPO_ROOT
        import os

        rel = "src/repro/sim/columnar.py"
        module = load_source_module(os.path.join(REPO_ROOT, rel), rel)
        raw, _ = run_rules([module], [BatchContractRule()], ProjectContext(REPO_ROOT))
        assert [v for v in raw if v.code == "P202"] == []


class TestP203StateAlphabet:
    def test_update_in_plain_mesi_engine_fires(self, lint_sources):
        source = (
            "from repro.core.states import StableState\n"
            "def f():\n"
            "    return StableState.UPDATE\n"
        )
        report = lint_sources(
            {"src/repro/core/rmo.py": source}, rules=[StateAlphabetRule()]
        )
        assert codes(report) == ["P203"]
        assert lines_of(report, "P203") == [3]

    def test_update_in_meusi_engine_passes(self, lint_sources):
        source = (
            "from repro.core.states import StableState\n"
            "def f():\n"
            "    return StableState.UPDATE\n"
        )
        report = lint_sources(
            {"src/repro/core/meusi.py": source}, rules=[StateAlphabetRule()]
        )
        assert report.ok

    def test_non_engine_module_out_of_scope(self, lint_sources):
        source = (
            "from repro.core.states import StableState\n"
            "state = StableState.UPDATE\n"
        )
        report = lint_sources({CORE: source}, rules=[StateAlphabetRule()])
        assert report.ok
