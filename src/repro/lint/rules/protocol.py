"""Protocol-contract rules (P2xx).

These cross-check the three stable-state engines against the state enums
in :mod:`repro.core.states` and the columnar type-code table, so the
ROADMAP's aggressive protocol refactors cannot silently drift from the
contracts the simulator and the verification model rely on.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Sequence

from repro.lint.classdb import ClassDb
from repro.lint.context import (
    ENGINE_STATE_ALPHABET,
    HOT_COMMUTATIVE_VALUES,
    ProjectContext,
)
from repro.lint.engine import Rule, SourceModule
from repro.lint.violations import Violation

#: Base classes known to provide the retire loop
#: (:meth:`MesiProtocol.resolve_slow_batch` services the MESI family).
_RETIRE_LOOP_PROVIDERS = frozenset({"MesiProtocol", "MeusiProtocol", "RmoProtocol"})


class UnknownEnumMemberRule(Rule):
    """P201: references to nonexistent state-enum members.

    ``StableState.OWNED`` parses, imports, and only explodes at runtime on
    the exact path that exercises it; this catches the typo at lint time by
    checking every ``Enum.X`` attribute access against the live enum.
    """

    code = "P201"
    symbol = "unknown-enum-member"
    description = (
        "attribute access on the protocol enums (StableState, LineMode, "
        "RequestType, AccessType, CommutativeOp) must name a real member"
    )

    def check(self, module: SourceModule, ctx: ProjectContext) -> List[Violation]:
        members = ctx.enum_members
        findings: List[Violation] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if not isinstance(node.value, ast.Name):
                continue
            enum_name = node.value.id
            allowed = members.get(enum_name)
            if allowed is None or node.attr.startswith("_"):
                continue
            if node.attr not in allowed:
                findings.append(
                    self.violation(
                        module,
                        node,
                        f"{enum_name}.{node.attr} does not exist — members are "
                        f"{', '.join(sorted(allowed))}",
                    )
                )
        return findings


def hit_table_problems(folding: str) -> List[str]:
    """How the hit table of ``folding`` breaks the private-hit contract.

    The table (:func:`repro.core.protocol.hit_table`) is the one encoding of
    the private-hit rule that ``hot_mask``, the retire loop and ``access()``
    read: it must be 5 states x 5 access kinds of legal actions, a load
    never hits from an absent or U line, a store or atomic hits only from
    E/M, and only update-only (``"local"``) folding buffers.
    """
    from repro.core import protocol
    from repro.hierarchy.cache import (
        STATE_ABSENT,
        STATE_EXCLUSIVE,
        STATE_MODIFIED,
        STATE_UPDATE,
    )
    from repro.sim.columnar import KIND_ATOMIC, KIND_LOAD, KIND_STORE

    table = protocol.hit_table(folding)
    if [len(row) for row in table] != [5] * 5:
        return ["the table is not 5 stable states x 5 access kinds"]
    hits = {protocol.ACT_HIT, protocol.ACT_HIT_M, protocol.ACT_BUFFER}
    legal = hits | {protocol.ACT_SLOW, protocol.ACT_PROBE}
    cells = [
        (row, kind, action)
        for row, actions in enumerate(table)
        for kind, action in enumerate(actions)
    ]
    problems = []
    illegal = [(row, kind) for row, kind, action in cells if action not in legal]
    if illegal:
        problems.append(f"cells (state, kind) {illegal} hold no legal action")
    if {table[STATE_ABSENT][KIND_LOAD], table[STATE_UPDATE][KIND_LOAD]} & hits:
        problems.append("a load hits from an absent or U line")
    owned = {STATE_EXCLUSIVE, STATE_MODIFIED}
    if any(
        action in hits and row not in owned
        for row, kind, action in cells
        if kind in (KIND_STORE, KIND_ATOMIC)
    ):
        problems.append("a store or atomic hits outside E/M")
    if folding != "local" and any(
        action == protocol.ACT_BUFFER for _row, _kind, action in cells
    ):
        problems.append("ACT_BUFFER outside update-only ('local') folding")
    return problems


class BatchContractRule(Rule):
    """P202: the simulator's contract on protocol classes.

    Every engine runs under the simulator's retire loop and its batched
    kernel, so a protocol class — one declaring ``HOT_COMMUTATIVE`` — must
    provide what they call: a legal ``HOT_COMMUTATIVE`` folding mode whose
    hit table keeps the private-hit contract (:func:`hit_table_problems`),
    a ``resolve_slow_batch`` retire loop (own or inherited from the MESI
    family), and — for ``"local"`` folding — a ``batch_uop_code`` hook so
    U-line buffering can be classified per window.  A run-level check
    additionally verifies the 104-entry columnar type-code table still
    covers every code the kernel classifies, and that every live engine
    honours the same contract.
    """

    code = "P202"
    symbol = "batch-contract"
    description = (
        "protocol classes must declare the simulator's contract (legal "
        "HOT_COMMUTATIVE with a well-formed hit table, resolve_slow_batch, "
        "batch_uop_code for local folding)"
    )

    def applies(self, relpath: str) -> bool:
        return relpath.startswith("src/repro/core/")

    def check(self, module: SourceModule, ctx: ProjectContext) -> List[Violation]:
        findings: List[Violation] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(module, node))
        return findings

    def _check_class(self, module: SourceModule, node: ast.ClassDef) -> List[Violation]:
        flags: Dict[str, object] = {}
        methods = set()
        for statement in node.body:
            if isinstance(statement, ast.Assign):
                for target in statement.targets:
                    if isinstance(target, ast.Name) and isinstance(
                        statement.value, ast.Constant
                    ):
                        flags[target.id] = statement.value.value
            elif isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                if isinstance(statement.value, ast.Constant):
                    flags[statement.target.id] = statement.value.value
            elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.add(statement.name)
        base_names = {
            base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
            for base in node.bases
        }
        findings: List[Violation] = []

        hot_commutative = flags.get("HOT_COMMUTATIVE")
        if hot_commutative is not None and hot_commutative not in HOT_COMMUTATIVE_VALUES:
            findings.append(
                self.violation(
                    module,
                    node,
                    f"{node.name}: HOT_COMMUTATIVE={hot_commutative!r} is not one "
                    f"of {sorted(HOT_COMMUTATIVE_VALUES)}",
                )
            )
        elif hot_commutative is not None:
            for problem in hit_table_problems(str(hot_commutative)):
                findings.append(
                    self.violation(
                        module,
                        node,
                        f"{node.name}: hit table of HOT_COMMUTATIVE="
                        f"{hot_commutative!r}: {problem}",
                    )
                )
        if hot_commutative == "local" and "batch_uop_code" not in methods:
            findings.append(
                self.violation(
                    module,
                    node,
                    f"{node.name}: HOT_COMMUTATIVE='local' requires a "
                    "batch_uop_code(core_id, line_addr) hook so the kernel can "
                    "classify U-line buffering per chunk",
                )
            )

        if hot_commutative is None or "ABC" in base_names:
            return findings  # not a concrete protocol engine
        if (
            "resolve_slow_batch" not in methods
            and not base_names & _RETIRE_LOOP_PROVIDERS
        ):
            findings.append(
                self.violation(
                    module,
                    node,
                    f"{node.name}: no resolve_slow_batch retire loop is "
                    "defined or inherited from the MESI family",
                )
            )
        return findings

    def finalize(
        self,
        modules: Sequence[SourceModule],
        ctx: ProjectContext,
        classdb: ClassDb,
    ) -> List[Violation]:
        # Semantic cross-check against the live package: only meaningful
        # when the real engines are part of the run.
        linted = {module.relpath for module in modules}
        if "src/repro/sim/columnar.py" not in linted:
            return []
        findings: List[Violation] = []
        from repro.sim import columnar
        from repro.sim.simulator import PROTOCOLS

        n_codes = len(columnar.CODE_KIND)
        if n_codes != 104:
            findings.append(
                Violation(
                    path="src/repro/sim/columnar.py",
                    line=1,
                    col=0,
                    code=self.code,
                    symbol=self.symbol,
                    message=(
                        f"type-code table has {n_codes} entries, expected 104 — "
                        "update the documented layout and every consumer together"
                    ),
                )
            )
        known_kinds = {
            columnar.KIND_LOAD,
            columnar.KIND_STORE,
            columnar.KIND_ATOMIC,
            columnar.KIND_COMMUTATIVE,
            columnar.KIND_REMOTE,
        }
        bad_codes = [
            code
            for code in range(n_codes)
            if int(columnar.CODE_KIND[code]) not in known_kinds
        ]
        if bad_codes:
            findings.append(
                Violation(
                    path="src/repro/sim/columnar.py",
                    line=1,
                    col=0,
                    code=self.code,
                    symbol=self.symbol,
                    message=(
                        f"type codes {bad_codes} map to no known access kind — "
                        "hot_mask could misclassify them"
                    ),
                )
            )
        for name, protocol_cls in sorted(PROTOCOLS.items()):
            problems = []
            if not callable(getattr(protocol_cls, "resolve_slow_batch", None)):
                problems.append("lacks a callable resolve_slow_batch")
            folding = getattr(protocol_cls, "HOT_COMMUTATIVE", None)
            if folding not in HOT_COMMUTATIVE_VALUES:
                problems.append(f"illegal HOT_COMMUTATIVE={folding!r}")
            else:
                problems.extend(
                    f"hit table: {problem}" for problem in hit_table_problems(folding)
                )
            if folding == "local" and not callable(
                getattr(protocol_cls, "batch_uop_code", None)
            ):
                problems.append("local folding without batch_uop_code")
            if problems:
                findings.append(
                    Violation(
                        path=_module_relpath(protocol_cls),
                        line=1,
                        col=0,
                        code=self.code,
                        symbol=self.symbol,
                        message=(
                            f"protocol {name} ({protocol_cls.__name__}) violates "
                            f"the batch contract: {'; '.join(problems)}"
                        ),
                    )
                )
        return findings


def _module_relpath(cls: type) -> str:
    return "src/" + cls.__module__.replace(".", "/") + ".py"


class StateAlphabetRule(Rule):
    """P203: engines may only name states in their declared alphabet.

    ``rmo.py`` and ``mesi.py`` implement MESI-family semantics and must not
    grow references to COUP's ``UPDATE`` state; ``meusi.py`` may use the
    full alphabet.  ``mesi.py`` names it exactly once, under an audited
    suppression: the module constant through which its shared machinery —
    the retire loop and the GetU transaction shapes MEUSI inherits —
    services U lines.
    """

    code = "P203"
    symbol = "state-alphabet"
    description = (
        "each protocol engine module may only reference StableState members "
        "in its declared alphabet"
    )

    def applies(self, relpath: str) -> bool:
        return relpath in ENGINE_STATE_ALPHABET

    def check(self, module: SourceModule, ctx: ProjectContext) -> List[Violation]:
        alphabet = ENGINE_STATE_ALPHABET[module.relpath]
        members = ctx.enum_members.get("StableState", frozenset())
        findings: List[Violation] = []
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "StableState"
                and node.attr in members
                and node.attr.isupper()
                and node.attr not in alphabet
            ):
                findings.append(
                    self.violation(
                        module,
                        node,
                        f"StableState.{node.attr} is outside this engine's "
                        f"alphabet {{{', '.join(sorted(alphabet))}}}",
                    )
                )
        return findings
