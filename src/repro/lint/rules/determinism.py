"""Determinism rules (D1xx).

These police the discipline that keeps every documented guarantee true:
golden fingerprints, ``--jobs N`` scheduling-independence, sweep-cache
content hashes, and kernel/scalar bit-identity.
"""

from __future__ import annotations

import ast
from typing import List, Sequence

from repro.lint.classdb import ClassDb
from repro.lint.context import (
    OBS_WALLCLOCK_MODULES,
    ProjectContext,
    is_obs_module,
    is_obs_wallclock_module,
    is_result_affecting,
    is_verification_module,
)
from repro.lint.engine import Rule, SourceModule
from repro.lint.rules.common import (
    build_import_map,
    call_name,
    iteration_targets,
)
from repro.lint.violations import Violation

#: ``random``-module attributes that are fine to touch: seeding, explicit
#: generator construction (seededness of constructors is checked separately),
#: and state capture.  Everything else is a draw from the shared global
#: generator, which any import-order change silently perturbs.
_RANDOM_ALLOWED = frozenset(
    {"Random", "SystemRandom", "seed", "getstate", "setstate"}
)
#: Same for ``numpy.random``: explicit generator construction and seeding.
_NP_RANDOM_ALLOWED = frozenset(
    {"default_rng", "Generator", "SeedSequence", "RandomState", "seed",
     "BitGenerator", "PCG64", "Philox", "SFC64", "MT19937"}
)
#: Constructors that must receive an explicit seed argument.
_SEEDED_CONSTRUCTORS = frozenset(
    {"random.Random", "numpy.random.default_rng", "numpy.random.RandomState",
     "numpy.random.SeedSequence"}
)

#: Wall-clock reads.  Result-affecting modules may consult these only under
#: an audited inline suppression; timing goes through the obs registry.
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.thread_time",
        "time.thread_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


class UnseededRngRule(Rule):
    """D101: no draws from the shared module-level RNGs.

    Every random draw must come from an explicitly seeded generator object
    (``random.Random(seed)`` / ``np.random.default_rng(seed)``) that the
    caller threads to the draw site, so results depend only on the seed —
    not on import order, scheduling, or unrelated code consuming the
    global stream.
    """

    code = "D101"
    symbol = "unseeded-rng"
    description = (
        "random draws must come from an explicitly seeded generator object, "
        "never the module-level random / numpy.random state"
    )

    def check(self, module: SourceModule, ctx: ProjectContext) -> List[Violation]:
        imports = build_import_map(module.tree)
        findings: List[Violation] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = call_name(node, imports)
            if qualified is None:
                continue
            if qualified in _SEEDED_CONSTRUCTORS and not node.args:
                findings.append(
                    self.violation(
                        module,
                        node,
                        f"{qualified}() constructed without a seed — pass an "
                        "explicit seed so the stream is reproducible",
                    )
                )
                continue
            owner, _, attr = qualified.rpartition(".")
            if owner == "random" and attr not in _RANDOM_ALLOWED:
                findings.append(
                    self.violation(
                        module,
                        node,
                        f"draw from the module-level RNG (random.{attr}) — "
                        "thread a seeded random.Random instance instead",
                    )
                )
            elif owner == "numpy.random" and attr not in _NP_RANDOM_ALLOWED:
                findings.append(
                    self.violation(
                        module,
                        node,
                        f"draw from the module-level RNG (numpy.random.{attr}) "
                        "— thread a seeded numpy Generator instead",
                    )
                )
        return findings


class UnorderedIterationRule(Rule):
    """D102: no direct iteration over hash-ordered / insertion-ordered views
    in result-affecting modules.

    Iterating a ``set`` (hash order) or a dict view (insertion order) lets
    incidental construction order leak into results.  Wrap the iterable in
    ``sorted(...)``, or — where the order provably cannot reach a result —
    suppress with the proof as the reason.

    The verification harness (``repro/verification/``) is scanned too: its
    guarantees — sharded BFS counts bit-identical to the serial checker,
    seed-reproducible walks and shrinks — are exactly the kind that an
    incidental hash-order iteration silently breaks.
    """

    code = "D102"
    symbol = "unordered-iteration"
    description = (
        "result-affecting and verification modules must iterate sets and "
        "dict views in a canonical (sorted) order"
    )

    #: Wrappers that preserve the underlying (non-canonical) order, so the
    #: rule looks through them one level.
    _TRANSPARENT_WRAPPERS = frozenset({"list", "tuple", "enumerate", "reversed", "iter"})
    #: Reducers whose result cannot depend on iteration order; a generator
    #: expression consumed directly by one of these is exempt.
    _ORDER_INSENSITIVE_REDUCERS = frozenset(
        {"sum", "min", "max", "len", "any", "all", "set", "frozenset", "sorted"}
    )

    def applies(self, relpath: str) -> bool:
        return is_result_affecting(relpath) or is_verification_module(relpath)

    def check(self, module: SourceModule, ctx: ProjectContext) -> List[Violation]:
        exempt = self._reducer_generators(module.tree)
        findings: List[Violation] = []
        for target in iteration_targets(module.tree):
            if id(target) in exempt:
                continue
            offender = self._match(target)
            if offender is not None:
                findings.append(self.violation(module, target, offender))
        return findings

    def _reducer_generators(self, tree: ast.AST) -> set:
        """ids of iteration expressions inside ``sum(... for ...)``-style
        order-insensitive reductions."""
        exempt: set = set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in self._ORDER_INSENSITIVE_REDUCERS
                and len(node.args) >= 1
                and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp, ast.SetComp))
            ):
                for generator in node.args[0].generators:
                    exempt.add(id(generator.iter))
        return exempt

    def _match(self, node: ast.expr, depth: int = 0) -> str | None:
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in (
                "values",
                "keys",
                "items",
            ):
                return (
                    f".{func.attr}() iterated in insertion order — wrap in "
                    "sorted(...) or justify via suppression"
                )
            if isinstance(func, ast.Name):
                if func.id in ("set", "frozenset"):
                    return (
                        f"{func.id}(...) iterated in hash order — wrap in "
                        "sorted(...)"
                    )
                if (
                    func.id in self._TRANSPARENT_WRAPPERS
                    and depth == 0
                    and node.args
                ):
                    return self._match(node.args[0], depth=1)
        elif isinstance(node, (ast.Set, ast.SetComp)):
            return "set literal iterated in hash order — wrap in sorted(...)"
        return None


class WallClockRule(Rule):
    """D103: no wall-clock reads outside the sanctioned island.

    Simulated time is the only clock results may depend on, so
    result-affecting modules must not read the host clock.  The one
    sanctioned exception is the telemetry registry, the wall-clock island
    every timing read in the tree routes through — allowlisted
    module-by-module in :data:`~repro.lint.context.OBS_WALLCLOCK_MODULES`.
    Any other site needs an audited inline suppression (the waiver budget).

    The rule also scans the rest of ``repro/obs/`` (event writers, the
    report) so telemetry code outside the island cannot quietly grow its
    own clock reads, and :meth:`finalize` audits the allowlist the same
    way the waiver budget is audited: an entry whose module no longer
    exists or no longer reads the clock is flagged stale.
    """

    code = "D103"
    symbol = "wall-clock"
    description = (
        "no host-clock reads outside the obs registry island (result-"
        "affecting modules: audited suppressions only; repro/obs: "
        "OBS_WALLCLOCK_MODULES only)"
    )

    def applies(self, relpath: str) -> bool:
        return is_result_affecting(relpath) or is_obs_module(relpath)

    def check(self, module: SourceModule, ctx: ProjectContext) -> List[Violation]:
        if is_obs_wallclock_module(module.relpath):
            return []  # the island itself; audited for staleness in finalize
        in_obs = is_obs_module(module.relpath)
        imports = build_import_map(module.tree)
        findings: List[Violation] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = call_name(node, imports)
            if qualified in _WALL_CLOCK:
                if in_obs:
                    message = (
                        f"wall-clock read ({qualified}) outside the obs "
                        "registry island — route timing through "
                        "repro.obs.registry.clock or add the module to "
                        "OBS_WALLCLOCK_MODULES"
                    )
                else:
                    message = (
                        f"wall-clock read ({qualified}) in a result-affecting "
                        "module — simulated time is the only sanctioned clock"
                    )
                findings.append(self.violation(module, node, message))
        return findings

    def finalize(
        self,
        modules: Sequence[SourceModule],
        ctx: ProjectContext,
        classdb: ClassDb,
    ) -> List[Violation]:
        # Allowlist audit: only when the obs package is actually part of
        # the run (a real-tree lint, not a fixture suite), mirroring the
        # H303 README check and the suppression-budget audit.
        obs_modules = {
            module.relpath: module
            for module in modules
            if is_obs_module(module.relpath)
        }
        if not obs_modules:
            return []
        findings: List[Violation] = []
        for entry in OBS_WALLCLOCK_MODULES:
            module = obs_modules.get(entry)
            if module is None:
                findings.append(
                    Violation(
                        path=entry,
                        line=1,
                        col=0,
                        code=self.code,
                        symbol=self.symbol,
                        message=(
                            "stale OBS_WALLCLOCK_MODULES entry: module is not "
                            "part of the linted tree — shrink the allowlist"
                        ),
                    )
                )
                continue
            if module.tree is None:
                continue  # unparseable; the parse error is reported elsewhere
            imports = build_import_map(module.tree)
            reads_clock = any(
                isinstance(node, ast.Call)
                and call_name(node, imports) in _WALL_CLOCK
                for node in ast.walk(module.tree)
            )
            if not reads_clock:
                findings.append(
                    self.violation(
                        module,
                        module.tree,
                        "stale OBS_WALLCLOCK_MODULES entry: module no longer "
                        "reads the host clock — shrink the allowlist",
                    )
                )
        return findings


class UnsortedSerializationRule(Rule):
    """D104: every JSON emission must be canonical (``sort_keys=True``).

    Serialized artifacts (sweep-point records, cache entries, trace
    metadata) are compared, hashed, and diffed; canonical key order keeps
    byte-comparisons and content hashes stable across dict construction
    order.
    """

    code = "D104"
    symbol = "unsorted-serialization"
    description = "json.dump/json.dumps must pass sort_keys=True"

    def check(self, module: SourceModule, ctx: ProjectContext) -> List[Violation]:
        imports = build_import_map(module.tree)
        findings: List[Violation] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = call_name(node, imports)
            if qualified not in ("json.dump", "json.dumps"):
                continue
            sorted_keys = any(
                keyword.arg == "sort_keys"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
                for keyword in node.keywords
            )
            if not sorted_keys:
                findings.append(
                    self.violation(
                        module,
                        node,
                        f"{qualified}(...) without sort_keys=True — serialized "
                        "output must be canonical",
                    )
                )
        return findings
