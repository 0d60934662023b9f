"""Wrap the program's layers for the traced run, and fold spans into metrics.

Every wrapper is installed from here, around public functions of the
program (class attributes and module attributes looked up at call time),
before the workload builds any engine or spec.  Nothing under ``src/`` is
modified.  Layer names are the program's module names.
"""

from __future__ import annotations

import importlib
import math
import statistics
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

import spans as sp

#: Layers whose first call ends set-up (imports, ``sweep_spec()`` expansion
#: and ``table1_config`` come before it).
MEASURED_LAYERS = (
    "workloads",
    "sweep.publish",
    "sweep.attach",
    "experiments.runner.point",
    "experiments.supervisor",
    "sim",
    "core.resolve_slow",
    "core.merge",
    "verification",
)

#: Spans opened by the benchmark itself around the program's entry points.
DRIVER_LAYERS = ("experiments.runner", "bench.point")

#: ``resolve_slow`` dispatch classes reported one by one: (engine module,
#: access class).  COUP runs on the ``meusi`` engine; the commutative
#: classes reach ``mesi`` and ``rmo`` only as conventional updates.
RESOLVE_CLASSES = (
    ("mesi", "load"),
    ("mesi", "store"),
    ("mesi", "atomic_rmw"),
    ("meusi", "load"),
    ("meusi", "store"),
    ("meusi", "commutative_update"),
    ("rmo", "load"),
    ("rmo", "remote_update"),
)


def _trace_counts(trace: Any) -> Tuple[int, int]:
    """(accesses, packed bytes) of a columnar or object-form trace."""
    return int(trace.total_accesses), int(getattr(trace, "nbytes", 0))


def _engine(obj: Any) -> str:
    return type(obj).__module__.rsplit(".", 1)[-1]


def install(rec: sp.Recorder, *, campaign: bool) -> None:
    """Replace each layer's entry points with span-recording wrappers."""
    from repro.experiments import sweep
    from repro.sim import simulator
    from repro.sim.stats import SimulationResult
    from repro.workloads.base import Workload

    def patch(owner: Any, attr: str, layer: str, **kwargs: Any) -> None:
        setattr(owner, attr, rec.wrap(getattr(owner, attr), layer, **kwargs))

    trace_extra = lambda args, result: _trace_counts(result)
    patch(Workload, "generate_columnar", "workloads", extra=trace_extra)
    patch(sweep.WorkloadSpec, "materialize_columnar", "workloads", extra=trace_extra)
    patch(sweep.WorkloadSpec, "materialize", "workloads", extra=trace_extra)
    patch(
        simulator.MulticoreSimulator,
        "run",
        "sim",
        extra=lambda args, result: int(args[1].total_accesses),
    )
    patch(SimulationResult, "to_jsonable", "sim.stats")

    names: Dict[Tuple[type, Any], str] = {}

    def resolve_name(args: tuple) -> str:
        key = (type(args[0]), args[2].access_type)
        found = names.get(key)
        if found is None:
            found = names[key] = f"core.resolve_slow.{_engine(args[0])}.{key[1].value}"
        return found

    for cls in sorted(set(simulator.PROTOCOLS.values()), key=lambda c: c.__name__):
        if "resolve_slow" in vars(cls):
            patch(cls, "resolve_slow", "core.resolve_slow", name=resolve_name)
        if "resolve_slow_batch" in vars(cls):
            patch(cls, "resolve_slow_batch", "core.merge", extra=lambda args, result: tuple(result))

    if not campaign:
        return
    from repro.experiments import EXPERIMENT_MODULES, figure08_verification, journal, supervisor

    patch(sweep, "publish_trace_shm", "sweep.publish", extra=lambda args, result: int(args[0].nbytes))
    patch(sweep, "attach_trace_shm", "sweep.attach")
    patch(sweep, "run_point", "experiments.runner.point", point=lambda args: args[0].key)
    patch(journal.JournalWriter, "append", "experiments.journal")
    patch(figure08_verification, "verify_protocol", "verification")
    supervisor.Supervisor.run = rec.wrap_generator(supervisor.Supervisor.run, "experiments.supervisor")
    for module_path in EXPERIMENT_MODULES.values():
        module = importlib.import_module(module_path)
        if hasattr(module, "sweep_spec"):
            patch(module, "sweep_spec", "experiments.sweep_spec")


def mark_first_call(on_first: Callable[[float], None]) -> None:
    """Untraced runs: note when the first measured layer is entered, then unwrap.

    Wraps the campaign's first possible layer entries; the first call
    restores every original before it runs, so workers forked later see
    the program untouched.
    """
    from repro.experiments import supervisor, sweep
    from repro.sim import simulator

    targets = [
        (sweep.WorkloadSpec, "materialize_columnar"),
        (sweep.WorkloadSpec, "materialize"),
        (sweep, "run_point"),
        (supervisor.Supervisor, "run"),
        (simulator.MulticoreSimulator, "run"),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr in targets]

    def restore() -> None:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)

    def sentinel(fn: Callable[..., Any]) -> Callable[..., Any]:
        def first(*args: Any, **kwargs: Any) -> Any:
            on_first(sp.clock())
            restore()
            return fn(*args, **kwargs)

        return first

    for owner, attr, fn in originals:
        setattr(owner, attr, sentinel(fn))


def _nearest_rank(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile by the nearest-rank rule (0 for no values)."""
    if not values:
        return 0.0
    return sorted(values)[max(0, math.ceil(q * len(values)) - 1)]


def fold(
    processes: Mapping[int, List[sp.Span]],
    parent_pid: int,
    *,
    spawn: float,
    jobs: int,
) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition.

    ``processes`` maps pid to that process's spans; ``parent_pid`` is the
    process that ran set-up and dispatched work; ``spawn`` is when the
    benchmark started that process.
    """
    out: Dict[str, float] = {}
    selfs: Dict[Tuple[int, int], float] = {}
    index: Dict[str, List[Tuple[int, sp.Span]]] = {}
    for pid, spans in processes.items():
        for sid, value in sp.self_times(spans).items():
            selfs[(pid, sid)] = value
        for span in spans:
            index.setdefault(span[2], []).append((pid, span))

    def of(layer: str) -> List[Tuple[int, sp.Span]]:
        return index.get(layer, [])

    def busy(layer: str) -> float:
        return sum(s[5] - s[4] for _, s in of(layer))

    for layer in ("workloads", "sim", "core.resolve_slow", "core.merge", "verification"):
        out[f"{layer}.calls"] = len(of(layer))
        out[f"{layer}.busy_s"] = busy(layer)
        out[f"{layer}.self_s"] = sum(selfs[(pid, s[0])] for pid, s in of(layer))

    parent = processes.get(parent_pid, [])
    setup_end = min((s[4] for s in parent if s[2] in MEASURED_LAYERS), default=spawn)
    dispatch = [s for s in parent if s[2] == "experiments.supervisor"]
    first_dispatch = min((s[4] for s in dispatch), default=float("inf"))
    out["setup.sweep_spec_s"] = busy("experiments.sweep_spec")

    loads = [s for _, s in of("workloads")]
    out["workloads.accesses"] = sum(s[7][0] for s in loads if s[7] is not None)
    out["workloads.bytes"] = sum(s[7][1] for s in loads if s[7] is not None)
    out["workloads.blocking_s"] = sum(
        s[5] - s[4] for s in parent if s[2] == "workloads" and s[4] < first_dispatch
    )
    out["sweep.publish_s"] = busy("sweep.publish")
    out["sweep.attach_s"] = busy("sweep.attach")
    out["sweep.publish_bytes"] = sum(s[7] for _, s in of("sweep.publish") if s[7] is not None)

    out["sim.accesses"] = sum(s[7] for _, s in of("sim") if s[7] is not None)
    out["sim.ns_per_access"] = 1e9 * out["sim.busy_s"] / out["sim.accesses"] if out["sim.accesses"] else 0.0

    by_name: Dict[str, List[float]] = {}
    for _, s in of("core.resolve_slow"):
        by_name.setdefault(s[3], []).append(s[5] - s[4])
    for engine, access_class in RESOLVE_CLASSES:
        durations = by_name.get(f"core.resolve_slow.{engine}.{access_class}", [])
        out[f"core.resolve_slow.{engine}.{access_class}.calls"] = len(durations)
        out[f"core.resolve_slow.{engine}.{access_class}.busy_s"] = sum(durations)
    merges = [s[7] for _, s in of("core.merge") if s[7] is not None]
    out["core.merge.retired"] = sum(m[0] for m in merges)
    out["core.merge.parked"] = sum(m[2] for m in merges)
    out["core.merge.yield"] = sum(1 for m in merges if m[0] > 0) / len(merges) if merges else 0.0

    points = of("experiments.runner.point")
    durations = [s[5] - s[4] for _, s in points]
    out["experiments.runner.points"] = len(points)
    out["experiments.runner.point_p50_s"] = _nearest_rank(durations, 0.50)
    out["experiments.runner.point_p95_s"] = _nearest_rank(durations, 0.95)
    window = sum(s[5] - s[4] for s in dispatch)
    worker_busy = sum(s[5] - s[4] for pid, s in points if pid != parent_pid)
    out["experiments.runner.worker_busy_frac"] = worker_busy / (jobs * window) if window > 0 else 0.0
    out["experiments.runner.dispatch_wait_s"] = first_dispatch - setup_end if dispatch else 0.0
    out["experiments.journal.appends"] = len(of("experiments.journal"))
    out["experiments.journal.append_s"] = busy("experiments.journal")
    out["sim.stats.to_jsonable_s"] = busy("sim.stats")

    # Attribution.  Point time is named when a layer span covers it; the
    # parent's time up to its first dispatch (or its end) is named when it
    # is set-up or inside a layer span rather than the caller's own code.
    named_points = points or of("bench.point")
    point_total = sum(s[5] - s[4] for _, s in named_points)
    point_self = sum(selfs[(pid, s[0])] for pid, s in named_points)
    out["trace.point_named_frac"] = (point_total - point_self) / point_total if point_total else 0.0
    horizon = first_dispatch if dispatch else max((s[5] for s in parent), default=setup_end)
    layer_of = {s[0]: s[2] for s in parent}
    outermost = [
        s
        for s in parent
        if s[2] not in DRIVER_LAYERS and layer_of.get(s[1], "experiments.runner") in DRIVER_LAYERS
    ]
    named = (setup_end - spawn) + sp.covered(outermost, setup_end, horizon)
    out["trace.parent_named_frac"] = named / (horizon - spawn) if horizon > spawn else 0.0
    out["trace.spans"] = len(selfs)
    return out


def median_metrics(reps: Sequence[Mapping[str, float]]) -> Dict[str, float]:
    """Per-metric median across repetitions."""
    return {name: statistics.median(rep[name] for rep in reps) for name in reps[0]}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    leaf = name.rsplit(".", 1)[-1]
    if leaf.endswith("_s"):
        return "s"
    if leaf.endswith("_frac") or leaf == "yield":
        return "ratio"
    if leaf.endswith("bytes"):
        return "B"
    if leaf == "ns_per_access":
        return "ns"
    return "count"
