"""Guard: every experiment's traces are emitted as columns, never packed per access.

Workload generators and the software baselines (privatization, SNZI,
Refcache) build their packed columns directly.  The per-access codec
(``pack_accesses`` / ``encode_access``, reached through
``ColumnarTrace.from_workload``) exists only for hand-written traces in
tests; this test makes it raise and then materialises every distinct
workload spec of every experiment's sweep.
"""

from __future__ import annotations

import importlib

import pytest

from repro.experiments import EXPERIMENT_MODULES, settings
from repro.experiments.sweep import SimPoint
from repro.sim import columnar


def _distinct_specs():
    specs = {}
    for experiment_id, module_path in sorted(EXPERIMENT_MODULES.items()):
        module = importlib.import_module(module_path)
        for point in module.sweep_spec().points:
            if isinstance(point, SimPoint):
                key = point.workload.key(point.n_cores)
                specs.setdefault(key, (experiment_id, point))
    return specs


@pytest.fixture
def tiny_scale():
    original = (settings.scale(), settings.max_cores())
    settings.set_scale(0.02)
    settings.set_max_cores(4)
    try:
        yield
    finally:
        settings.set_scale(original[0])
        settings.set_max_cores(original[1])


def test_no_experiment_trace_is_packed_per_access(monkeypatch, tiny_scale):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("a generator packed its trace access by access")

    monkeypatch.setattr(columnar, "pack_accesses", forbidden)
    monkeypatch.setattr(columnar, "encode_access", forbidden)

    specs = _distinct_specs()
    assert {experiment for experiment, _point in specs.values()} >= {
        "figure2",
        "figure12",
        "figure13",
    }
    for experiment_id, point in specs.values():
        trace = point.workload.materialize_columnar(point.n_cores)
        assert isinstance(trace, columnar.ColumnarTrace), (experiment_id, point.key)
        assert trace.total_accesses > 0, (experiment_id, point.key)
