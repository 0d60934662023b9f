"""Tests of the benchmark's own machinery: output checks, metric names, spans.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import child
import layers
import run
import spans as sp

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _tiny_result() -> dict:
    from repro.sim import small_test_config
    from repro.sim.simulator import simulate
    from repro.workloads import SharedCounterWorkload

    trace = SharedCounterWorkload(updates_per_core=40, seed=3).generate_columnar(4)
    return simulate(trace, small_test_config(4), "COUP", track_values=False).to_jsonable()


def _report(data: dict, label: str = "counter/COUP") -> dict:
    accesses = sum(core["accesses"] for core in data["core_stats"])
    return {"points": {label: {"accesses": accesses, "retired": accesses, "digest": child.digest(data)}}}


def test_output_check_catches_one_field_perturbation():
    data = _tiny_result()
    good = _report(data)
    refs = {"hit-run": {"seeds": {"5": {"counter/COUP": good["points"]["counter/COUP"]["digest"]}}}}
    assert run.check_rep("hit-run", 5, good, refs, good)[:2] == (1, 0)

    perturbed = copy.deepcopy(data)
    perturbed["core_stats"][1]["l1_hits"] += 1
    bad = _report(perturbed)
    attempted, failed, _ = run.check_rep("hit-run", 5, bad, refs, good)
    assert (attempted, failed) == (1, 1)
    reps = [{"wall": 1.0, "cpu": 1.0, "rss_mb": 1.0, "setup": 0.1}]
    assert run.end_to_end(reps, [0.1], [10], attempted, failed)["passed_frac"]["value"] < 1.0

    # Without a shipped reference the first repetition is the reference.
    assert run.check_rep("hit-run", 99, bad, refs, good)[:2] == (1, 1)
    assert run.check_rep("hit-run", 99, good, refs, good)[:2] == (1, 0)


def test_campaign_check_counts_perturbed_missing_and_errored_points():
    refs = {"campaign": {"fingerprint": {"0": "f"}, "points": {"a/1": "d1", "a/2": "d2"}, "sim_accesses": 7}}
    report = {"points": {"a/1": ["ok", "d1"], "a/2": ["ok", "d2"]}, "exit_code": 0, "fingerprint": "f"}
    assert run.check_rep("campaign", 0, report, refs, report) == (3, 0, 7)
    perturbed = copy.deepcopy(report)
    perturbed["points"]["a/2"][1] = "other"
    assert run.check_rep("campaign", 0, perturbed, refs, report)[:2] == (3, 1)
    errored = copy.deepcopy(report)
    errored["points"]["a/1"][0] = "error"
    errored["exit_code"] = 1
    assert run.check_rep("campaign", 0, errored, refs, report)[:2] == (3, 2)
    missing = copy.deepcopy(report)
    del missing["points"]["a/1"]
    missing["fingerprint"] = "g"
    assert run.check_rep("campaign", 0, missing, refs, report)[:2] == (3, 2)
    # The fingerprint covers point seeds, so it is checked for seed 0 only.
    assert run.check_rep("campaign", 4, missing, refs, report)[:2] == (3, 1)


def test_span_self_time_arithmetic():
    spans = [
        (1, 0, "sim", "sim", 0.0, 10.0, None, None),
        (2, 1, "core.merge", "core.merge", 1.0, 3.0, None, None),
        (3, 1, "core.resolve_slow", "x", 4.0, 8.0, None, None),
        (4, 3, "sim.stats", "sim.stats", 5.0, 6.0, None, None),
        (5, 0, "workloads", "workloads", 11.0, 12.5, None, None),
    ]
    assert sp.self_times(spans) == {1: 4.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 1.5}
    assert sp.covered([spans[0], spans[4]], 5.0, 11.5) == pytest.approx(5.5)


def test_recorder_nests_skips_same_layer_and_records_errors():
    rec = sp.Recorder()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    inner_w = rec.wrap(inner, "core.merge", extra=lambda args, result: result)
    same_w = rec.wrap(lambda x: inner_w(x), "core.merge")
    outer_w = rec.wrap(lambda x: same_w(x) + inner_w(x), "sim", point=lambda args: f"p{args[0]}")
    assert outer_w(2) == 4
    with pytest.raises(ValueError):
        inner_w(-1)
    by_layer = {}
    for span in rec.spans:
        by_layer.setdefault(span[2], []).append(span)
    (outer,) = by_layer["sim"]
    merges = by_layer["core.merge"]
    # same_w's inner call is the same layer directly nested: not recorded again.
    assert len(merges) == 3
    assert [m[1] for m in merges[:2]] == [outer[0], outer[0]]
    assert all(m[6] == "p2" for m in merges[:2]) and merges[2][6] is None
    assert merges[2][7] is None  # the raising call has no extra
    assert rec.stack == [(0, "")] and rec.point is None


def test_fold_attributes_parent_and_point_time():
    parent = [
        (1, 0, "experiments.runner", "experiments.runner", 1.0, 20.0, None, None),
        (2, 1, "experiments.sweep_spec", "experiments.sweep_spec", 1.0, 1.5, None, None),
        (3, 1, "workloads", "workloads", 2.0, 5.0, None, (100, 800)),
        (4, 1, "sweep.publish", "sweep.publish", 5.0, 5.5, None, 800),
        (5, 1, "experiments.supervisor", "experiments.supervisor", 6.0, 20.0, None, None),
    ]
    worker = [
        (1, 0, "experiments.runner.point", "experiments.runner.point", 6.0, 10.0, "p", None),
        (2, 1, "sim", "sim", 6.5, 10.0, "p", 100),
        (3, 2, "core.resolve_slow", "core.resolve_slow.mesi.load", 7.0, 8.0, "p", None),
        (4, 2, "core.merge", "core.merge", 8.0, 9.0, "p", (50, 3, 1)),
    ]
    out = layers.fold({10: parent, 11: worker}, 10, spawn=0.0, jobs=2)
    assert out["workloads.blocking_s"] == 3.0
    assert out["experiments.runner.dispatch_wait_s"] == 4.0  # set-up ends at the first layer call
    assert out["trace.parent_named_frac"] == pytest.approx((2.0 + 3.5) / 6.0)
    assert out["trace.point_named_frac"] == pytest.approx(3.5 / 4.0)
    assert out["sim.self_s"] == pytest.approx(1.5)
    assert out["core.resolve_slow.mesi.load.calls"] == 1
    assert (out["core.merge.retired"], out["core.merge.parked"], out["core.merge.yield"]) == (50, 1, 1.0)
    assert out["experiments.runner.worker_busy_frac"] == pytest.approx(4.0 / 28.0)
    assert out["sim.ns_per_access"] == pytest.approx(3.5e7)

    # In-process workloads: the benchmark's own point spans, no dispatch.
    alone = [
        (1, 0, "bench.point", "bench.point", 1.0, 5.0, "p", None),
        (2, 1, "workloads", "workloads", 1.0, 2.0, "p", (10, 80)),
        (3, 1, "sim", "sim", 2.0, 4.5, "p", 10),
    ]
    out = layers.fold({7: alone}, 7, spawn=0.0, jobs=1)
    assert out["trace.point_named_frac"] == pytest.approx(3.5 / 4.0)
    assert out["trace.parent_named_frac"] == pytest.approx((1.0 + 3.5) / 5.0)
    assert out["workloads.blocking_s"] == out["workloads.busy_s"] == 1.0
    assert out["experiments.runner.points"] == out["experiments.runner.dispatch_wait_s"] == 0


def test_metric_names_units_and_benchmark_json_agree():
    bench = _benchmark()
    folded = layers.fold({1: []}, 1, spawn=0.0, jobs=1)
    per_layer = set(folded) | {
        "core.resolve_slow.calls_spread",
        "core.merge.calls_spread",
        "experiments.runner.retries",
        "experiments.runner.quarantined",
        "trace.overhead_s",
    }
    assert {m["name"] for m in bench["per_layer"]} == per_layer
    assert {m["name"] for m in bench["end_to_end"]} == set(run.END_TO_END_UNITS)
    for metric in bench["end_to_end"]:
        assert metric["unit"] == run.END_TO_END_UNITS[metric["name"]]
    for metric in bench["per_layer"]:
        assert metric["unit"] == layers.unit_of(metric["name"])
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"] + bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_references_cover_every_workload():
    with open(run.REFERENCES, encoding="utf-8") as handle:
        refs = json.load(handle)
    assert refs["campaign"]["sim_accesses"] > 0 and "0" in refs["campaign"]["fingerprint"]
    for workload in ("paper-grid", "hit-run"):
        assert {"0", "31"} <= set(refs[workload]["seeds"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    command = [sys.executable, "perfbench/run.py", "--workload", "hit-run", "--seed", "0", "--seconds", "1", "--trace", "0"]
    result = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert result.stdout == ""
