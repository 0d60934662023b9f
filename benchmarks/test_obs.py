"""Benchmark: telemetry overhead across REPRO_OBS modes.

The obs subsystem instruments the simulator's execution paths (kernel and
retire-loop stints, accesses retired per path, kernel window
classification) and promises to be invisible when disabled.  This benchmark
guards that promise on a small paper grid (histogram workload, MESI + COUP):

* **disabled overhead** — ``counters`` mode vs. ``off``.  ``off`` costs one
  attribute load and an ``is None`` test per instrumented slow-path site;
  ``counters`` does strictly more (every one of those sites also bumps a
  dict entry), so the counters-vs-off gap is an upper bound on what the
  guards themselves cost.  Gated at 1%.
* **full cost** — counters plus phase timing and JSONL event segments,
  recorded (not gated) so the trajectory shows what full telemetry costs.

All three modes must produce **byte-identical** serialized results —
telemetry may observe the kernel, never steer it.

Timings use the minimum over interleaved repeats (the noise-robust
estimator for near-identical code paths).  A 1% gate is meaningless when a
mode finishes in a few hundred milliseconds, so grids below a wall-clock
floor record the overhead without asserting on it.  The trajectory lands
in ``benchmarks/BENCH_obs.json``.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone

from conftest import BENCH_REPEATS, append_trajectory, interleaved_best_times, run_once

import repro.obs as obs
from repro.obs import events as obs_events
from repro.experiments import settings
from repro.experiments.paper_workloads import make_hist
from repro.sim.config import table1_config
from repro.sim.simulator import simulate
from repro.workloads import UpdateStyle

TRAJECTORY_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_obs.json")

#: Wall-clock repeats per mode; the minimum is recorded.
REPEATS = max(BENCH_REPEATS, 7)

#: Gate on the counters-vs-off gap (upper bound on the disabled overhead).
MAX_DISABLED_OVERHEAD_PCT = 1.0

#: Below this per-mode wall-clock the 1% gate drowns in timer noise; the
#: overhead is still recorded in the trajectory, just not asserted on.
MIN_GATED_SECONDS = 0.4

PROTOCOLS = ("MESI", "COUP")

#: Grid passes folded into one timing sample.  A single pass finishes in
#: ~150ms at benchmark scale — too short for a 1% comparison — so each
#: sample runs the grid several times to push per-sample wall clock past
#: ``MIN_GATED_SECONDS`` and let machine jitter average out.
PASSES_PER_SAMPLE = 4


def _run_grid(traces, configs):
    """Grid passes for one timing sample; returns canonical serialized results."""
    serialized = []
    for _ in range(PASSES_PER_SAMPLE):
        serialized = [
            json.dumps(
                simulate(
                    traces[protocol], configs[protocol], protocol, track_values=False
                ).to_jsonable(),
                sort_keys=True,
            )
            for protocol in PROTOCOLS
        ]
    return serialized


def test_obs_mode_overhead(benchmark, tmp_path):
    n_cores = min(16, settings.max_cores())
    configs = {protocol: table1_config(n_cores) for protocol in PROTOCOLS}
    workload = make_hist(UpdateStyle.COMMUTATIVE)
    traces = {protocol: workload.generate_columnar(n_cores) for protocol in PROTOCOLS}

    obs_dir = str(tmp_path / "obs")

    def _off():
        obs.reconfigure("off")
        return _run_grid(traces, configs)

    def _counters():
        obs.reconfigure("counters")
        return _run_grid(traces, configs)

    def _full():
        obs.reconfigure("full", obs_dir)
        try:
            return _run_grid(traces, configs)
        finally:
            obs_events.reset_process_writer()

    try:
        timings = interleaved_best_times(
            [("off", _off), ("counters", _counters), ("full", _full)],
            repeats=REPEATS,
        )
        run_once(benchmark, _off)
    finally:
        obs_events.reset_process_writer()
        obs.reconfigure()  # back to env-driven configuration

    off_s, off_times, off_results = timings["off"]
    counters_s, counters_times, counters_results = timings["counters"]
    full_s, full_times, full_results = timings["full"]

    # The telemetry contract: identical bytes in every mode.
    assert counters_results == off_results
    assert full_results == off_results

    overhead_counters_pct = (counters_s / off_s - 1.0) * 100.0
    overhead_full_pct = (full_s / off_s - 1.0) * 100.0

    entry = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "scale": settings.scale(),
        "max_cores": settings.max_cores(),
        "n_cores": n_cores,
        "repeats": REPEATS,
        "off_s": round(off_s, 4),
        "counters_s": round(counters_s, 4),
        "full_s": round(full_s, 4),
        "off_times_s": [round(t, 4) for t in off_times],
        "counters_times_s": [round(t, 4) for t in counters_times],
        "full_times_s": [round(t, 4) for t in full_times],
        "overhead_counters_pct": round(overhead_counters_pct, 2),
        "overhead_full_pct": round(overhead_full_pct, 2),
        "gated": off_s >= MIN_GATED_SECONDS,
    }
    append_trajectory(TRAJECTORY_PATH, entry)

    if off_s >= MIN_GATED_SECONDS:
        assert overhead_counters_pct < MAX_DISABLED_OVERHEAD_PCT, (
            f"telemetry guards cost {overhead_counters_pct:.2f}% "
            f"(limit {MAX_DISABLED_OVERHEAD_PCT}%): {entry}"
        )
