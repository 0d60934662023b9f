"""One repetition of one workload, in a fresh interpreter.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``; writes one JSON report to ``--out``.  Times are readings of the
system-wide monotonic clock, so ``run.py`` can subtract its own spawn
time from them.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import sys

import layers
import spans as sp

T_START = sp.clock()

#: Campaign scale, core cap and worker count: the ROADMAP's end-to-end unit
#: at a size where one repetition is 7-9 s on two cores, so a run holds
#: several and reports their median.  At the default 64-core cap a
#: repetition is 20-30 s whatever the scale (figure2 and figure12 dominate).
CAMPAIGN_SCALE = "0.05"
CAMPAIGN_MAX_CORES = "16"
CAMPAIGN_JOBS = 2

#: paper-grid: the five Table 2 workloads at scale 1.0 on 64 cores.
PAPER_GRID_SCALE = 1.0
PAPER_GRID_CORES = 64

#: hit-run: 16 cores, long private-hit streams.
HIT_RUN_CORES = 16
HIT_RUN_ACCESSES_PER_CORE = 100_000


def digest(data: object) -> str:
    """Canonical digest of a JSON-native value."""
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def campaign_points(results_dir: str) -> dict:
    """``experiment/point`` -> (status, digest of the record's deterministic projection).

    The projection is :func:`journal.point_record_projection` without the
    point seed: ``--seed`` reaches only the runner's global RNGs, so every
    other field must not depend on it.
    """
    from repro.experiments import journal

    points = {}
    for path in sorted(glob.glob(os.path.join(results_dir, "points", "*", "*.json"))):
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        projection = journal.point_record_projection(record)
        projection.pop("seed", None)
        points[f"{record['experiment_id']}/{record['point']}"] = [
            record.get("status"),
            digest(projection),
        ]
    return points


def run_campaign(args: argparse.Namespace, rec: sp.Recorder | None, report: dict) -> None:
    os.environ["REPRO_SCALE"] = CAMPAIGN_SCALE
    os.environ["REPRO_MAX_CORES"] = CAMPAIGN_MAX_CORES
    from repro.experiments import journal, runner

    results_dir = os.path.join(args.workdir, "results")
    setup_end: list = []
    if rec is None:
        def on_first(now: float) -> None:
            setup_end.append(now)
            if args.setup_only:
                report["t_setup_end"] = now
                write_report(args.out, report)
                os._exit(0)  # nothing is published or spawned yet

        layers.mark_first_call(on_first)
        main = runner.main
    else:
        layers.install(rec, campaign=True)
        rec.follow_forks()
        main = rec.wrap(runner.main, "experiments.runner")
    argv = ["--jobs", str(CAMPAIGN_JOBS), "--seed", str(args.seed), "--results-dir", results_dir]
    report["exit_code"] = main(argv)
    report["t_done"] = sp.clock()
    if setup_end:
        report["t_setup_end"] = setup_end[0]
    report["points"] = campaign_points(results_dir)
    report["fingerprint"] = digest(journal.campaign_fingerprint(results_dir))
    records = journal.latest_point_records(journal.replay_dir(journal.journal_dir(results_dir)))
    report["retries"] = sum(max(0, int(r.get("attempts", 1)) - 1) for r in records.values())
    report["quarantined"] = sum(1 for r in records.values() if r.get("status") == "quarantined")
    report["jobs"] = CAMPAIGN_JOBS


def in_process_points(workload: str, seed: int) -> tuple:
    """(core count, [(label, protocol, workload object)]) for paper-grid or hit-run."""
    from repro.experiments import settings
    from repro.workloads import (
        BfsWorkload,
        FluidanimateWorkload,
        HistogramWorkload,
        PageRankWorkload,
        ReadOnlyWorkload,
        SharedCounterWorkload,
        SpmvWorkload,
        UpdateStyle,
    )

    if workload == "hit-run":
        n = HIT_RUN_ACCESSES_PER_CORE
        return HIT_RUN_CORES, [
            ("shared-counter/COUP", "COUP", SharedCounterWorkload(updates_per_core=n, seed=seed)),
            ("read-only/MESI", "MESI", ReadOnlyWorkload(n_elements=256, reads_per_core=n, seed=seed)),
        ]
    settings.set_scale(PAPER_GRID_SCALE)
    sc = settings.scaled

    def table2(style: UpdateStyle) -> dict:
        # The sizes of repro.experiments.paper_workloads, built here so the
        # seed reaches each constructor.  bfs is the exception: at its
        # Table 2 size five levels reach 18k-37k accesses depending on the
        # seed, so it runs on a third of the vertices for seven levels,
        # which reaches the whole graph on every seed (19.5k-19.9k accesses).
        return {
            "hist": HistogramWorkload(n_bins=512, n_items=sc(24_000), update_style=style, seed=seed),
            "spmv": SpmvWorkload(n_rows=sc(1536), n_cols=sc(1536), nnz_per_col=6, update_style=style, seed=seed),
            "pgrank": PageRankWorkload(n_vertices=sc(2048), avg_degree=6, n_iterations=2, update_style=style, seed=seed),
            "bfs": BfsWorkload(n_vertices=sc(2048), avg_degree=8, max_levels=7, update_style=style, seed=seed),
            "fluidanimate": FluidanimateWorkload(grid_x=24, grid_y=sc(768), n_steps=1, update_style=style, seed=seed),
        }

    points = [
        (f"{name}/{protocol}", protocol, workload)
        for protocol, style in (("MESI", UpdateStyle.ATOMIC), ("COUP", UpdateStyle.COMMUTATIVE))
        for name, workload in table2(style).items()
    ]
    return PAPER_GRID_CORES, points


def run_in_process(args: argparse.Namespace, rec: sp.Recorder | None, report: dict) -> None:
    from repro.sim import table1_config
    from repro.sim.simulator import simulate

    if rec is not None:
        layers.install(rec, campaign=False)
    n_cores, points = in_process_points(args.workload, args.seed)
    config = table1_config(n_cores)

    def run_point(label: str, protocol: str, workload: object) -> tuple:
        trace = workload.generate_columnar(n_cores)
        result = simulate(trace, config, protocol, track_values=False)
        return trace.total_accesses, result.to_jsonable()

    if rec is not None:
        run_point = rec.wrap(run_point, "bench.point", point=lambda args: args[0])
    results = []
    report["t_setup_end"] = sp.clock()
    if args.setup_only:
        return
    for label, protocol, workload in points:
        results.append((label, *run_point(label, protocol, workload)))
    report["t_done"] = sp.clock()
    report["points"] = {
        label: {
            "accesses": accesses,
            "retired": sum(core["accesses"] for core in data["core_stats"]),
            "digest": digest(data),
        }
        for label, accesses, data in results
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=("campaign", "paper-grid", "hit-run"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true", help="stop at the first call into a measured layer")
    args = parser.parse_args()
    rec = sp.Recorder(os.path.join(args.workdir, "spans")) if args.trace else None
    if rec is not None:
        os.makedirs(rec.dump_dir, exist_ok=True)
    report: dict = {"t_start": T_START, "pid": os.getpid()}
    if args.workload == "campaign":
        run_campaign(args, rec, report)
    else:
        run_in_process(args, rec, report)
    if rec is not None:
        report.setdefault(
            "t_setup_end",
            min((s[4] for s in rec.spans if s[2] in layers.MEASURED_LAYERS), default=report["t_done"]),
        )
        rec.dump()
    write_report(args.out, report)
    return 0


def write_report(path: str, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main())
