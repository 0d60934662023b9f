#!/usr/bin/env python3
"""Collect headline reproduction numbers for EXPERIMENTS.md.

Runs every experiment at the benchmark-suite scale and writes a JSON summary
(``results/summary.json``) with the quantities quoted in EXPERIMENTS.md:
per-benchmark COUP-over-MESI speedups and traffic reductions, the Fig. 2 and
Fig. 12 scheme comparisons, the Fig. 13 reference-counting results, the Fig. 8
verification state counts, and the Sec. 5.5 sensitivity numbers.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.experiments import (  # noqa: E402
    figure02_histogram_bins,
    figure08_verification,
    figure10_speedups,
    figure11_amat,
    figure12_privatization,
    figure13_refcount,
    sensitivity_reduction_unit,
    sensitivity_topology,
    settings,
    table2_benchmarks,
    traffic_reduction,
)
from repro.experiments.journal import (  # noqa: E402
    JournalCorruptError,
    journal_dir,
    latest_point_records,
    replay_dir,
)
from repro.obs.events import fold_events, profile_summary  # noqa: E402
from repro.workloads import CountMode  # noqa: E402


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def collect_runner_records(results_dir: str, *, scale: float, max_cores: int) -> dict:
    """Merge the runner's per-experiment JSON records into one dict.

    Only well-formed records produced at the same scale/max_cores as this
    summary are folded in: records from a sweep at a different scale are not
    comparable, and a truncated or foreign JSON file (e.g. a worker killed
    mid-write) must not abort summary collection.
    """
    records = {}
    for path in sorted(glob.glob(os.path.join(results_dir, "*.json"))):
        try:
            with open(path) as handle:
                record = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"skipping unreadable runner record {path}: {exc}", file=sys.stderr)
            continue
        if not isinstance(record, dict) or "experiment_id" not in record:
            continue  # foreign JSON in the directory; not a runner record
        if record.get("scale") != scale or record.get("max_cores") != max_cores:
            continue  # produced by a sweep at a different scale
        record.pop("output", None)  # keep summary.json compact
        records[record["experiment_id"]] = record
    return records


def collect_point_records(results_dir: str, *, scale: float, max_cores: int) -> dict:
    """Fold the runner's per-sweep-point JSON records into one dict.

    Point-granularity sweeps (``runner --jobs N``) write one record per
    (benchmark x core count x protocol) sweep point under
    ``<results_dir>/points/<experiment>/``.  This folds them into a compact
    per-experiment digest — point count, failures, cache hits, aggregate
    simulation time — applying the same guards as
    :func:`collect_runner_records`: malformed files and records from a
    different scale/max_cores sweep are skipped.
    """
    folded = {}
    pattern = os.path.join(results_dir, "points", "*", "*.json")
    for path in sorted(glob.glob(pattern)):
        try:
            with open(path) as handle:
                record = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"skipping unreadable point record {path}: {exc}", file=sys.stderr)
            continue
        if not isinstance(record, dict) or "experiment_id" not in record or "point" not in record:
            continue  # foreign JSON in the directory; not a point record
        if record.get("scale") != scale or record.get("max_cores") != max_cores:
            continue  # produced by a sweep at a different scale
        digest = folded.setdefault(
            record["experiment_id"],
            {"n_points": 0, "n_cached": 0, "n_failed": 0, "elapsed_s": 0.0, "points": []},
        )
        # Records written before the interconnect subsystem existed carry no
        # `bytes_by_type`/`link_stats`-derived keys (and may hold nulls where
        # newer records hold numbers).  A `--resume` over an old results or
        # cache directory must fold what it can and never abort the summary,
        # so each record's statistics are folded defensively.
        try:
            elapsed = float(record.get("elapsed_s") or 0.0)
            digest["n_points"] += 1
            digest["n_cached"] += int(bool(record.get("cached")))
            digest["n_failed"] += int(record.get("status") != "ok")
            digest["elapsed_s"] = round(digest["elapsed_s"] + elapsed, 3)
            point = {
                "point": record["point"],
                "status": record.get("status"),
                "cached": bool(record.get("cached")),
                "elapsed_s": record.get("elapsed_s"),
            }
            if "summary" in record:
                point["summary"] = record["summary"]
                # Fold the interconnect statistics the summaries carry instead
                # of dropping them: the per-message-type byte breakdown is
                # summed across the experiment's points, and the peak link
                # utilization (contention-enabled sweeps only) is tracked as a
                # maximum.  Both keys are absent from pre-topology records.
                point_summary = record["summary"]
                if isinstance(point_summary, dict):
                    bytes_by_type = point_summary.get("bytes_by_type")
                    if isinstance(bytes_by_type, dict):
                        totals = digest.setdefault("bytes_by_type", {})
                        for label, count in bytes_by_type.items():
                            if isinstance(count, (int, float)):
                                totals[label] = totals.get(label, 0) + count
                    utilization = point_summary.get("max_link_utilization")
                    if isinstance(utilization, (int, float)):
                        digest["max_link_utilization"] = max(
                            digest.get("max_link_utilization", 0.0), utilization
                        )
            digest["points"].append(point)
        except (KeyError, TypeError, ValueError) as exc:
            print(
                f"skipping malformed point record {path}: {exc!r}", file=sys.stderr
            )
            continue
    return folded


def collect_journal_records(results_dir: str) -> dict | None:
    """Fold the campaign's crash-safe journal into a compact digest.

    The runner appends one WAL record per completed sweep point under
    ``<results_dir>/journal/`` (see :mod:`repro.experiments.journal`).  A
    torn tail record — a campaign killed mid-write — is recovered and
    reported; damage *beyond* the tail raises
    :class:`~repro.experiments.journal.JournalCorruptError`, which
    :func:`main` converts into a nonzero exit instead of silently folding
    partial data.  Returns ``None`` when no journal exists.
    """
    replay = replay_dir(journal_dir(results_dir))
    if not replay.segments:
        return None
    folded = latest_point_records(replay)
    status_counts: dict = {}
    for record in folded.values():
        status = str(record.get("status"))
        status_counts[status] = status_counts.get(status, 0) + 1
    return {
        "segments": len(replay.segments),
        "records": len(replay.records),
        "points": len(folded),
        "status_counts": status_counts,
        "truncated_segments": [
            os.path.basename(path) for path in replay.truncated_segments
        ],
    }


def collect_verification(*, jobs: int = 2) -> dict:
    """Run the bounded verification lanes and fold their summaries.

    One sharded exhaustive point, a short swarm, and one differential
    stream — the same trio the CI ``verify-smoke`` lane runs.  The
    exhaustive result travels through ``ExplorationResult.to_jsonable`` /
    ``from_jsonable`` so the summary carries the canonical serialized form
    and the round trip stays exercised in the pipeline.  An active
    ``REPRO_VERIFY_MUTATE`` knob flows into every lane, so a mutated run is
    visibly unverified in summary.json rather than silently green.
    """
    from repro.verification.checker import ExplorationResult
    from repro.verification.differential import StreamConfig, run_differential
    from repro.verification.model import ModelConfig, mutation_from_env
    from repro.verification.parallel import check_sharded
    from repro.verification.walker import run_swarm

    mutation = mutation_from_env()
    exploration = check_sharded(
        ModelConfig(n_cores=2, n_ops=1, protocol="MEUSI", value_base=2),
        jobs=jobs,
        mutation=mutation,
        max_states=200_000,
    )
    exhaustive = ExplorationResult.from_jsonable(exploration.result.to_jsonable())
    swarm = run_swarm(
        ModelConfig(n_cores=2, n_ops=2, protocol="MEUSI", value_base=2),
        n_walkers=4,
        max_steps=400,
        seed=0,
        mutation=mutation,
    )
    differential = run_differential(
        StreamConfig(protocol="MEUSI", seed=0), mutation=mutation
    )
    return {
        "mutation": mutation,
        "exhaustive": exhaustive.summary(),
        "exhaustive_jobs": exploration.jobs,
        "swarm": swarm.summary(),
        "differential": differential.summary(),
        "verified": exhaustive.verified and swarm.verified and differential.verified,
    }


def collect_obs_profile(obs_dir: str) -> dict | None:
    """Fold telemetry event segments into a compact profile digest.

    A ``REPRO_OBS=full`` campaign leaves JSONL event segments under the obs
    directory (``REPRO_OBS_DIR``, default ``results/obs``); this folds them
    into the top phase costs plus the per-path split (accesses retired by
    kernel hit-runs and by the retire loop, and each path's stints).
    Telemetry is strictly optional: a missing or empty directory
    (every ``REPRO_OBS=off`` run) returns ``None`` and the summary simply
    omits the section.
    """
    try:
        fold = fold_events(obs_dir)
    except OSError:
        return None
    if fold is None:
        return None
    profile = profile_summary(fold)
    profile["counters"] = fold.get("counters", {})
    profile["n_events"] = fold.get("n_events", 0)
    profile["n_segments"] = fold.get("n_segments", 0)
    return profile


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--obs-dir",
        default=None,
        help=(
            "directory holding REPRO_OBS=full JSONL event segments "
            "(default: REPRO_OBS_DIR or results/obs); folded into the "
            "summary's `profile` section when present"
        ),
    )
    parser.add_argument(
        "--runner-results-dir",
        # cwd-relative, matching the runner's default, so running both tools
        # from the same directory always lines the records up.
        default=os.path.join("results", "experiments"),
        help=(
            "directory holding per-experiment JSON records written by "
            "`python -m repro.experiments.runner --jobs N`; records matching "
            "this summary's scale/max_cores are folded into summary.json"
        ),
    )
    args = parser.parse_args(argv)

    scale = float(os.environ.get("REPRO_SCALE", 0.35))
    max_cores = int(os.environ.get("REPRO_MAX_CORES", 32))
    settings.set_scale(scale)
    settings.set_max_cores(max_cores)

    summary = {"scale": scale, "max_cores": max_cores}
    timings = {}

    runner_records = collect_runner_records(
        args.runner_results_dir, scale=scale, max_cores=max_cores
    )
    if runner_records:
        summary["runner_experiments"] = runner_records
        failed = [r["experiment_id"] for r in runner_records.values() if r.get("status") != "ok"]
        if failed:
            print(f"runner records report failures: {', '.join(failed)}", file=sys.stderr)

    point_records = collect_point_records(
        args.runner_results_dir, scale=scale, max_cores=max_cores
    )
    if point_records:
        summary["sweep_points"] = point_records

    try:
        journal_records = collect_journal_records(args.runner_results_dir)
    except JournalCorruptError as exc:
        print(f"result journal corrupt beyond the recoverable tail: {exc}", file=sys.stderr)
        print(
            "refusing to fold partial campaign data; re-run the campaign or move "
            "the journal directory aside",
            file=sys.stderr,
        )
        return 3
    if journal_records:
        summary["journal"] = journal_records
        if journal_records["truncated_segments"]:
            torn = ", ".join(journal_records["truncated_segments"])
            print(f"journal: recovered torn tail in {torn}", file=sys.stderr)
        quarantined = journal_records["status_counts"].get("quarantined", 0)
        if quarantined:
            print(f"journal: {quarantined} point(s) quarantined", file=sys.stderr)

    obs_dir = args.obs_dir
    if obs_dir is None:
        obs_dir = os.environ.get("REPRO_OBS_DIR") or os.path.join("results", "obs")
    obs_profile = collect_obs_profile(obs_dir)
    if obs_profile is not None:
        summary["profile"] = obs_profile
        print(
            f"obs: folded {obs_profile['n_events']} event(s) from "
            f"{obs_profile['n_segments']} segment(s)",
            file=sys.stderr,
        )

    def timed(name, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        timings[name] = round(time.perf_counter() - start, 1)
        print(f"[{name}] done in {timings[name]}s", flush=True)
        return result

    core_counts = [c for c in (1, 8, 32, 64, 128) if c <= max_cores]

    summary["verification"] = timed("verification", collect_verification)
    if not summary["verification"]["verified"]:
        print(
            "verification lanes report a violation (see summary.json `verification`)",
            file=sys.stderr,
        )

    summary["figure10"] = timed("figure10", figure10_speedups.run, core_counts=core_counts)
    summary["figure11"] = timed(
        "figure11", figure11_amat.run, core_points=[c for c in (8, 32, 128) if c <= max_cores]
    )
    summary["figure2"] = timed(
        "figure2", figure02_histogram_bins.run, bin_counts=(32, 256, 2048, 16384), n_cores=max_cores
    )
    summary["figure12"] = {
        str(bins): rows
        for bins, rows in timed(
            "figure12", figure12_privatization.run, core_counts=core_counts
        ).items()
    }
    summary["figure13_low"] = timed(
        "figure13_low", figure13_refcount.run_immediate, CountMode.LOW, core_counts
    )
    summary["figure13_high"] = timed(
        "figure13_high", figure13_refcount.run_immediate, CountMode.HIGH, core_counts
    )
    summary["figure13_delayed"] = timed(
        "figure13_delayed", figure13_refcount.run_delayed, (1, 10, 100, 400), n_cores=max_cores
    )
    summary["figure8"] = timed(
        "figure8",
        figure08_verification.run,
        core_counts=(1, 2),
        op_counts=(1, 2, 4),
        max_states=150_000,
    )
    summary["traffic"] = timed("traffic", traffic_reduction.run, n_cores=max_cores)
    summary["sensitivity"] = timed("sensitivity", sensitivity_reduction_unit.run, n_cores=max_cores)
    summary["sensitivity_topology"] = timed(
        "sensitivity_topology", sensitivity_topology.run, n_cores=min(16, max_cores)
    )
    summary["table2"] = timed("table2", table2_benchmarks.run)
    summary["timings"] = timings

    os.makedirs(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "results"), exist_ok=True)
    output = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "results", "summary.json"
    )
    with open(output, "w") as handle:
        json.dump(summary, handle, indent=2, default=str)
    print(f"wrote {output}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
