"""Benchmark driver: time one workload of the COUP reproduction end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload campaign --seed 0 --seconds 40 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/METRICS.md``):

``campaign``
    ``python -m repro.experiments.runner --jobs 2`` over every experiment
    at ``REPRO_SCALE=0.05`` and ``REPRO_MAX_CORES=16``, with a fresh results
    directory and no cache.
``paper-grid``
    The five Table 2 workloads under MESI with atomics and COUP with
    commutative updates, 64 cores, in one process.
``hit-run``
    Long private-hit streams at 16 cores: COUP updates to one shared
    counter and MESI reads of a shared array.

Each repetition runs in a fresh interpreter (``child.py``), so every
repetition pays imports and set-up as a user does.  Repetitions are
started until the next one would end after ``--seconds``; at least one
runs.  With ``--trace 0`` the last line of standard output holds the
end-to-end metrics, medians over repetitions; set-up is also sampled by
five interpreters that stop at their first call into a measured layer.
With ``--trace 1``
repetitions alternate between traced (layers wrapped, spans recorded) and
untraced, and the last line holds per-layer metrics, medians over the
traced repetitions, plus the tracing overhead.

Every repetition's outputs are checked: campaign point records against
``references.json`` (and the campaign fingerprint for seed 0), in-process
results by a canonical digest of every ``SimulationResult.to_jsonable()``
against the references shipped for seeds 0-31.  A result that errored or
differs counts as failed.  The simulated model itself is unvalidated: the
references pin this program's own outputs, not measurements of hardware.

Exit status is 0 when a result line was printed (a repetition that crashed
is counted as failed and ends the run), 1 when no repetition completed, 2
when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import spans as sp  # noqa: E402

WORKLOADS = ("campaign", "paper-grid", "hit-run")
REFERENCES = os.path.join(HERE, "references.json")

#: A run that has not finished its repetitions by then kills them: the
#: benchmark must exit within three minutes.
HARD_LIMIT_S = 170.0

#: A traced run makes its first three repetitions unless they are predicted
#: to end after this.
TRACED_PLAN_S = 150.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "accesses_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "passed_frac": "ratio",
}

#: Set-up-only interpreters started before the repetitions of an untraced run.
SETUP_SAMPLES = 5

#: Counts that are a function of the inputs alone and must repeat exactly
#: across traced repetitions.  In a campaign, workers regenerate the traces
#: that function points read unless the same worker already holds them, so
#: there ``workloads.bytes`` depends on scheduling and is not checked.
DETERMINISTIC_COUNTS = ("sim.accesses", "workloads.bytes", "experiments.runner.points")


class RepFailed(RuntimeError):
    """A repetition's process failed or wrote no report."""


def run_rep(
    root: str,
    workdir: str,
    args: argparse.Namespace,
    traced: bool,
    index: int,
    kill_at: float,
    *,
    setup_only: bool = False,
) -> dict:
    """Run one repetition in a fresh interpreter; returns its report plus host usage.

    With ``setup_only`` the interpreter stops at its first call into a
    measured layer, so only ``setup`` is meaningful.
    """
    rep_dir = os.path.join(workdir, f"rep{index}")
    os.makedirs(rep_dir)
    out = os.path.join(rep_dir, "report.json")
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["TMPDIR"] = rep_dir
    command = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", str(int(traced)),
        "--workdir", rep_dir,
        "--out", out,
    ] + (["--setup-only"] if setup_only else [])
    with open(os.path.join(rep_dir, "child.log"), "wb") as log:
        spawn = sp.clock()
        proc = subprocess.Popen(command, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=root, start_new_session=True)
    timer = threading.Timer(max(0.0, kill_at - sp.clock()), _kill_group, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _stop_group(proc.pid)
    if proc.returncode != 0 or not os.path.exists(out):
        with open(os.path.join(rep_dir, "child.log"), "rb") as log:
            tail = log.read()[-4000:].decode(errors="replace")
        raise RepFailed(f"repetition {index} exited with {proc.returncode}:\n{tail}")
    with open(out, encoding="utf-8") as handle:
        report = json.load(handle)
    report["spawn"] = spawn
    report["setup"] = report["t_setup_end"] - spawn
    if setup_only:
        shutil.rmtree(rep_dir, ignore_errors=True)
        return report
    report["wall"] = report["t_done"] - spawn
    report["cpu"] = usage.ru_utime + usage.ru_stime
    report["rss_mb"] = usage.ru_maxrss / 1024.0
    report["traced"] = traced
    if traced:
        span_dir = os.path.join(rep_dir, "spans")
        processes = {}
        for name in sorted(os.listdir(span_dir)):
            processes[int(name.split("-")[1].split(".")[0])] = sp.load(os.path.join(span_dir, name))
        report["layers"] = layers.fold(processes, report["pid"], spawn=spawn, jobs=report.get("jobs", 1))
        report["layers"]["experiments.runner.retries"] = report.get("retries", 0)
        report["layers"]["experiments.runner.quarantined"] = report.get("quarantined", 0)
    shutil.rmtree(rep_dir, ignore_errors=True)
    report["elapsed"] = sp.clock() - spawn
    return report


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _stop_group(pgid: int) -> None:
    """Kill what is left of a repetition's process group and wait until it is gone.

    A campaign leaves ``multiprocessing``'s resource tracker behind for a
    moment after the runner exits.
    """
    _kill_group(pgid)
    deadline = sp.clock() + 5.0
    while sp.clock() < deadline:
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.01)


def check_rep(workload: str, seed: int, report: dict, refs: dict, first: dict) -> tuple:
    """(attempted, failed, accesses) of one repetition, by its output checks.

    ``first`` is the run's first repetition: results must repeat exactly.
    """
    if workload == "campaign":
        ref = refs["campaign"]
        observed = report["points"]
        expected = ref["points"]
        failed = sum(
            1
            for key, want in expected.items()
            if observed.get(key, [None, None]) != ["ok", want]
        )
        failed += sum(1 for key in observed if key not in expected)
        campaign_ok = report["exit_code"] == 0
        fingerprint = ref["fingerprint"].get(str(seed))
        if fingerprint is not None and report["fingerprint"] != fingerprint:
            campaign_ok = False
        attempted = len(expected.keys() | observed.keys()) + 1
        return attempted, failed + (not campaign_ok), ref["sim_accesses"]
    expected = refs[workload]["seeds"].get(str(seed))
    failed = 0
    for label, point in report["points"].items():
        bad = point["retired"] != point["accesses"]
        if expected is not None and point["digest"] != expected.get(label):
            bad = True
        if point["digest"] != first["points"].get(label, {}).get("digest"):
            bad = True
        failed += bad
    if expected is not None:
        failed += len(expected.keys() - report["points"].keys())
    attempted = len(report["points"]) if expected is None else len(expected.keys() | report["points"].keys())
    return attempted, failed, sum(point["accesses"] for point in report["points"].values())


def points_per_rep(workload: str, refs: dict) -> int:
    """Points (and campaign-level checks) one repetition attempts."""
    if workload == "campaign":
        return len(refs["campaign"]["points"]) + 1
    return len(refs[workload]["seeds"]["0"])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(reps: List[dict], setups: List[float], accesses: List[int], attempted: int, failed: int) -> Dict[str, dict]:
    values = {
        "wall_s": statistics.median(r["wall"] for r in reps),
        "accesses_per_s": statistics.median(a / r["wall"] for r, a in zip(reps, accesses)),
        "cpu_s": statistics.median(r["cpu"] for r in reps),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
        "setup_s": statistics.median(setups),
        "passed_frac": 1.0 - failed / attempted,
    }
    return {name: _metric(value, END_TO_END_UNITS[name]) for name, value in values.items()}


def per_layer(traced: List[dict], untraced: List[dict]) -> Dict[str, dict]:
    folded = [r["layers"] for r in traced]
    values = layers.median_metrics(folded)
    for name in ("core.resolve_slow.calls", "core.merge.calls"):
        counts = [f[name] for f in folded]
        values[name.replace(".calls", ".calls_spread")] = max(counts) - min(counts)
    values["trace.overhead_s"] = statistics.median(r["wall"] for r in traced) - statistics.median(
        r["wall"] for r in untraced
    )
    return {name: _metric(value, layers.unit_of(name)) for name, value in sorted(values.items())}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"no program to measure: {src}/repro is missing (run from the repository root)", file=sys.stderr)
        return 2
    if not compileall.compile_dir(src, quiet=1):
        print("byte-compiling src/ failed", file=sys.stderr)
        return 2
    with open(REFERENCES, encoding="utf-8") as handle:
        refs = json.load(handle)

    start = sp.clock()
    kill_at = start + HARD_LIMIT_S
    workdir = os.path.join(root, ".perfbench_run", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    reps: List[dict] = []
    setups: List[float] = []
    failed_reps = 0
    try:
        if not args.trace:
            # Set-up is short, so it is sampled more often than the work:
            # interpreters that stop at their first call into a measured layer.
            for index in range(SETUP_SAMPLES):
                setups.append(run_rep(root, workdir, args, False, -1 - index, kill_at, setup_only=True)["setup"])
        while True:
            # A traced run alternates traced and untraced repetitions and
            # makes at least three (traced, untraced, traced), so it measures
            # both the tracing overhead and the repetition-to-repetition
            # spread of dispatch counts.
            traced = bool(args.trace) and len(reps) % 2 == 0
            rep = run_rep(root, workdir, args, traced, len(reps), kill_at)
            reps.append(rep)
            setups.append(rep["setup"])
            print(
                f"[perfbench] {args.workload} rep {len(reps) - 1}{' traced' if traced else ''}: "
                f"wall {rep['wall']:.3f} s, setup {rep['setup']:.3f} s, cpu {rep['cpu']:.2f} s, "
                f"rss {rep['rss_mb']:.0f} MB",
                file=sys.stderr,
            )
            elapsed = sp.clock() - start
            next_traced = bool(args.trace) and len(reps) % 2 == 0
            same = [r["elapsed"] for r in reps if r["traced"] == next_traced]
            predicted = elapsed + statistics.median(same or [r["elapsed"] for r in reps])
            budget = TRACED_PLAN_S if args.trace and len(reps) < 3 else args.seconds
            if predicted > budget:
                break
    except RepFailed as exc:
        # A crashed or killed repetition fails every point it attempted;
        # the run stops there and reports what completed before it.
        print(exc, file=sys.stderr)
        failed_reps = 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    if not reps or (args.trace and len({r["traced"] for r in reps}) < 2):
        return 1  # nothing measured (a traced run needs both kinds of repetition)

    attempted = failed = failed_reps * points_per_rep(args.workload, refs)
    accesses: List[int] = []
    for rep in reps:
        a, f, n = check_rep(args.workload, args.seed, rep, refs, reps[0])
        attempted, failed, accesses = attempted + a, failed + f, accesses + [n]
    traced_reps = [r for r in reps if r["traced"]]
    untraced_reps = [r for r in reps if not r["traced"]]
    if args.trace:
        for name in DETERMINISTIC_COUNTS:
            if args.workload == "campaign" and name == "workloads.bytes":
                continue
            seen = {r["layers"][name] for r in traced_reps}
            attempted += 1
            failed += len(seen) != 1
        if args.workload == "campaign":
            attempted += 1
            failed += {r["layers"]["sim.accesses"] for r in traced_reps} != {refs["campaign"]["sim_accesses"]}
        metrics = per_layer(traced_reps, untraced_reps)
    else:
        metrics = end_to_end(reps, setups, accesses, attempted, failed)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
