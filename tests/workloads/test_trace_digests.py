"""Frozen SHA-256 digests of every generated trace family.

Each workload emits its packed columns directly (``generate_columnar``,
``generate_privatized``, the SNZI/Refcache emitters, the differential
lane's ``stream_workload``).  ``trace_digests.json`` pins the exact trace
each case produces: every column's bytes, the phase boundaries, the trace
name and its params.  The stored digests were captured from the former
object-form generators packed with ``ColumnarTrace.from_workload``, so a
match here means the column emitters reproduce those traces record for
record — including the address layout, which depends on the order in which
``AddressMap`` regions are first allocated.

Regenerate the digest file (only after an *intentional* trace change)::

    PYTHONPATH=src python tests/workloads/test_trace_digests.py --regen
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.sim.columnar import ColumnarTrace
from repro.software.privatization import PrivatizationLevel
from repro.verification.differential import StreamConfig, generate_stream, stream_workload
from repro.workloads import UpdateStyle
from repro.workloads.bfs import BfsWorkload
from repro.workloads.fluidanimate import FluidanimateWorkload
from repro.workloads.histogram import HistogramWorkload
from repro.workloads.pagerank import PageRankWorkload
from repro.workloads.refcount import (
    CountMode,
    DelayedRefcountWorkload,
    ImmediateRefcountWorkload,
    RefcountScheme,
)
from repro.workloads.spmv import SpmvWorkload
from repro.workloads.synthetic import (
    FalseSharingWorkload,
    InterleavedReadUpdateWorkload,
    MixedOpWorkload,
    MultiCounterWorkload,
    ReadOnlyWorkload,
    ScalarReductionWorkload,
    SharedCounterWorkload,
)

DIGEST_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "trace_digests.json")

UPDATE_STYLES = tuple(UpdateStyle)

#: Factories for every workload family; each call returns a fresh instance
#: (trace builders allocate address regions on first use, so instances are
#: never reused across cases).
WORKLOAD_FACTORIES = {
    "hist": lambda style: HistogramWorkload(
        n_bins=32, n_items=400, update_style=style
    ),
    "hist-skew": lambda style: HistogramWorkload(
        n_bins=32, n_items=400, skew=0.7, update_style=style
    ),
    "spmv": lambda style: SpmvWorkload(
        n_rows=64, n_cols=72, nnz_per_col=4, update_style=style
    ),
    "pgrank": lambda style: PageRankWorkload(
        n_vertices=96, avg_degree=4, n_iterations=2, update_style=style
    ),
    "bfs": lambda style: BfsWorkload(
        n_vertices=160, avg_degree=5, max_levels=4, update_style=style
    ),
    "fluidanimate": lambda style: FluidanimateWorkload(
        grid_x=6, grid_y=20, n_steps=2, update_style=style
    ),
    "shared-counter": lambda style: SharedCounterWorkload(
        updates_per_core=40, update_style=style
    ),
    "multi-counter": lambda style: MultiCounterWorkload(
        n_counters=16, updates_per_core=40, update_style=style
    ),
    "multi-counter-hot": lambda style: MultiCounterWorkload(
        n_counters=16, updates_per_core=40, hot_fraction=0.4, update_style=style
    ),
    "false-sharing": lambda style: FalseSharingWorkload(
        updates_per_core=30, update_style=style
    ),
    "scalar-reduction": lambda style: ScalarReductionWorkload(
        items_per_core=25, update_style=style
    ),
    "interleaved": lambda style: InterleavedReadUpdateWorkload(
        rounds=12, updates_per_read=3, update_style=style
    ),
}

#: Style-less workloads (they fix their own update style or scheme).
FIXED_FACTORIES = {
    "read-only": lambda: ReadOnlyWorkload(reads_per_core=40),
    "mixed-ops": lambda: MixedOpWorkload(updates_per_core=140, switch_every=7),
    "refcount-xadd": lambda: ImmediateRefcountWorkload(
        n_counters=48, updates_per_thread=80, scheme=RefcountScheme.XADD
    ),
    "refcount-coup-high": lambda: ImmediateRefcountWorkload(
        n_counters=48,
        updates_per_thread=80,
        scheme=RefcountScheme.COUP,
        count_mode=CountMode.HIGH,
    ),
    "refcount-snzi": lambda: ImmediateRefcountWorkload(
        n_counters=24, updates_per_thread=50, scheme=RefcountScheme.SNZI
    ),
    "refcount-delayed-coup": lambda: DelayedRefcountWorkload(
        n_counters=128, updates_per_epoch=30, n_epochs=2, scheme=RefcountScheme.COUP
    ),
    "refcount-delayed-refcache": lambda: DelayedRefcountWorkload(
        n_counters=128, updates_per_epoch=30, n_epochs=2, scheme=RefcountScheme.REFCACHE
    ),
}


def _all_cases():
    for name, factory in WORKLOAD_FACTORIES.items():
        for style in UPDATE_STYLES:
            yield f"{name}/{style.value}", (lambda f=factory, s=style: f(s))
    for name, factory in FIXED_FACTORIES.items():
        yield name, factory


#: One fresh workload per case, every family and update style.
CASES = dict(_all_cases())

#: Software baselines at further core counts: SNZI trees and Refcache
#: caches scale with the thread count.
BASELINE_CASES = {
    "refcount-snzi-high": lambda: ImmediateRefcountWorkload(
        n_counters=16,
        updates_per_thread=40,
        scheme=RefcountScheme.SNZI,
        count_mode=CountMode.HIGH,
    ),
    "refcount-snzi": FIXED_FACTORIES["refcount-snzi"],
    "refcount-delayed-refcache": FIXED_FACTORIES["refcount-delayed-refcache"],
    "refcount-delayed-refcache-3ep": lambda: DelayedRefcountWorkload(
        n_counters=64, updates_per_epoch=20, n_epochs=3, scheme=RefcountScheme.REFCACHE
    ),
}

#: Privatized histograms: (factory, level, cores_per_socket).  The few-bin
#: and few-item cases leave some cores with no reduction elements or no
#: updates at the larger core counts.
PRIVATIZED_CASES = {
    "hist-priv/core": (
        lambda: HistogramWorkload(n_bins=32, n_items=400),
        PrivatizationLevel.CORE,
        16,
    ),
    "hist-priv/socket": (
        lambda: HistogramWorkload(n_bins=32, n_items=400),
        PrivatizationLevel.SOCKET,
        16,
    ),
    "hist-priv/socket4": (
        lambda: HistogramWorkload(n_bins=32, n_items=400),
        PrivatizationLevel.SOCKET,
        4,
    ),
    "hist-priv-fewbins/core": (
        lambda: HistogramWorkload(n_bins=5, n_items=300, skew=0.5),
        PrivatizationLevel.CORE,
        16,
    ),
    "hist-priv-fewbins/socket4": (
        lambda: HistogramWorkload(n_bins=5, n_items=300, skew=0.5),
        PrivatizationLevel.SOCKET,
        4,
    ),
    "hist-priv-fewitems/core": (
        lambda: HistogramWorkload(n_bins=3, n_items=12),
        PrivatizationLevel.CORE,
        16,
    ),
    "hist-priv-fewitems/socket": (
        lambda: HistogramWorkload(n_bins=3, n_items=12),
        PrivatizationLevel.SOCKET,
        16,
    ),
}

#: Differential-lane streams, one per live protocol.
STREAM_CASES = {
    "stream/MESI": StreamConfig(protocol="MESI", n_cores=2, n_addresses=2, length=48, seed=3),
    "stream/COUP": StreamConfig(protocol="COUP", n_cores=3, n_addresses=3, length=64, seed=5),
    "stream/RMO": StreamConfig(protocol="RMO", n_cores=2, n_addresses=2, length=40, seed=11),
}


def materialize_workload(factory, n_cores: int) -> ColumnarTrace:
    return factory().generate_columnar(n_cores)


def materialize_privatized(factory, level, cores_per_socket: int, n_cores: int) -> ColumnarTrace:
    return factory().generate_privatized(
        n_cores, level=level, cores_per_socket=cores_per_socket
    )


def materialize_stream(config: StreamConfig) -> ColumnarTrace:
    return stream_workload(config, generate_stream(config))


def digest_cases():
    """``{case id: zero-argument producer of the ColumnarTrace}``."""
    cases = {}
    for name, factory in CASES.items():
        for n_cores in (1, 3, 6):
            cases[f"{name}@{n_cores}"] = lambda f=factory, n=n_cores: materialize_workload(f, n)
    for name, factory in BASELINE_CASES.items():
        for n_cores in (2, 8, 17):
            cases[f"{name}@{n_cores}"] = lambda f=factory, n=n_cores: materialize_workload(f, n)
    for name, (factory, level, cps) in PRIVATIZED_CASES.items():
        for n_cores in (1, 3, 6, 17, 20):
            cases[f"{name}@{n_cores}"] = (
                lambda f=factory, lv=level, c=cps, n=n_cores: materialize_privatized(f, lv, c, n)
            )
    for name, config in STREAM_CASES.items():
        cases[name] = lambda c=config: materialize_stream(c)
    return cases


DIGEST_CASES = digest_cases()


def trace_digest(trace: ColumnarTrace) -> str:
    """SHA-256 over the name, params, phase boundaries and every column."""
    sha = hashlib.sha256()
    header = {
        "name": trace.name,
        "params": trace.params,
        "phase_boundaries": trace.phase_boundaries,
        "lengths": [len(column) for column in trace.columns],
    }
    sha.update(json.dumps(header, sort_keys=True).encode())
    for column in trace.columns:
        sha.update(column.tobytes())
    return sha.hexdigest()


def compute_digests() -> dict:
    return {case: trace_digest(produce()) for case, produce in sorted(DIGEST_CASES.items())}


@pytest.fixture(scope="module")
def stored_digests() -> dict:
    with open(DIGEST_PATH) as handle:
        return json.load(handle)


def test_digest_file_covers_every_case(stored_digests):
    assert sorted(stored_digests) == sorted(DIGEST_CASES)


@pytest.mark.parametrize("case", sorted(DIGEST_CASES))
def test_trace_matches_frozen_digest(case, stored_digests):
    trace = DIGEST_CASES[case]()
    assert isinstance(trace, ColumnarTrace)
    assert trace_digest(trace) == stored_digests[case], (
        f"{case}: trace diverged from the frozen digest; regenerate with --regen "
        "only after an intentional trace change"
    )


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--regen", action="store_true", help="rewrite the digest file")
    args = parser.parse_args()
    if not args.regen:
        parser.error("pass --regen to rewrite the digest file")
    digests = compute_digests()
    with open(DIGEST_PATH, "w") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {DIGEST_PATH} ({len(digests)} cases)")


if __name__ == "__main__":
    main()
