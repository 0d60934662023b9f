"""Statistics collected by the timing simulator.

The central structures mirror what the paper reports:

* per-access latency broken down by hierarchy level (Fig. 11's AMAT stacks),
* off-chip traffic (Sec. 5.2's traffic-reduction factors),
* per-core run times from which speedups are computed (Fig. 10, 12, 13).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


#: Components of the AMAT breakdown, in the stacking order used by Fig. 11.
AMAT_COMPONENTS = (
    "l2",
    "l3",
    "offchip_network",
    "l4_invalidations",
    "l4",
    "main_memory",
)


@dataclass(slots=True)
class LatencyBreakdown:
    """Critical-path latency of one access (or an accumulated average).

    Every field is in core cycles.  ``l4_invalidations`` covers the
    critical-path delay a request suffers because other sharers must be
    invalidated, downgraded, or reduced — the component COUP attacks.
    """

    l1: float = 0.0
    l2: float = 0.0
    l3: float = 0.0
    offchip_network: float = 0.0
    l4: float = 0.0
    l4_invalidations: float = 0.0
    main_memory: float = 0.0
    serialization: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.l1
            + self.l2
            + self.l3
            + self.offchip_network
            + self.l4
            + self.l4_invalidations
            + self.main_memory
            + self.serialization
        )

    def add(self, other: "LatencyBreakdown") -> None:
        self.l1 += other.l1
        self.l2 += other.l2
        self.l3 += other.l3
        self.offchip_network += other.offchip_network
        self.l4 += other.l4
        self.l4_invalidations += other.l4_invalidations
        self.main_memory += other.main_memory
        self.serialization += other.serialization

    def scaled(self, factor: float) -> "LatencyBreakdown":
        return LatencyBreakdown(
            l1=self.l1 * factor,
            l2=self.l2 * factor,
            l3=self.l3 * factor,
            offchip_network=self.offchip_network * factor,
            l4=self.l4 * factor,
            l4_invalidations=self.l4_invalidations * factor,
            main_memory=self.main_memory * factor,
            serialization=self.serialization * factor,
        )

    def as_dict(self, include_l1: bool = False) -> Dict[str, float]:
        """AMAT components keyed as in Fig. 11.

        Serialization delay at the directory is folded into the
        ``l4_invalidations`` component, since in the paper that is where
        contended atomic updates show up (waiting for other sharers).
        """
        result = {
            "l2": self.l2,
            "l3": self.l3,
            "offchip_network": self.offchip_network,
            "l4_invalidations": self.l4_invalidations + self.serialization,
            "l4": self.l4,
            "main_memory": self.main_memory,
        }
        if include_l1:
            result["l1"] = self.l1
        return result


@dataclass(slots=True)
class CoreStats:
    """Per-core execution statistics."""

    core_id: int
    finish_time: float = 0.0
    memory_cycles: float = 0.0
    compute_cycles: float = 0.0
    accesses: int = 0
    loads: int = 0
    stores: int = 0
    atomics: int = 0
    commutative_updates: int = 0
    remote_updates: int = 0
    l1_hits: int = 0
    latency: LatencyBreakdown = field(default_factory=LatencyBreakdown)

    @property
    def amat(self) -> float:
        """Average memory access time over this core's accesses."""
        return self.latency.total / self.accesses if self.accesses else 0.0


@dataclass(slots=True)
class LinkStats:
    """Per-link utilization report from the interconnect contention model.

    Field order matches the key order the legacy dict report used, so the
    serialized form (:meth:`to_jsonable`) is byte-identical to records
    written before this became a dataclass.
    """

    #: Topology name (``single_switch``, ``ring``, ...).
    topology: str
    #: Contention-epoch length in cycles.
    epoch_cycles: float
    #: Per-link bandwidth used to compute utilizations.
    link_bandwidth_bytes_per_cycle: float
    #: Per-link ``{"bytes": ..., "utilization": ...}``, keyed by the
    #: canonical link label, sorted.
    links: Dict[str, Dict[str, float]]
    #: Directory-bank request totals keyed by ``"<node>.b<bank>"``.
    bank_requests: Dict[str, int]
    max_link_utilization: float
    mean_link_utilization: float
    #: Total contention waiting time charged across the run.
    surcharge_cycles: float
    offchip_transfers: int

    def to_jsonable(self) -> dict:
        """JSON-native projection (the explicit inverse of :meth:`from_jsonable`)."""
        return {
            "topology": self.topology,
            "epoch_cycles": self.epoch_cycles,
            "link_bandwidth_bytes_per_cycle": self.link_bandwidth_bytes_per_cycle,
            "links": {label: dict(entry) for label, entry in sorted(self.links.items())},
            "bank_requests": dict(self.bank_requests),
            "max_link_utilization": self.max_link_utilization,
            "mean_link_utilization": self.mean_link_utilization,
            "surcharge_cycles": self.surcharge_cycles,
            "offchip_transfers": self.offchip_transfers,
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "LinkStats":
        """Rebuild from :meth:`to_jsonable` output.

        No numeric coercion: values pass through exactly as JSON decoded
        them, so a serialize/deserialize round trip is bit-identical.
        """
        return cls(
            topology=data["topology"],
            epoch_cycles=data["epoch_cycles"],
            link_bandwidth_bytes_per_cycle=data["link_bandwidth_bytes_per_cycle"],
            links={label: dict(entry) for label, entry in sorted(data["links"].items())},
            bank_requests=dict(data["bank_requests"]),
            max_link_utilization=data["max_link_utilization"],
            mean_link_utilization=data["mean_link_utilization"],
            surcharge_cycles=data["surcharge_cycles"],
            offchip_transfers=data["offchip_transfers"],
        )


@dataclass(slots=True)
class SimulationResult:
    """Outcome of one simulation run."""

    protocol: str
    workload: str
    n_cores: int
    core_stats: List[CoreStats]
    run_cycles: float
    offchip_bytes: int
    onchip_bytes: int
    reductions: int = 0
    partial_reductions: int = 0
    invalidations: int = 0
    downgrades: int = 0
    final_values: Optional[dict] = None
    params: dict = field(default_factory=dict)
    #: Off-chip + on-chip bytes broken down by coherence message type.
    bytes_by_type: Optional[Dict[str, int]] = None
    #: Per-link utilization report from the interconnect contention model
    #: (None unless the run had contention enabled).
    link_stats: Optional[LinkStats] = None

    @property
    def total_accesses(self) -> int:
        return sum(stats.accesses for stats in self.core_stats)

    @property
    def amat(self) -> float:
        """Average memory access time across all cores' accesses."""
        total_latency = sum(stats.latency.total for stats in self.core_stats)
        total_accesses = self.total_accesses
        return total_latency / total_accesses if total_accesses else 0.0

    def amat_breakdown(self) -> Dict[str, float]:
        """Average per-access latency split by component (Fig. 11)."""
        total_accesses = self.total_accesses
        accumulated = LatencyBreakdown()
        for stats in self.core_stats:
            accumulated.add(stats.latency)
        if total_accesses == 0:
            return {component: 0.0 for component in AMAT_COMPONENTS}
        per_access = accumulated.scaled(1.0 / total_accesses)
        return per_access.as_dict()

    def to_jsonable(self) -> dict:
        """Represent the result with JSON-native types only.

        The sweep engine persists completed points as JSON; the round trip
        through :meth:`from_jsonable` is bit-identical because JSON keeps
        ints exact and floats via shortest-repr.  ``final_values`` keys are
        int addresses, which JSON objects cannot hold, so they are stored as
        ``[address, value]`` pairs — sorted by address, so the serialized
        form is canonical: the memory image's dict insertion order depends
        on which simulation path ran (the batched kernel may interleave
        cores' first writes differently from the retire loop), but the
        per-address values are pinned identical.
        """
        from dataclasses import asdict

        data = asdict(self)  # recurses into CoreStats and LatencyBreakdown
        if self.final_values is not None:
            data["final_values"] = [
                [address, value] for address, value in sorted(self.final_values.items())
            ]
        if self.link_stats is not None:
            # Explicit projection (asdict's recursion happens to agree, but
            # the serialized form is a contract, not an accident).
            data["link_stats"] = self.link_stats.to_jsonable()
        return data

    @classmethod
    def from_jsonable(cls, data: dict) -> "SimulationResult":
        """Rebuild a result previously serialized with :meth:`to_jsonable`."""
        data = dict(data)
        data["core_stats"] = [
            CoreStats(
                **{**stats, "latency": LatencyBreakdown(**stats["latency"])}
            )
            for stats in data["core_stats"]
        ]
        if data.get("final_values") is not None:
            data["final_values"] = {
                address: value for address, value in data["final_values"]
            }
        if data.get("link_stats") is not None and not isinstance(
            data["link_stats"], LinkStats
        ):
            data["link_stats"] = LinkStats.from_jsonable(data["link_stats"])
        return cls(**data)

    def speedup_over(self, baseline: "SimulationResult") -> float:
        """Speedup of this run relative to a baseline run (same workload)."""
        if self.run_cycles <= 0:
            raise ValueError("run has non-positive duration")
        return baseline.run_cycles / self.run_cycles

    def summary(self) -> dict:
        """Compact dictionary used by experiment tables and EXPERIMENTS.md."""
        result = {
            "protocol": self.protocol,
            "workload": self.workload,
            "n_cores": self.n_cores,
            "run_cycles": self.run_cycles,
            "amat": self.amat,
            "offchip_bytes": self.offchip_bytes,
            "onchip_bytes": self.onchip_bytes,
            "reductions": self.reductions,
            "partial_reductions": self.partial_reductions,
            "invalidations": self.invalidations,
        }
        if self.bytes_by_type is not None:
            result["bytes_by_type"] = dict(self.bytes_by_type)
        if self.link_stats is not None:
            result["max_link_utilization"] = self.link_stats.max_link_utilization
            result["mean_link_utilization"] = self.link_stats.mean_link_utilization
            result["contention_surcharge_cycles"] = self.link_stats.surcharge_cycles
        return result


def speedup_curve(
    baseline_single_core: SimulationResult, runs: List[SimulationResult]
) -> List[dict]:
    """Speedups relative to a single-core baseline run (Fig. 10 normalisation)."""
    rows = []
    for run in runs:
        rows.append(
            {
                "protocol": run.protocol,
                "n_cores": run.n_cores,
                "speedup": baseline_single_core.run_cycles / run.run_cycles,
            }
        )
    return rows
