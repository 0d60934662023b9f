"""Software privatization: the software counterpart of COUP (Sec. 2.2, 4.1).

Privatization keeps one replica of the reduction variable per thread (or per
socket); threads update their replica with plain stores (or with atomics, for
socket-level sharing) and a separate *reduction phase* folds all replicas into
the shared result.  The technique removes coherence traffic from the update
phase, at the cost of

* a reduction phase whose work grows with ``n_replicas * n_elements``, and
* an ``n_replicas``-fold increase in memory footprint, which pressures the
  shared caches when the reduction variable is large (Sec. 5.3).

This module provides column builders that turn a logical stream of updates
per core into the privatized update phase plus reduction phase, so any
workload with reduction-variable structure (histogram is the paper's example)
can be expressed in privatized form.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.core.commutative import CommutativeOp
from repro.sim.access import AccessType
from repro.sim.columnar import ACCESS_DTYPE, VK_NONE, code_for, encode_value, make_columns

if TYPE_CHECKING:
    # Annotation only: repro.workloads imports this module.
    from repro.workloads.base import AddressMap

#: Packed codes of the plain 8-byte accesses privatization emits (replica
#: read-modify-writes and the reduction's loads and stores).
_LOAD_CODE = code_for(AccessType.LOAD, None, 8, VK_NONE)
_STORE_CODE = code_for(AccessType.STORE, None, 8, VK_NONE)


class PrivatizationLevel(enum.Enum):
    """Granularity at which replicas are created."""

    #: One replica per core ("thread-local" privatization).
    CORE = "core"
    #: One replica per socket, updated with atomics by the socket's cores.
    SOCKET = "socket"


@dataclass
class PrivatizedReductionPlan:
    """Layout of a privatized reduction variable.

    Attributes
    ----------
    n_elements:
        Number of elements in the logical reduction variable.
    element_bytes:
        Size of each element.
    op:
        Commutative operation used to combine per-replica values.
    level:
        Replication granularity.
    n_replicas:
        Number of replicas (cores or sockets).
    """

    n_elements: int
    element_bytes: int
    op: CommutativeOp
    level: PrivatizationLevel
    n_replicas: int

    @property
    def footprint_bytes(self) -> int:
        """Total memory footprint of all replicas (the privatization cost)."""
        return self.n_elements * self.element_bytes * self.n_replicas


class PrivatizedReductionBuilder:
    """Builds packed per-core columns for a privatized reduction variable.

    The caller supplies, per core, the element indices of its logical
    updates.  The builder produces:

    * an **update phase**, where each core updates its replica —
      with plain load/store pairs for core-level privatization (the replica
      is thread-private) or atomic adds for socket-level privatization
      (the replica is shared by the socket's cores), and
    * a **reduction phase**, where the elements are partitioned among cores
      and each core folds every replica's value for its elements into the
      shared result array.

    Replica and shared regions are allocated lazily, in first-use order,
    and a phase with no records allocates nothing: the address layout
    depends on that order.
    """

    def __init__(
        self,
        plan: PrivatizedReductionPlan,
        addresses: AddressMap,
        *,
        array_name: str = "reduction",
        replica_of_core: Optional[Callable[[int], int]] = None,
    ) -> None:
        self.plan = plan
        self.addresses = addresses
        self.array_name = array_name
        self.replica_of_core = replica_of_core or (lambda core: core)

    def _replica_base(self, replica: int) -> int:
        return self.addresses.region(f"{self.array_name}_replica_{replica}")

    # -- update phase -----------------------------------------------------------

    def update_phase(self, core_id: int, elements: np.ndarray, value, think: int) -> np.ndarray:
        """Columns of one core's updates applied to its replica.

        Every update adds ``value`` to ``elements[i]`` of the replica, with
        ``think`` instructions before it.
        """
        n_updates = len(elements)
        if not n_updates:
            return np.empty(0, dtype=ACCESS_DTYPE)
        base = self._replica_base(self.replica_of_core(core_id))
        addresses = base + np.asarray(elements, dtype=np.uint64) * self.plan.element_bytes
        if self.plan.level is PrivatizationLevel.CORE:
            # Thread-private replica: read-modify-write with plain accesses.
            return make_columns(
                np.tile([_LOAD_CODE, _STORE_CODE], n_updates),
                np.repeat(addresses, 2),
                0,
                np.tile([think, 1], n_updates),
            )
        # Socket-shared replica: atomics are still required.
        op = self.plan.op
        value_kind, delta = encode_value(value)
        code = code_for(AccessType.ATOMIC_RMW, op, op.word_bytes, value_kind)
        return make_columns(code, addresses, delta, think)

    # -- reduction phase ---------------------------------------------------------

    def reduction_phase(self, core_id: int, n_cores: int) -> np.ndarray:
        """Columns of one core's share of the final reduction.

        Elements are block-partitioned among cores; for each of its elements
        the core loads every replica's value and stores the combined result
        into the shared array.  This is the phase whose cost grows with the
        number of elements and replicas, and which COUP eliminates.
        """
        n_elements = self.plan.n_elements
        first = (n_elements * core_id) // n_cores
        stop = (n_elements * (core_id + 1)) // n_cores
        if first == stop:
            return np.empty(0, dtype=ACCESS_DTYPE)
        # Per element: one load per replica, then the shared store — a
        # (elements x (replicas + 1)) address grid, flattened row-major.
        bases = [self._replica_base(replica) for replica in range(self.plan.n_replicas)]
        bases.append(self.addresses.region(f"{self.array_name}_shared"))
        offsets = np.arange(first, stop, dtype=np.uint64) * self.plan.element_bytes
        grid = offsets[:, None] + np.asarray(bases, dtype=np.uint64)[None, :]
        codes = np.full(grid.shape, _LOAD_CODE, dtype=np.uint8)
        codes[:, -1] = _STORE_CODE
        return make_columns(codes.ravel(), grid.ravel(), 0, 1)


def socket_of_core(cores_per_socket: int) -> Callable[[int], int]:
    """Replica-assignment function for socket-level privatization."""

    def _socket(core_id: int) -> int:
        return core_id // cores_per_socket

    return _socket
