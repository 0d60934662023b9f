"""Scalable Non-Zero Indicator (SNZI) software baseline.

SNZI keeps a global reference count in a tree of counters: threads increment
and decrement at their own leaf and propagate an update to the parent only
when the leaf's surplus crosses zero, so readers only need to check the root
to learn whether the count is non-zero.  This makes non-zero checks cheap and
spreads update contention across leaves, at the cost of extra space and of
propagation traffic whenever leaf surpluses oscillate around zero (which is
exactly the low-count regime of the paper's Fig. 13a, where SNZI loses to a
flat counter).

This model generates the *memory access stream* a SNZI implementation would
issue — atomic updates to leaf/intermediate nodes, plus a load of the root on
queries — so the coherence simulator can compare it against flat XADD counters
and COUP commutative updates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.core.commutative import CommutativeOp
from repro.sim.access import AccessType
from repro.sim.columnar import VK_INT, VK_NONE, ColumnBuilder, code_for

if TYPE_CHECKING:
    # Annotation only: repro.workloads imports this module.
    from repro.workloads.base import AddressMap

#: Packed codes of SNZI's two access shapes: an atomic add to a node, and
#: the root load of a non-zero query.
_NODE_ADD_CODE = code_for(AccessType.ATOMIC_RMW, CommutativeOp.ADD_I64, 8, VK_INT)
_ROOT_LOAD_CODE = code_for(AccessType.LOAD, None, 8, VK_NONE)

#: Think instructions per node update and per root query.
_NODE_THINK = 4
_QUERY_THINK = 2


class SnziTree:
    """A binary SNZI tree with one leaf per thread, per shared object.

    The functional model tracks per-node surpluses so the generated access
    stream contains parent propagation exactly when a real SNZI would perform
    it (leaf surplus 0 -> 1 on arrival, 1 -> 0 on departure).  Each operation
    appends its accesses to a :class:`~repro.sim.columnar.ColumnBuilder`.
    """

    def __init__(
        self,
        addresses: AddressMap,
        object_id: int,
        n_threads: int,
        *,
        node_bytes: int = 64,
    ) -> None:
        self.addresses = addresses
        self.object_id = object_id
        self.n_leaves = max(1, n_threads)
        self.node_bytes = node_bytes
        # Heap-style tree layout: node 0 is the root.
        self.n_nodes = 2 * self.n_leaves - 1
        self._surplus: Dict[int, int] = {}
        #: Base of the tree's region, allocated on the first node access.
        self._base: Optional[int] = None

    def _node_address(self, node: int) -> int:
        # Nodes are padded to a cache line each to avoid false sharing, as the
        # SNZI paper recommends; this is part of SNZI's space overhead.
        if self._base is None:
            self._base = self.addresses.region(f"snzi_obj{self.object_id}")
        return self._base + node * self.node_bytes

    def _leaf_of_thread(self, thread_id: int) -> int:
        return (self.n_nodes - self.n_leaves) + (thread_id % self.n_leaves)

    def _propagate(self, thread_id: int, delta: int, out: ColumnBuilder, think: int) -> None:
        """Add ``delta`` at the thread's leaf, climbing while the surplus crosses zero."""
        node = self._leaf_of_thread(thread_id)
        gap = _NODE_THINK + think
        while True:
            out.append(_NODE_ADD_CODE, self._node_address(node), delta, gap)
            gap = _NODE_THINK
            surplus = self._surplus.get(node, 0) + delta
            self._surplus[node] = surplus
            # Arrival propagates on 0 -> 1, departure on 1 -> 0.
            crossed_zero = surplus == (1 if delta > 0 else 0)
            if not crossed_zero or node == 0:
                break
            node = (node - 1) // 2

    def arrive(self, thread_id: int, out: ColumnBuilder, think: int = 0) -> None:
        """Append an increment (reference acquisition); ``think`` extra
        instructions are charged to its first access."""
        self._propagate(thread_id, 1, out, think)

    def depart(self, thread_id: int, out: ColumnBuilder, think: int = 0) -> None:
        """Append a decrement (reference release); ``think`` extra
        instructions are charged to its first access."""
        self._propagate(thread_id, -1, out, think)

    def query(self, _thread_id: int, out: ColumnBuilder) -> None:
        """Append a non-zero check (read of the root)."""
        out.append(_ROOT_LOAD_CODE, self._node_address(0), 0, _QUERY_THINK)

    @property
    def footprint_bytes(self) -> int:
        """Space overhead of the tree for this object."""
        return self.n_nodes * self.node_bytes
