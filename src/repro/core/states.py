"""Coherence states and request types for the MESI / MEUSI protocol family.

The timing simulator operates on *stable* states (Sec. 3.1/3.2 of the paper);
the transient-state machinery needed for race-freedom on an unordered network
lives in :mod:`repro.verification`, which models the full Fig. 7 state
machines.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.core.commutative import CommutativeOp


class StableState(enum.Enum):
    """Stable states of a line in a private cache.

    ``MODIFIED``/``EXCLUSIVE``/``SHARED``/``INVALID`` are the conventional
    MESI states.  ``UPDATE`` is COUP's update-only state (U): the cache may
    buffer commutative updates of the line's current operation type, but may
    not satisfy reads.  Which accesses each state satisfies locally is the
    engines' hit table (:func:`repro.core.protocol.hit_table`).
    """

    INVALID = "I"
    SHARED = "S"
    EXCLUSIVE = "E"
    MODIFIED = "M"
    UPDATE = "U"


class RequestType(enum.Enum):
    """Request classes a core can issue to the memory system (Fig. 4)."""

    READ = "R"
    WRITE = "W"
    COMMUTATIVE = "C"


class LineMode(enum.Enum):
    """Directory-visible mode of a line (Sec. 3.3).

    A line is either uncached, held exclusively by one private cache,
    held read-only by one or more caches, or held update-only by one or
    more caches (COUP's addition).
    """

    UNCACHED = "uncached"
    EXCLUSIVE = "exclusive"
    READ_ONLY = "read_only"
    UPDATE_ONLY = "update_only"


class NonExclusiveType:
    """Operation type tag of the generalized non-exclusive (N) state.

    Sec. 3.4 integrates S and U into a single non-exclusive state whose
    per-line type field is either "read-only" or one of the commutative
    update types.  This helper represents that field: ``op`` is ``None`` for
    read-only, or a :class:`CommutativeOp` for update-only.
    """

    READ_ONLY: "NonExclusiveType"

    def __init__(self, op: Optional[CommutativeOp]) -> None:
        self.op = op

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NonExclusiveType) and self.op is other.op

    def __hash__(self) -> int:
        return hash(self.op)

    def __repr__(self) -> str:
        return f"NonExclusiveType({'read-only' if self.op is None else self.op.value})"

    @property
    def is_read_only(self) -> bool:
        return self.op is None

    @property
    def is_update(self) -> bool:
        return self.op is not None

    def compatible_with_read(self) -> bool:
        """A read request is compatible only with the read-only type."""
        return self.is_read_only

    def compatible_with_update(self, op: CommutativeOp) -> bool:
        """An update request is compatible only with the same update type."""
        return self.op is op


NonExclusiveType.READ_ONLY = NonExclusiveType(None)


def encode_type_field(ne_type: Optional[NonExclusiveType]) -> int:
    """Encode the non-exclusive type field as the paper's 4-bit tag.

    The hardware cost analysis (Sec. 5.1) states four bits per line suffice to
    encode read-only plus the eight commutative update types.  Value 0 encodes
    read-only; values 1-8 encode the update types in declaration order.
    """
    if ne_type is None or ne_type.is_read_only:
        return 0
    ops = list(CommutativeOp)
    return 1 + ops.index(ne_type.op)


def decode_type_field(field: int) -> NonExclusiveType:
    """Inverse of :func:`encode_type_field`."""
    if field == 0:
        return NonExclusiveType.READ_ONLY
    ops = list(CommutativeOp)
    if not 1 <= field <= len(ops):
        raise ValueError(f"invalid non-exclusive type field: {field}")
    return NonExclusiveType(ops[field - 1])
