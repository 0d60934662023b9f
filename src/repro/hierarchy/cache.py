"""Set-associative cache arrays with LRU replacement.

These arrays track only *presence* and per-line metadata; data values live in
the protocol engines (which need them for functional checking of commutative
reductions).  Both private caches (L1/L2) and shared banked caches (L3/L4)
are built from :class:`SetAssociativeCache`.

The arrays sit on the simulator's per-access critical path, so they are
written for speed: sets are materialised lazily (constructing a 32 MB L3
allocates nothing until lines arrive), geometry is precomputed once, and the
per-line records are slotted plain objects rather than dataclasses.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.sim.columnar import NO_OP_INDEX
from repro.sim.config import CacheConfig


class CacheLineInfo:
    """Metadata attached to a resident cache line.

    ``metadata`` is ``None`` until a caller attaches something, so the common
    case (no metadata) allocates no dict.
    """

    __slots__ = ("line_addr", "metadata", "last_use")

    def __init__(
        self, line_addr: int, metadata: Optional[dict] = None, last_use: int = 0
    ) -> None:
        self.line_addr = line_addr
        self.metadata = metadata
        self.last_use = last_use

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheLineInfo(line_addr={self.line_addr:#x}, "
            f"metadata={self.metadata}, last_use={self.last_use})"
        )


class SetAssociativeCache:
    """A set-associative cache array with true-LRU replacement.

    The array maps line addresses to :class:`CacheLineInfo`.  Insertion may
    evict the least-recently-used line in the set; the evicted line's info is
    returned so callers can perform writebacks or partial reductions.
    """

    __slots__ = (
        "config",
        "name",
        "_sets",
        "_num_sets",
        "_ways",
        "_tick",
        "hits",
        "misses",
        "evictions",
    )

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self._num_sets = config.num_sets
        self._ways = config.ways
        #: Lazily materialised sets: set index -> {line_addr: CacheLineInfo}.
        self._sets: Dict[int, Dict[int, CacheLineInfo]] = {}
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __contains__(self, line_addr: int) -> bool:
        cache_set = self._sets.get(line_addr % self._num_sets)
        return cache_set is not None and line_addr in cache_set

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets.values())

    def _set_index(self, line_addr: int) -> int:
        return line_addr % self._num_sets

    def _set_for(self, line_addr: int) -> Dict[int, CacheLineInfo]:
        index = line_addr % self._num_sets
        cache_set = self._sets.get(index)
        if cache_set is None:
            cache_set = self._sets[index] = {}
        return cache_set

    def lookup(self, line_addr: int, *, touch: bool = True) -> Optional[CacheLineInfo]:
        """Return the line's info if resident; update LRU and hit statistics."""
        cache_set = self._sets.get(line_addr % self._num_sets)
        info = cache_set.get(line_addr) if cache_set is not None else None
        if info is None:
            self.misses += 1
            return None
        self.hits += 1
        if touch:
            self._tick = tick = self._tick + 1
            info.last_use = tick
        return info

    def peek(self, line_addr: int) -> Optional[CacheLineInfo]:
        """Return the line's info without touching LRU or statistics."""
        cache_set = self._sets.get(line_addr % self._num_sets)
        return cache_set.get(line_addr) if cache_set is not None else None

    def probe_parts(self) -> Tuple[Dict[int, Dict[int, CacheLineInfo]], int]:
        """``(sets, num_sets)`` for hoisted inline probes (the retire loop).

        The retire loop resolves millions of lookups per run, so it
        hoists the set dictionary and modulus once and inlines the two-step
        probe (``sets.get(addr % num_sets)`` then ``.get(addr)``) instead of
        paying a method call per access.  Contract for callers: a *hit*
        must replay :meth:`lookup` exactly — increment :attr:`hits`,
        advance the LRU clock (``_tick``), and stamp ``info.last_use`` —
        and a *miss* must increment :attr:`misses`; otherwise LRU order and
        hit statistics drift from the scalar path and bit-identity breaks.
        The returned dictionary is live shared state, never a copy.
        """
        return self._sets, self._num_sets

    def insert(self, line_addr: int, metadata: Optional[dict] = None) -> Optional[CacheLineInfo]:
        """Insert a line, returning the victim's info if an eviction occurred.

        Inserting a line that is already resident refreshes its LRU position
        and merges the provided metadata.
        """
        cache_set = self._set_for(line_addr)
        existing = cache_set.get(line_addr)
        if existing is not None:
            self._tick = tick = self._tick + 1
            existing.last_use = tick
            if metadata:
                if existing.metadata is None:
                    existing.metadata = dict(metadata)
                else:
                    existing.metadata.update(metadata)
            return None

        victim: Optional[CacheLineInfo] = None
        if len(cache_set) >= self._ways:
            # True-LRU victim: first line with the smallest last_use (a plain
            # loop; a min() with a key lambda costs a call per resident line).
            victim_addr = -1
            best_use = None
            # repro-lint: disable=D102(LRU tie-break deliberately follows set insertion order; golden fingerprints pin this exact victim choice)
            for addr, info in cache_set.items():
                last_use = info.last_use
                if best_use is None or last_use < best_use:
                    best_use = last_use
                    victim_addr = addr
            victim = cache_set.pop(victim_addr)
            self.evictions += 1

        self._tick = tick = self._tick + 1
        cache_set[line_addr] = CacheLineInfo(
            line_addr, dict(metadata) if metadata else None, tick
        )
        return victim

    def invalidate(self, line_addr: int) -> Optional[CacheLineInfo]:
        """Remove a line (coherence invalidation); return its info if present."""
        cache_set = self._sets.get(line_addr % self._num_sets)
        if cache_set is None:
            return None
        return cache_set.pop(line_addr, None)

    def resident_lines(self) -> Iterator[CacheLineInfo]:
        """Iterate over all resident lines (order unspecified)."""
        # repro-lint: disable=D102(documented order-unspecified iterator; consumers aggregate order-insensitively)
        for cache_set in self._sets.values():
            yield from cache_set.values()

    def occupancy(self) -> float:
        """Fraction of the cache's capacity currently occupied."""
        return len(self) / max(1, self.config.num_lines)

    def reset_statistics(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


# ---------------------------------------------------------------------------
# Flat tag mirror for the batched simulation kernel
# ---------------------------------------------------------------------------

#: Tag value marking an empty way in a :class:`TagArray`.
TAG_EMPTY = np.uint64(0xFFFF_FFFF_FFFF_FFFF)

#: Per-way coherence-state codes stored in :attr:`TagArray.state`.  These
#: deliberately mirror the MESI/MEUSI stable states without importing the
#: enum: 0 marks an untracked or absent line.
STATE_ABSENT = 0
STATE_SHARED = 1
STATE_EXCLUSIVE = 2
STATE_MODIFIED = 3
STATE_UPDATE = 4


class TagArray:
    """Flat NumPy mirror of one :class:`SetAssociativeCache`'s residency.

    The batched simulation kernel (:mod:`repro.sim.kernel`) classifies whole
    chunks of a columnar trace at once: "is this access a private L1 hit in a
    stable state?" must be answerable with array arithmetic, which the
    object cache's dict-of-dicts cannot do.  A ``TagArray`` holds, per
    (set, way):

    * ``tags`` — the resident line address (:data:`TAG_EMPTY` if the way is
      empty),
    * ``state`` — the owning core's stable state for the line, as one of the
      ``STATE_*`` codes above,
    * ``uop`` — for ``STATE_UPDATE`` lines, the index of the directory
      entry's commutative op when the line can buffer same-type updates
      locally (:data:`~repro.sim.columnar.NO_OP_INDEX` otherwise).

    The mirror tracks *membership and classification inputs only* — the
    object cache remains authoritative for LRU order and statistics.  It is
    never edited in place: the kernel rebuilds it from the object cache
    (:meth:`clear`, then every resident line) each time it takes over the
    simulation, and only hits run until it hands back, which cannot move a
    line.  Way order within a set is arbitrary; only membership matters.
    """

    __slots__ = ("num_sets", "ways", "tags", "state", "uop")

    def __init__(self, config: CacheConfig) -> None:
        self.num_sets = config.num_sets
        self.ways = config.ways
        self.tags = np.full((self.num_sets, self.ways), TAG_EMPTY, dtype=np.uint64)
        self.state = np.zeros((self.num_sets, self.ways), dtype=np.uint8)
        self.uop = np.full((self.num_sets, self.ways), NO_OP_INDEX, dtype=np.uint8)

    def clear(self) -> None:
        """Empty every way (start of a rebuild)."""
        self.tags.fill(TAG_EMPTY)
        self.state.fill(STATE_ABSENT)
        self.uop.fill(NO_OP_INDEX)

    def fill_way(self, set_index: int, way: int, line_addr: int, state: int, uop: int) -> None:
        """Install one line during a rebuild (no victim handling)."""
        self.tags[set_index, way] = line_addr
        self.state[set_index, way] = state
        self.uop[set_index, way] = uop
