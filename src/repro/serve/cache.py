"""LRU cache for programmed crossbar mappings.

Programming a chip is the expensive part of serving: the trained model is
replicated, the chip's sampled variation is installed on every quantized
layer, and (optionally) self-tuning modules are attached — the software
analogue of writing conductances into every crossbar tile.  A naive server
would redo that work per request; the cache does it once per chip and keeps
the hottest mappings resident.  An engine serves one model through one
backend, so its cache is keyed by chip id alone.

The capacity bound models the realistic constraint that only a subset of a
large fleet's mappings fits in the serving host's memory: requesting an
evicted chip's mapping transparently reprograms it (a miss), which the
stats surface so operators can size the cache against the fleet.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Hashable


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one :class:`MappingCache`.

    ``evictions`` counts capacity-pressure drops (LRU); ``invalidations``
    counts deliberate drops via :meth:`MappingCache.invalidate` — e.g.
    recalibration replacing a drifted chip's stale mapping.  Telemetry
    reports both so operators can tell "cache too small" from "fleet
    recalibrating a lot".
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    # Spills: evictions whose owner released spillable chip state through
    # the ``on_evict`` hook (lazy fleets dropping a cold chip's realized
    # variation patterns — see ``ServeConfig.max_resident_chips``).  The
    # hook owner increments this; the cache itself only counts evictions.
    spills: int = 0
    # High-water mark of resident mappings, sampled after every insert's
    # capacity enforcement — on a capacity-bounded cache this never
    # exceeds ``capacity``, which is the resident-chip ceiling large lazy
    # fleets assert against.
    peak_resident: int = 0
    program_seconds: float = 0.0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "spills": self.spills,
            "peak_resident": self.peak_resident,
            "hit_rate": self.hit_rate,
            "program_seconds": self.program_seconds,
        }


@dataclass
class MappingCache:
    """Least-recently-used store of programmed chip mappings.

    Keys are any hashable (the engine uses chip ids).  ``capacity`` bounds
    the number of resident mappings (``None`` means unbounded).
    ``get_or_program`` is the only entry point the engine needs: it
    returns the cached mapping or invokes ``program`` to build it,
    evicting the least recently used entry when over capacity.

    ``clock`` is the time source ``stats.program_seconds`` is measured
    with (injectable — the engine passes its :mod:`repro.obs` clock so
    tests can drive it deterministically).

    ``on_evict`` is the symmetric spill hook: called as
    ``on_evict(key, mapping)`` after every capacity-pressure eviction (not
    on deliberate invalidation — an invalidated mapping is stale, an
    evicted one is merely cold), so an owner of spillable per-chip state
    can release it and re-realize deterministically later.
    """

    capacity: int | None = None
    stats: CacheStats = field(default_factory=CacheStats)
    clock: Callable[[], float] = time.perf_counter
    on_evict: Callable[[Hashable, object], None] | None = None

    def __post_init__(self) -> None:
        if self.capacity is not None and self.capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {self.capacity}")
        self._entries: OrderedDict[Hashable, object] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    @property
    def keys(self) -> list:
        """Resident keys, least recently used first."""
        return list(self._entries)

    def get_or_program(self, key: Hashable, program: Callable[[], object]):
        """Fetch the mapping for ``key``, programming (and caching) on miss."""
        if key in self._entries:
            self.stats.hits += 1
            self._entries.move_to_end(key)
            return self._entries[key]
        self.stats.misses += 1
        started = self.clock()
        mapping = program()
        self.stats.program_seconds += self.clock() - started
        self._entries[key] = mapping
        if self.capacity is not None:
            while len(self._entries) > self.capacity:
                evicted_key, evicted = self._entries.popitem(last=False)
                self.stats.evictions += 1
                if self.on_evict is not None:
                    self.on_evict(evicted_key, evicted)
        self.stats.peak_resident = max(self.stats.peak_resident, len(self._entries))
        return mapping

    def peek(self, key: Hashable):
        """The resident mapping for ``key`` or ``None`` — no stats, no LRU touch.

        Used by the lifecycle layer to refresh drifted variation *in place*
        on a resident mapping without perturbing hit/miss accounting.
        """
        return self._entries.get(key)

    def invalidate(self, key: Hashable) -> bool:
        """Drop one mapping (e.g. after recalibration); True if it was resident."""
        if self._entries.pop(key, None) is None:
            return False
        self.stats.invalidations += 1
        return True

    def clear(self) -> None:
        """Drop every resident mapping (stats are kept)."""
        self._entries.clear()
