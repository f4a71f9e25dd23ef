"""The footprint-gated memo: one invalidation rule for every cache here.

A memoized value survives every mutation whose record misses its
footprint (DESIGN §4f).  That rule is implemented once, in two parts:

- :class:`Entry` holds ``(value, version, footprint)``; its
  :meth:`~Entry.check` re-stamps the entry across footprint-disjoint
  records and otherwise reports it stale, or its history truncated.  A
  footprint is anything with an ``intersects(record)`` method, usually a
  :class:`~repro.cache.footprint.Footprint`.
- :class:`Memo` is a bounded LRU of entries keyed by ``(target identity,
  key)``, holding each target through a weak reference so a dead target's
  entries are never served to an object that recycled its ``id()``.  Any
  object carrying a ``mutation_log`` (the MultiGraph family,
  :class:`~repro.models.rdf.RDFGraph`,
  :class:`~repro.storage.triple_store.TripleStore`,
  :class:`~repro.storage.property_store.PropertyGraphStore` by
  delegation) is memoizable; anything else is a permanent miss.

:class:`QueryCache` is the memo's query front-end.  The vector snapshots
(:func:`~repro.core.rpq.vectorized.arrays.graph_arrays`) keep their own
:class:`Memo`; each footprint-recompute view pins one :class:`Entry`, and
:class:`~repro.storage.property_store.PropertyGraphStore` keeps one per
indexed property.

A memo is plain in-process state with no locks: use one per worker (as
:class:`~repro.exec.batch.BatchSession` does).  Entries hold weakrefs, so
memos are deliberately not picklable.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict

from repro.util import canonical_sort_key

#: Sentinel distinguishing "no cached value" from a cached ``None``.
MISS = object()

DEFAULT_MAX_ENTRIES = 512

#: Outcomes of :meth:`Entry.check`.  The first two may be served.
CURRENT = "current"
RESTAMPED = "restamped"
STALE = "stale"
TRUNCATED = "truncated"


def nodes_key(nodes):
    """Canonical, hashable form of a start/end-node restriction.

    ``None`` (unrestricted) stays ``None``; any iterable becomes a sorted
    tuple, so ``{1, 2}``, ``[2, 1]`` and ``(1, 2)`` key identically.  The
    sort key is :func:`~repro.util.canonical_sort_key` — a bare ``repr``
    sort is not a total order over mixed-type ids, so ``{1, "1"}``-style
    restrictions would key by iteration order and split into duplicate
    entries.  The result is itself a valid ``start_nodes``/``end_nodes``
    argument.
    """
    if nodes is None:
        return None
    return tuple(sorted(nodes, key=canonical_sort_key))


class Entry:
    """A memoized value, the version it is valid at, and what it reads."""

    __slots__ = ("value", "version", "footprint")

    def __init__(self, value, version: int, footprint) -> None:
        self.value = value
        self.version = version
        self.footprint = footprint

    def check(self, log) -> str:
        """Is the value still current at ``log.version``?

        :data:`CURRENT` when nothing was logged since the entry's version;
        :data:`RESTAMPED` when every record since misses the footprint
        (the entry then moves to the current version, so the next check is
        O(1) again); :data:`STALE` when some record intersects it;
        :data:`TRUNCATED` when the log has dropped records newer than the
        entry's version, so validity cannot be proved.
        """
        version = log.version
        if self.version == version:
            return CURRENT
        if self.version < log.horizon:
            return TRUNCATED
        if log.intersects_since(self.version, self.footprint):
            return STALE
        self.version = version
        return RESTAMPED


class Memo:
    """LRU of :class:`Entry` keyed by (target identity, key).

    ``stats()`` counts hits, misses and stale misses; ``stale`` is a
    subset cause of ``misses`` and covers truncated history too.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._stale = 0

    def lookup(self, target, key):
        """Return the memoized value for ``key`` on ``target``, or :data:`MISS`.

        A hit requires the stored entry to be provably current: either the
        target's version is unchanged, or every mutation since lies outside
        the entry's footprint (in which case the entry is re-stamped).
        """
        log = getattr(target, "mutation_log", None)
        full_key = (id(target), key)
        slot = self._entries.get(full_key) if log is not None else None
        if slot is not None:
            ref, entry = slot
            if ref() is target:
                if entry.check(log) in (CURRENT, RESTAMPED):
                    self._entries.move_to_end(full_key)
                    self._hits += 1
                    return entry.value
                self._stale += 1
            # Stale, or left by a dead target whose id() was recycled.
            del self._entries[full_key]
        self._misses += 1
        return MISS

    def store(self, target, key, footprint, value) -> None:
        """Remember ``value`` for ``key`` at the target's current version."""
        log = getattr(target, "mutation_log", None)
        if log is None:
            return
        try:
            ref = weakref.ref(target)
        except TypeError:  # not weakref-able: never memoized
            return
        full_key = (id(target), key)
        self._entries[full_key] = (ref, Entry(value, log.version, footprint))
        self._entries.move_to_end(full_key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> dict:
        return {
            "hits": self._hits,
            "misses": self._misses,
            "stale": self._stale,
            "entries": len(self._entries),
            "max_entries": self.max_entries,
        }

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} entries={len(self._entries)} "
                f"hits={self._hits} misses={self._misses} "
                f"stale={self._stale}>")


class QueryCache(Memo):
    """Result cache keyed by (graph identity, canonical query form)."""

    # Bound in this class's own namespace so instrumentation that wraps
    # ``QueryCache.lookup`` (perfbench/layers.py) times query-cache
    # traffic only, not the other memos built on :class:`Memo`.
    lookup = Memo.lookup
    store = Memo.store
