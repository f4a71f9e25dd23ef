"""Query result caching with versioned, label-footprint invalidation.

Three modules:

- :mod:`repro.cache.versioning` — the per-graph :class:`MutationLog` every
  model maintains (a monotonically increasing ``version`` plus bounded
  records of which labels/properties/features each mutation touched);
- :mod:`repro.cache.footprint` — :class:`Footprint` and the
  :func:`label_footprint` / :func:`sparql_footprint` /
  :func:`cypher_footprint` visitors computing what a query *reads*;
- :mod:`repro.cache.result_cache` — the one memo primitive: an
  :class:`Entry` (value, version, footprint) whose check re-stamps it
  across disjoint records, and :class:`Memo`, a weakref-guarded LRU of
  entries.  :class:`QueryCache` is the memo's query front-end; the vector
  snapshots, the footprint-recompute views and the property-store index
  hold entries of their own.

The invalidation rule (sound, per the footprint test suite): a memoized
value survives a mutation exactly when the mutation's record is disjoint
from its footprint.  :meth:`Entry.check` is the one place that applies it.
"""

from repro.cache.footprint import (
    Footprint,
    cypher_footprint,
    label_footprint,
    pathql_footprint,
    sparql_footprint,
    test_footprint,
)
from repro.cache.result_cache import MISS, Entry, Memo, QueryCache
from repro.cache.versioning import MutationLog, MutationRecord

__all__ = [
    "Entry",
    "Footprint",
    "MISS",
    "Memo",
    "MutationLog",
    "MutationRecord",
    "QueryCache",
    "cypher_footprint",
    "label_footprint",
    "pathql_footprint",
    "sparql_footprint",
    "test_footprint",
]
