"""Incremental view maintenance and time travel (see DESIGN §4j).

Three cooperating pieces over the per-graph
:class:`~repro.cache.versioning.MutationLog`:

- :mod:`repro.ivm.delta` — :class:`IncrementalPairs`, the delta engine
  keeping an ``endpoint_pairs`` answer continuously correct by
  propagating mutation records through the product-automaton frontier;
- :mod:`repro.ivm.views` — :class:`ViewRegistry` /
  :class:`MaterializedView`, named registered queries (pairs, counts and
  all three frontends) served through the ``view=`` keyword of
  ``run_pathql`` / ``run_sparql`` / ``run_cypher``;
- :mod:`repro.ivm.temporal` — :func:`as_of` transaction-time travel by
  inverse replay of payload-carrying records.
"""

from repro.errors import TimeTravelError, ViewError
from repro.ivm.delta import IncrementalPairs
from repro.ivm.temporal import as_of
from repro.ivm.views import MaterializedView, ViewRegistry

__all__ = [
    "IncrementalPairs",
    "MaterializedView",
    "TimeTravelError",
    "ViewError",
    "ViewRegistry",
    "as_of",
]
