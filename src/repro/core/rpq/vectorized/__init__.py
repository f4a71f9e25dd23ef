"""Vectorized RPQ evaluation: numpy kernels behind the ``engine=`` selector.

Public surface:

- :func:`resolve_engine` / :data:`ENGINES` — the ``auto|scalar|vector``
  selector and its size heuristic;
- :func:`vector_endpoint_pairs` — the bitset/CSR fixpoint kernel, the
  one layout (drop-in equivalent of the scalar product fixpoint);
- :func:`back_layers_vectorized` — array-swept backward layers feeding
  the exact-count subset DP;
- :func:`graph_arrays` + :func:`adjacency_cache_info` /
  :func:`clear_adjacency_cache` — the per-graph adjacency snapshots,
  memoized under the structure-only footprint (node and edge sets, edge
  labels); each snapshot memoizes its transitions' CSRs
  (:meth:`GraphArrays.transition_csr`).

The scalar engine never imports this package's numpy-touching modules at
query time unless an evaluation actually resolves to ``vector``, so
environments without numpy keep working (``engine="auto"`` falls back,
``engine="vector"`` raises
:class:`~repro.errors.EngineUnavailableError`).
"""

from repro.core.rpq.vectorized.arrays import (
    GraphArrays,
    adjacency_cache_info,
    clear_adjacency_cache,
    graph_arrays,
)
from repro.core.rpq.vectorized.engine import (
    AUTO_MIN_NODES,
    ENGINES,
    numpy_or_none,
    resolve_engine,
)
from repro.core.rpq.vectorized.kernel import (
    back_layers_vectorized,
    vector_endpoint_pairs,
)

__all__ = [
    "AUTO_MIN_NODES",
    "ENGINES",
    "GraphArrays",
    "adjacency_cache_info",
    "back_layers_vectorized",
    "clear_adjacency_cache",
    "graph_arrays",
    "numpy_or_none",
    "resolve_engine",
    "vector_endpoint_pairs",
]
