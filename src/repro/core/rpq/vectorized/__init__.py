"""Vectorized RPQ evaluation: numpy kernels behind the ``engine=`` selector.

Public surface:

- :func:`resolve_engine` / :data:`ENGINES` — the ``auto|scalar|vector``
  selector and its size heuristic;
- :func:`vector_endpoint_pairs` — the bitset/CSR fixpoint kernel, the
  one layout (drop-in equivalent of the scalar product fixpoint);
- :func:`vector_count_paths` — exact Count without the product: one
  count vector per live set of NFA states, walked layer by layer
  (int64 while no layer could overflow, Python ints past that), the
  drop-in equivalent of the scalar subset DP;
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
from repro.core.rpq.vectorized.count import vector_count_paths
from repro.core.rpq.vectorized.kernel import vector_endpoint_pairs

__all__ = [
    "AUTO_MIN_NODES",
    "ENGINES",
    "GraphArrays",
    "adjacency_cache_info",
    "clear_adjacency_cache",
    "graph_arrays",
    "numpy_or_none",
    "resolve_engine",
    "vector_count_paths",
    "vector_endpoint_pairs",
]
