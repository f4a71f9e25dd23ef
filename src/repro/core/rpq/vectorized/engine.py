"""Engine selection: scalar loops or the numpy kernel, and why.

Every RPQ entry point that can run vectorized takes an
``engine="auto"|"scalar"|"vector"`` keyword resolved here:

- ``"scalar"`` — the shipped per-node Python loops, always available.
  This path is byte-for-byte the pre-vectorization code and serves as the
  differential-testing oracle for the kernel.
- ``"vector"`` — force the numpy bitset kernel; raises
  :class:`~repro.errors.EngineUnavailableError` if numpy is missing.
- ``"auto"`` — the default: pick ``vector`` when numpy is importable and
  the graph is large enough that block operations amortize their setup
  (``node_count >= AUTO_MIN_NODES``), else ``scalar``.  Tiny graphs stay
  scalar because building index arrays costs more than the whole scalar
  fixpoint there.

:func:`resolve_engine` returns ``(engine, reason)`` so callers can surface
the decision — EXPLAIN's ``engine`` section, the tracer's ``evaluate``
span and ``--stats`` notes all carry it.
"""

from __future__ import annotations

from repro.errors import EngineUnavailableError

#: Recognised ``engine=`` values, in CLI order.
ENGINES = ("auto", "scalar", "vector")

#: ``auto`` picks the vector engine only at or above this node count:
#: below it, array construction dominates and the scalar loops win.
AUTO_MIN_NODES = 64

#: ``auto`` also demotes to scalar when the query's label footprint
#: touches fewer edges than this many per node: sparse frontiers keep the
#: label-index walk ahead of whole-node-set block operations, which pay
#: for every node per step regardless of how few are reachable.
AUTO_MIN_DEGREE = 4

_NUMPY = None
_NUMPY_PROBED = False


def numpy_or_none():
    """The numpy module, or ``None`` when it cannot be imported."""
    global _NUMPY, _NUMPY_PROBED
    if not _NUMPY_PROBED:
        try:
            import numpy
        except ImportError:  # pragma: no cover - exercised via fake probe
            numpy = None
        _NUMPY = numpy
        _NUMPY_PROBED = True
    return _NUMPY


def resolve_engine(engine: str, graph=None, *,
                   n_nodes: int | None = None,
                   footprint_edges: int | None = None) -> tuple[str, str]:
    """Resolve an ``engine=`` keyword to ``("scalar"|"vector", reason)``.

    ``n_nodes`` overrides the graph-derived node count (callers that
    already know it avoid a second ``node_count`` call); with neither a
    graph nor a count, ``auto`` resolves scalar.  ``footprint_edges`` is
    the density signal: the number of graph edges the query's label
    footprint can touch (``None`` = unknown or unrestricted).  ``auto``
    demotes to scalar when that footprint averages fewer than
    :data:`AUTO_MIN_DEGREE` edges per node — the frontier stays sparse,
    and per-node block operations cannot amortize.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; "
                         f"expected one of {ENGINES}")
    if engine == "scalar":
        return "scalar", "forced by engine='scalar'"
    numpy = numpy_or_none()
    if engine == "vector":
        if numpy is None:
            raise EngineUnavailableError(
                "engine='vector' requires numpy, which is not importable "
                "in this environment; use engine='auto' (which falls back "
                "to the scalar engine) or engine='scalar'")
        return "vector", "forced by engine='vector'"
    # auto
    if numpy is None:
        return "scalar", "auto: numpy unavailable"
    if n_nodes is None:
        if graph is None:
            return "scalar", "auto: no graph to size"
        n_nodes = graph.node_count()
    if n_nodes < AUTO_MIN_NODES:
        return "scalar", (f"auto: {n_nodes} nodes < {AUTO_MIN_NODES} "
                          "(scalar wins below the array-setup break-even)")
    if (footprint_edges is not None
            and footprint_edges < n_nodes * AUTO_MIN_DEGREE):
        return "scalar", (f"auto: label footprint spans {footprint_edges} "
                          f"edges < {AUTO_MIN_DEGREE}/node over {n_nodes} "
                          "nodes (sparse frontiers favor the label index)")
    return "vector", (f"auto: {n_nodes} nodes >= {AUTO_MIN_NODES} "
                      "(block operations amortize)")
