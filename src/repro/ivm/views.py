"""Materialized views: registered queries kept continuously correct.

A :class:`ViewRegistry` is bound to one target (a graph, a property-graph
store, or a triple store) and keeps a set of named views answering from
materialized state instead of re-evaluating.  Two maintenance strategies:

- ``incremental-delta`` — endpoint-pair views (:meth:`register_pairs`)
  are backed by :class:`~repro.ivm.delta.IncrementalPairs`, which
  propagates each mutation record as an edge-delta through the product
  automaton's frontier and only falls back to full reevaluation past its
  thresholds.

- ``footprint-recompute`` — everything whose answer does not decompose
  into deltas (exact path counts are #P/SpanL-hard to maintain
  incrementally; frontend results carry ordering, limits and seeds)
  re-evaluates when a mutation record intersects the query's footprint,
  and merely *re-stamps* its version when the records since its last
  evaluation are provably disjoint.  The view holds its answer in one
  pinned :class:`~repro.cache.Entry`, whose check is the same one the
  :class:`~repro.cache.QueryCache` LRU applies to its entries.

Frontends reach views through the ``view=`` keyword of ``run_pathql`` /
``run_sparql`` / ``run_cypher``, which lands in the :meth:`serve_pathql` /
:meth:`serve_sparql` / :meth:`serve_cypher` hooks here: the query
auto-registers on first use (keyed by its canonical form) and every later
run serves from the view.  A registry only ever answers for its own
target — serving against anything else raises
:class:`~repro.errors.ViewError`, as does re-registering a name with a
different query.  Served results are always fresh copies; callers may
mutate them freely.
"""

from __future__ import annotations

from repro.cache import Entry, label_footprint
from repro.cache.result_cache import CURRENT, RESTAMPED, TRUNCATED
from repro.errors import ViewError
from repro.ivm.delta import IncrementalPairs


def _as_graph(target):
    """The raw graph under ``target`` (stores wrap one)."""
    if hasattr(target, "has_edge"):
        return target
    graph = getattr(target, "graph", None)
    if graph is not None and hasattr(graph, "has_edge"):
        return graph
    raise ViewError(
        f"{type(target).__name__} is not a graph and does not wrap one; "
        "pair/count views need a graph target")


def _same_target(registered, served) -> bool:
    """Identity check between a registry's target and a frontend's.

    A store and the graph it wraps are the same data, so either spelling
    is accepted; two distinct graphs never are.
    """
    return (registered is served
            or getattr(registered, "graph", None) is served
            or registered is getattr(served, "graph", None))


class MaterializedView:
    """One registered query with a continuously maintained answer.

    Handles are returned by the ``register_*`` methods of
    :class:`ViewRegistry` and stay valid for the registry's lifetime.
    ``result(ctx=None)`` synchronizes against the target's mutation log
    and returns a fresh value; ``stats()`` exposes the maintenance
    counters the metamorphic tests assert non-vacuity with.
    """

    def __init__(self, registry: "ViewRegistry", name: str, kind: str,
                 key: tuple) -> None:
        self.registry = registry
        self.name = name
        self.kind = kind
        self.key = key
        self.served = 0

    @property
    def target(self):
        return self.registry.target

    @property
    def strategy(self) -> str:
        raise NotImplementedError

    @property
    def version(self) -> int:
        raise NotImplementedError

    def result(self, ctx=None):
        raise NotImplementedError

    def sync(self, ctx=None) -> None:
        raise NotImplementedError

    def stats(self) -> dict:
        raise NotImplementedError

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.name!r} kind={self.kind} "
                f"strategy={self.strategy}>")


class _PairsView(MaterializedView):
    """Endpoint-pair view maintained by the incremental delta engine."""

    strategy = "incremental-delta"

    def __init__(self, registry, name, key, engine: IncrementalPairs) -> None:
        super().__init__(registry, name, "pairs", key)
        self.engine = engine

    @property
    def version(self) -> int:
        return self.engine.version

    def sync(self, ctx=None) -> None:
        self.engine.sync(ctx)

    def result(self, ctx=None):
        self.served += 1
        return self.engine.pairs(ctx)

    def stats(self) -> dict:
        counters = dict(self.engine.stats)
        counters.update(kind=self.kind, strategy=self.strategy,
                        served=self.served)
        return counters


class _RecomputeView(MaterializedView):
    """Footprint-gated recompute view (counts and frontend results).

    ``to_stored`` turns a computed result into its pinned form, or
    ``None`` for results that must not be pinned (budget-degraded
    answers reflect this run, not the graph — they are served through
    and the view stays stale, recomputing on the next request);
    ``from_stored`` builds a fresh caller-owned copy.
    """

    strategy = "footprint-recompute"

    def __init__(self, registry, name, kind, key, compute, footprint,
                 to_stored=lambda result: result,
                 from_stored=lambda stored: stored) -> None:
        super().__init__(registry, name, kind, key)
        self.footprint = footprint
        self._compute = compute
        self._to_stored = to_stored
        self._from_stored = from_stored
        self._entry: Entry | None = None
        self._stats = {"full_recomputes": 0, "restamps": 0, "truncations": 0}

    @property
    def version(self) -> int:
        return -1 if self._entry is None else self._entry.version

    def sync(self, ctx=None) -> None:
        self._serve(ctx)

    def result(self, ctx=None, **call_kwargs):
        self.served += 1
        return self._serve(ctx, **call_kwargs)

    def _serve(self, ctx=None, **call_kwargs):
        log = self.target.mutation_log
        entry = self._entry
        if entry is not None:
            outcome = entry.check(log)
            if outcome == RESTAMPED:
                self._stats["restamps"] += 1
            elif outcome == TRUNCATED:
                self._stats["truncations"] += 1
            if outcome in (CURRENT, RESTAMPED):
                return self._from_stored(entry.value)
        version = log.version
        result = self._compute(ctx, call_kwargs)
        self._stats["full_recomputes"] += 1
        stored = self._to_stored(result)
        if stored is None:  # degraded: serve through, stay stale
            return result
        self._entry = Entry(stored, version, self.footprint)
        return self._from_stored(stored)

    def stats(self) -> dict:
        counters = dict(self._stats)
        counters.update(kind=self.kind, strategy=self.strategy,
                        served=self.served)
        return counters


class ViewRegistry:
    """Named materialized views over one graph/store target."""

    def __init__(self, target) -> None:
        self.target = target
        self._views: dict[str, MaterializedView] = {}
        self._by_key: dict[tuple, MaterializedView] = {}

    # -- registration ------------------------------------------------------

    def _admit(self, name: str, view: MaterializedView) -> MaterializedView:
        existing = self._views.get(name)
        if existing is not None:
            if existing.key == view.key:
                return existing
            raise ViewError(
                f"view {name!r} is already registered with a different "
                "query; unregister it first or pick another name")
        self._views[name] = view
        self._by_key.setdefault(view.key, view)
        return view

    def register_pairs(self, name: str, regex, start_nodes=None,
                       end_nodes=None, *, use_label_index: bool = True,
                       delta_threshold: int | None = None) -> MaterializedView:
        """An ``endpoint_pairs`` view, maintained by delta propagation."""
        graph = _as_graph(self.target)
        core = IncrementalPairs(graph, regex, start_nodes, end_nodes,
                                use_label_index=use_label_index,
                                delta_threshold=delta_threshold)
        key = ("pairs", core.regex.to_text(),
               None if start_nodes is None else frozenset(start_nodes),
               None if end_nodes is None else frozenset(end_nodes))
        return self._admit(name, _PairsView(self, name, key, core))

    def register_count(self, name: str, regex, k: int, start_nodes=None,
                       end_nodes=None, *, use_label_index: bool = True,
                       engine: str = "auto") -> MaterializedView:
        """A ``count_paths_exact`` view.

        Exact path counting is SpanL-hard to maintain under deltas, so
        this view recomputes when touched — but still re-stamps across
        footprint-disjoint mutations, which is where almost all of the
        win is on mixed workloads.
        """
        from repro.core.rpq import count_paths_exact, parse_regex

        parsed = parse_regex(regex) if isinstance(regex, str) else regex
        starts = None if start_nodes is None else list(start_nodes)
        ends = None if end_nodes is None else list(end_nodes)
        graph = _as_graph(self.target)

        def compute(ctx, _call_kwargs):
            return count_paths_exact(graph, parsed, k, starts, ends,
                                     use_label_index=use_label_index,
                                     engine=engine, ctx=ctx)

        key = ("count", parsed.to_text(), k,
               None if starts is None else frozenset(starts),
               None if ends is None else frozenset(ends))
        return self._admit(name, _RecomputeView(
            self, name, "count", key, compute, label_footprint(parsed)))

    def register_pathql(self, name: str, text: str) -> MaterializedView:
        from repro.cache import pathql_footprint
        from repro.query.pathql import parse_pathql, _canonical_key

        query = parse_pathql(text)
        return self._admit(name, self._pathql_view(
            name, text, _canonical_key(query), pathql_footprint(query)))

    def register_cypher(self, name: str, text: str) -> MaterializedView:
        from repro.cache import cypher_footprint
        from repro.query.cypherish import parse_cypher

        query = parse_cypher(text)
        return self._admit(name, self._cypher_view(
            name, text, ("cypher", text), cypher_footprint(query)))

    # -- view constructors for the three frontends -------------------------

    def _pathql_view(self, name, text, key, footprint) -> _RecomputeView:
        def compute(ctx, call_kwargs):
            from repro.query.pathql import run_pathql
            return run_pathql(self.target, text, ctx=ctx, **call_kwargs)

        def to_stored(result):
            if result.quality != "exact":
                return None
            return (result.mode, tuple(result.paths), result.count,
                    result.quality)

        def from_stored(stored):
            from repro.query.pathql import PathQueryResult
            mode, paths, count, quality = stored
            return PathQueryResult(mode, list(paths), count, quality=quality)

        return _RecomputeView(self, name, "pathql", key, compute, footprint,
                              to_stored, from_stored)

    def _sparql_view(self, name, text, key, footprint) -> _RecomputeView:
        def compute(ctx, call_kwargs):
            from repro.query.sparql import run_sparql
            return run_sparql(self.target, text, ctx=ctx, **call_kwargs)

        def to_stored(result):
            return (result.variables, tuple(result.rows))

        def from_stored(stored):
            from repro.query.sparql import SelectResult
            variables, rows = stored
            return SelectResult(variables, list(rows))

        return _RecomputeView(self, name, "sparql", key, compute, footprint,
                              to_stored, from_stored)

    def _cypher_view(self, name, text, key, footprint) -> _RecomputeView:
        def compute(ctx, call_kwargs):
            from repro.query.cypherish import run_cypher
            return run_cypher(self.target, text, ctx=ctx, **call_kwargs)

        def to_stored(result):
            return (result.columns, tuple(result.rows))

        def from_stored(stored):
            from repro.query.cypherish import CypherResult
            columns, rows = stored
            return CypherResult(columns, list(rows))

        return _RecomputeView(self, name, "cypher", key, compute, footprint,
                              to_stored, from_stored)

    # -- frontend serve hooks ----------------------------------------------

    def _check_target(self, served) -> None:
        if not _same_target(self.target, served):
            raise ViewError(
                "view registry is bound to a different target than the "
                "query was run against; one registry serves one graph")

    def _serve(self, served_target, key, build, **call_kwargs):
        self._check_target(served_target)
        view = self._by_key.get(key)
        if view is None:
            view = build()
        return view.result(**call_kwargs)

    def serve_pathql(self, graph, text: str, *, ctx=None, tracer=None,
                     engine: str = "auto"):
        from repro.cache import pathql_footprint
        from repro.query.pathql import parse_pathql, _canonical_key

        query = parse_pathql(text)
        key = _canonical_key(query)

        def build():
            name = f"pathql#{len(self._views)}"
            return self._admit(name, self._pathql_view(
                name, text, key, pathql_footprint(query)))

        return self._serve(graph, key, build, ctx=ctx, tracer=tracer,
                           engine=engine)

    def serve_sparql(self, store, text: str, *, ctx=None, tracer=None,
                     engine: str = "auto"):
        from repro.cache import sparql_footprint
        from repro.query.sparql import parse_sparql

        key = ("sparql", text)

        def build():
            name = f"sparql#{len(self._views)}"
            return self._admit(name, self._sparql_view(
                name, text, key, sparql_footprint(parse_sparql(text))))

        return self._serve(store, key, build, ctx=ctx, tracer=tracer,
                           engine=engine)

    def serve_cypher(self, store, text: str, *, ctx=None, tracer=None,
                     engine: str = "auto"):
        from repro.cache import cypher_footprint
        from repro.query.cypherish import parse_cypher

        key = ("cypher", text)

        def build():
            name = f"cypher#{len(self._views)}"
            return self._admit(name, self._cypher_view(
                name, text, key, cypher_footprint(parse_cypher(text))))

        return self._serve(store, key, build, ctx=ctx, tracer=tracer,
                           engine=engine)

    # -- introspection -----------------------------------------------------

    def get(self, name: str) -> MaterializedView:
        try:
            return self._views[name]
        except KeyError:
            raise ViewError(f"no view named {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._views)

    def __contains__(self, name: object) -> bool:
        return name in self._views

    def __len__(self) -> int:
        return len(self._views)

    def result(self, name: str, ctx=None):
        return self.get(name).result(ctx)

    def sync_all(self, ctx=None) -> None:
        for view in self._views.values():
            view.sync(ctx)

    def stats(self) -> dict:
        return {name: view.stats() for name, view in self._views.items()}
