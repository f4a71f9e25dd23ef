"""The problem Count: how many paths of length k conform to a regex?

Count is SpanL-complete (Alvarez & Jenner) when the regex is part of the
input, so no exact algorithm polynomial in both is expected.  This module
provides the two exact baselines the FPRAS is validated against:

- :func:`count_paths_exact` — dynamic programming over the on-the-fly
  determinization of the product automaton.  Distinct paths are distinct
  words, and words map deterministically to state *subsets*, so counting
  words of length k+1 reaching an accepting subset is exact.  Worst case
  exponential in the product size — the expected price of exactness — but
  pruned by "can an accept state still be reached in the remaining steps".
- :func:`count_paths_bruteforce` — enumerate [[r]] by the reference
  semantics and filter; only usable on tiny instances, used in tests.

For a fixed regex the determinized automaton is unambiguous, so counting
paths is counting walks, polynomial in the graph: ``engine="vector"``
runs that walk count over NFA-state sets without building the product
(:mod:`repro.core.rpq.vectorized.count`), exact at any size.

Both accept an optional execution :class:`~repro.exec.Context` (``ctx``):
the subset DP checkpoints once per expanded subset (site ``count.layer``)
and reports the live-subset frontier, which is exactly where the
exponential blow-up shows, so deadlines/step budgets interrupt it promptly
(the vector kernel does the same per layer and live set, at
``vector.count``).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.rpq.ast import Regex
from repro.core.rpq.nfa import compile_regex
from repro.core.rpq.product import INITIAL, ProductNFA, build_product
from repro.core.rpq.semantics import evaluate_bruteforce
from repro.errors import InvalidLengthError


def count_words_exact(product: ProductNFA, length: int, *,
                      prune: bool = True, ctx=None) -> int:
    """Number of distinct accepted words of exactly ``length`` symbols.

    ``prune=True`` (the default) intersects every reached subset with the
    states that can still reach acceptance in the remaining steps — a sound
    reduction of the determinized state space (merged subsets have equal
    accepted-completion counts).  ``prune=False`` runs the plain subset DP;
    the ablation benchmark quantifies the difference.
    """
    if length < 0:
        raise InvalidLengthError("length", length)
    back = product.back_layers(length)
    start = frozenset([INITIAL])
    if prune:
        start &= back[length]
    if not start:
        return 0
    if length == 0:
        return 1 if start & product.accepts else 0
    current: dict[frozenset[int], int] = {start: 1}
    for step in range(length):
        remaining = length - step - 1
        survivors = back[remaining]
        following: dict[frozenset[int], int] = {}
        for subset, count in current.items():
            if ctx is not None:
                ctx.checkpoint("count.layer")
            for symbol in product.symbols_from(subset):
                reached = product.delta(subset, symbol)
                if prune:
                    reached &= survivors
                if reached:
                    following[reached] = following.get(reached, 0) + count
        current = following
        if ctx is not None and current:
            # The distinct-subset frontier is the memory hot spot of the
            # determinized DP: each key is a frozenset of product states.
            ctx.note_frontier(len(current), "count.layer")
        if not current:
            return 0
    if prune:
        # Every surviving subset intersects the accept set (back[0] is the
        # accept set), so all counted words are accepted.
        return sum(current.values())
    return sum(count for subset, count in current.items()
               if subset & product.accepts)


def count_paths_exact(graph, regex: Regex, k: int,
                      start_nodes: Iterable | None = None,
                      end_nodes: Iterable | None = None,
                      *, use_label_index: bool = True, engine: str = "auto",
                      ctx=None, cache=None) -> int:
    """Count(G, r, k): the number of paths p in [[r]] with |p| = k.

    Optionally restrict the start and end nodes of the counted paths (needed
    by the regex-constrained centrality of Section 4.2).
    ``use_label_index=False`` forces the full-scan product construction.

    With a :class:`~repro.cache.QueryCache` (``cache=``), the count is
    memoized under (graph, regex text, k, endpoint restrictions) with the
    regex's label footprint — the same key family the governor's exact rung
    consults, so the two share entries.  A hit spends no budget.

    ``engine="vector"`` (or an ``"auto"`` resolution to it) builds no
    product: :func:`~repro.core.rpq.vectorized.count.vector_count_paths`
    counts walks through the determinized NFA-state sets, one count
    vector per live set, exact at any size (int64 until it could
    overflow, Python ints past that).  The scalar product DP is the
    differential oracle.
    """
    if k < 0:
        raise InvalidLengthError("path length k", k)
    if cache is not None:
        from repro.cache import MISS, label_footprint
        from repro.cache.result_cache import nodes_key

        start_nodes = nodes_key(start_nodes)
        end_nodes = nodes_key(end_nodes)
        key = ("count_paths", regex.to_text(), k, start_nodes, end_nodes)
        hit = cache.lookup(graph, key)
        if hit is not MISS:
            return hit
        count = count_paths_exact(graph, regex, k, start_nodes, end_nodes,
                                  use_label_index=use_label_index,
                                  engine=engine, ctx=ctx)
        cache.store(graph, key, label_footprint(regex), count)
        return count
    from repro.core.rpq.evaluate import footprint_edge_count
    from repro.core.rpq.vectorized.engine import resolve_engine

    nfa = compile_regex(regex)
    footprint = (footprint_edge_count(graph, nfa)
                 if engine == "auto" else None)
    resolved, reason = resolve_engine(engine, graph,
                                      footprint_edges=footprint)
    if ctx is not None:
        ctx.stats.notes["engine"] = resolved
        ctx.stats.notes["engine_reason"] = reason
    if resolved == "vector":
        from repro.core.rpq.vectorized.count import vector_count_paths

        return vector_count_paths(graph, nfa, k, start_nodes, end_nodes,
                                  use_label_index=use_label_index, ctx=ctx)
    product = build_product(graph, nfa, start_nodes=start_nodes,
                            end_nodes=end_nodes, use_label_index=use_label_index,
                            ctx=ctx)
    return count_words_exact(product, k + 1, ctx=ctx)


def count_paths_bruteforce(graph, regex: Regex, k: int,
                           start_nodes: Iterable | None = None,
                           end_nodes: Iterable | None = None) -> int:
    """Reference implementation of Count by explicit path materialization."""
    if k < 0:
        raise InvalidLengthError("path length k", k)
    start_filter = None if start_nodes is None else set(start_nodes)
    end_filter = None if end_nodes is None else set(end_nodes)
    total = 0
    for path in evaluate_bruteforce(graph, regex, k):
        if path.length != k:
            continue
        if start_filter is not None and path.start not in start_filter:
            continue
        if end_filter is not None and path.end not in end_filter:
            continue
        total += 1
    return total
