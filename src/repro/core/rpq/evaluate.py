"""High-level evaluation helpers over [[r]].

These wrap the product construction for the two query modes Section 4
discusses beyond raw path sets:

- :func:`endpoint_pairs` — the pairs (a, b) such that some conforming path
  goes from a to b.  This is plain reachability on the product automaton, so
  no length bound is needed even though [[r]] itself is infinite.
- :func:`nodes_matching` — node extraction: the nodes a that can reach some
  b along a conforming path (the paper's "who possibly got infected on the
  bus" query shape).
- :func:`paths_matching` — materialize conforming paths up to a length
  bound, via the poly-delay enumerator.

Both reachability helpers run in a *single* sweep of the product automaton:
one backward reachability pass from the accept states yields the alive
states, and one forward fixpoint propagating start-node sets (as integer
bit masks) over the alive states yields every (start, end) pair — instead
of one DFS per start node (O(|starts|) traversals) as a naive
implementation would do.  Regexes whose automaton is a pure chain of edge
steps (edge atoms, concatenations and unions of them) bypass the product
entirely and run as a frontier join over the label index.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import repeat

from repro.core.rpq.ast import Regex, TrueTest
from repro.core.rpq.enumerate import enumerate_paths_up_to
from repro.core.rpq.nfa import NFA, compile_regex
from repro.core.rpq.paths import Path
from repro.core.rpq.product import INITIAL, _edge_fetchers, build_product
from repro.core.rpq.vectorized.engine import resolve_engine


def _note_engine(ctx, engine: str, reason: str) -> None:
    """Record the resolved engine where ``--stats`` / traces surface it."""
    if ctx is not None:
        ctx.stats.notes["engine"] = engine
        ctx.stats.notes["engine_reason"] = reason


def footprint_edge_count(graph, nfa: NFA) -> int | None:
    """How many graph edges the automaton's label footprint can touch.

    The density signal of the ``auto`` engine heuristic: the sum of the
    label-index bucket sizes over every transition's label candidates.
    ``None`` means "unknown or unrestricted" — the graph has no label
    index, or some transition accepts edges regardless of label, so the
    whole edge set participates and density is just ``m/n``.  Every
    label-indexed graph answers ``label_edge_count`` in O(1): in-memory
    models from their bucket sizes, disk-backed ones from the segment
    header (no decode).
    """
    if getattr(graph, "label_adjacency_index", None) is None:
        return None
    labels: set = set()
    for transitions in nfa.edge_transitions.values():
        for test, _, _ in transitions:
            candidates = test.label_candidates()
            if candidates is None:
                return None
            labels |= candidates
    return sum(graph.label_edge_count(label) for label in labels)


def _decode_mask(mask: int, of_bit: list) -> list:
    """The values whose bits are set in ``mask`` (start-set bit decoding)."""
    values = []
    while mask:
        low = mask & -mask
        values.append(of_bit[low.bit_length() - 1])
        mask ^= low
    return values


def _chain_steps(nfa: NFA) -> list[list[tuple]] | None:
    """Decompose a pure edge-step chain automaton into its steps, else None.

    Matches automata that are a straight line of k >= 1 edge steps from the
    start state to the accept state, with no epsilon moves and possibly
    several parallel (test, inverse) alternatives per step — the compiled
    shape of concatenations of edge atoms and unions thereof (``contact``,
    ``rides^-``, ``L0/L1/L2``, ``(L0 + L1)/L2``).  For these, [[r]] is the
    set of k-edge paths whose i-th edge passes one of step i's tests, so
    evaluation is a frontier join — seeded by a global edge (or label-index)
    scan and expanded through per-node candidate fetchers — with no product
    automaton at all.
    """
    if nfa.epsilon_transitions:
        return None
    steps: list[list[tuple]] = []
    state = nfa.start
    visited = {state}
    while state != nfa.accept:
        transitions = nfa.edge_transitions.get(state)
        if not transitions:
            return None
        targets = {target for _, _, target in transitions}
        if len(targets) != 1:
            return None
        (state,) = targets
        if state in visited:
            return None
        visited.add(state)
        steps.append([(test, inverse) for test, inverse, _ in transitions])
    # Every transition family must lie on the chain (no branches off it).
    if len(steps) != len(nfa.edge_transitions):
        return None
    return steps


def _edges_matching(graph, test, use_label_index: bool):
    """All graph edges passing ``test``, through the global label index when
    the test is label-restricted (mirrors the product's fetch planning,
    including its error surface: non-exact candidates are re-checked with
    ``matches_edge``, non-label tests scan and check every edge)."""
    if use_label_index and getattr(graph, "label_adjacency_index", None) is not None:
        labels = test.label_candidates()
        if labels is not None:
            candidates = (edge for label in sorted(labels, key=str)
                          for edge in graph.edges_with_label(label))
            if test.label_candidates_exact():
                return candidates
            return (e for e in candidates if test.matches_edge(graph, e))
    if isinstance(test, TrueTest):
        return iter(graph.edges())
    return (e for e in graph.edges() if test.matches_edge(graph, e))


def _chain_frontiers(graph, steps: list[list[tuple]], use_label_index: bool,
                     ctx=None):
    """Run a chain automaton as a frontier join; yields the final frontier.

    Returns ``(start_of_bit, frontier)`` where ``frontier`` maps each node
    reachable through the whole chain to the bit mask of start nodes (as
    indexes into ``start_of_bit``) that reach it.  The first step seeds the
    frontier from a global edge scan; each later step expands the current
    frontier through the same per-node candidate fetchers the product
    construction uses, so candidate sets — and hence the error surface —
    are identical to the product path's.
    """
    endpoints = graph.endpoints
    start_of_bit: list = []
    bit_of_start: dict = {}
    frontier: dict = {}
    for test, inverse in steps[0]:
        for edge in _edges_matching(graph, test, use_label_index):
            if ctx is not None:
                ctx.checkpoint("evaluate.chain")
            source, target = endpoints(edge)
            if inverse:
                source, target = target, source
            bit = bit_of_start.get(source)
            if bit is None:
                bit = bit_of_start[source] = 1 << len(start_of_bit)
                start_of_bit.append(source)
            frontier[target] = frontier.get(target, 0) | bit
    plan = _edge_fetchers(graph, use_label_index)
    for alternatives in steps[1:]:
        if not frontier:
            break
        fetchers = [(plan(test, inverse), test, inverse)
                    for test, inverse in alternatives]
        next_frontier: dict = {}
        for node, mask in frontier.items():
            if ctx is not None:
                ctx.checkpoint("evaluate.chain")
                ctx.note_frontier(len(frontier), "evaluate.chain")
            for (fetch, skip_test), test, inverse in fetchers:
                for edge in fetch(node):
                    if not skip_test and not test.matches_edge(graph, edge):
                        continue
                    source, target = endpoints(edge)
                    next_node = source if inverse else target
                    next_frontier[next_node] = next_frontier.get(next_node, 0) | mask
        frontier = next_frontier
    return start_of_bit, frontier


def paths_matching(graph, regex: Regex, max_length: int,
                   start_nodes: Iterable | None = None,
                   end_nodes: Iterable | None = None, *,
                   ctx=None) -> Iterator[Path]:
    """All conforming paths with |p| <= max_length, shortest first."""
    return enumerate_paths_up_to(graph, regex, max_length,
                                 start_nodes=start_nodes, end_nodes=end_nodes,
                                 ctx=ctx)


def endpoint_pairs(graph, regex: Regex,
                   start_nodes: Iterable | None = None,
                   end_nodes: Iterable | None = None,
                   *, use_label_index: bool = True, engine: str = "auto",
                   ctx=None, tracer=None, cache=None) -> set[tuple]:
    """All (start(p), end(p)) for p in [[regex]] — finite, computed exactly.

    Chain-shaped regexes (pure sequences of edge steps, unrestricted
    endpoints) run as a frontier join with no product at all.  Otherwise,
    one backward sweep from the accept states prunes the product to its
    alive states; one forward fixpoint then propagates, per alive state, the
    set of start nodes that reach it, encoded as an integer bit mask so a
    set union is one big-int OR.  Each accepting state (q, b) finally
    contributes the pairs {(a, b) : a in its start set}.  The propagation is
    monotone over subsets of the start nodes, so the worklist terminates,
    and it traverses each deduplicated product edge a bounded number of
    times instead of once per start node.

    With a :class:`~repro.obs.Tracer` the phases are recorded as nested
    spans (``compile`` with cache hit/miss deltas, then ``evaluate`` tagged
    with the chosen strategy, containing ``product`` for the non-chain
    path); ``tracer=None`` adds no spans and no allocations.

    With a :class:`~repro.cache.QueryCache` (``cache=``), the answer is
    memoized under the canonical key (graph, regex text, endpoint
    restrictions) with the regex's label footprint; a hit returns without
    compiling, evaluating, or spending a single budget checkpoint, and
    survives any interleaved mutations whose log records stay outside the
    footprint.  The cached value is frozen; callers get a fresh set.

    ``engine`` selects the evaluation kernel: ``"scalar"`` is the
    per-node Python engine above, ``"vector"`` forces the numpy fixpoint
    kernel of :mod:`repro.core.rpq.vectorized` (identical answers — the
    differential harness pins scalar == vector), and ``"auto"`` (the
    default) picks by graph size, keeping the chain fast path where it
    applies.  The engines share the cache key family: answers are
    engine-independent, so a cache entry serves both.
    """
    if cache is not None:
        from repro.cache import MISS, label_footprint
        from repro.cache.result_cache import nodes_key

        start_nodes = nodes_key(start_nodes)
        end_nodes = nodes_key(end_nodes)
        key = ("endpoint_pairs", regex.to_text(), start_nodes, end_nodes)
        hit = cache.lookup(graph, key)
        if hit is not MISS:
            return set(hit)
        pairs = endpoint_pairs(graph, regex, start_nodes, end_nodes,
                               use_label_index=use_label_index,
                               engine=engine, ctx=ctx, tracer=tracer)
        cache.store(graph, key, label_footprint(regex), frozenset(pairs))
        return pairs
    if tracer is None:
        nfa = compile_regex(regex)
    else:
        with tracer.span("compile", cache=True) as span:
            nfa = compile_regex(regex)
            span.attrs["nfa_states"] = nfa.n_states
    footprint = (footprint_edge_count(graph, nfa)
                 if engine == "auto" else None)
    resolved, reason = resolve_engine(engine, graph,
                                      footprint_edges=footprint)
    if (start_nodes is None and end_nodes is None
            and (resolved == "scalar" or engine == "auto")):
        steps = _chain_steps(nfa)
        if steps is not None:
            # Pure edge-step chain: evaluate as a frontier join over the
            # label index, with no product automaton at all.  ``auto``
            # prefers this even where the size heuristic says vector —
            # the join touches only matching edges, the kernel touches
            # every node.
            if resolved == "vector":
                resolved = "scalar"
                reason = ("auto: chain-shaped query "
                          "(label-index frontier join preferred)")
            _note_engine(ctx, resolved, reason)
            if tracer is None:
                return _chain_pairs(graph, steps, use_label_index, ctx)
            with tracer.span("evaluate", ctx=ctx,
                             strategy="chain-frontier-join",
                             engine="scalar") as span:
                pairs = _chain_pairs(graph, steps, use_label_index, ctx)
                span.attrs["answers"] = len(pairs)
                return pairs
    _note_engine(ctx, resolved, reason)
    if resolved == "vector":
        from repro.core.rpq.vectorized import vector_endpoint_pairs

        if tracer is None:
            return vector_endpoint_pairs(graph, nfa, start_nodes, end_nodes,
                                         use_label_index=use_label_index,
                                         ctx=ctx)
        with tracer.span("evaluate", ctx=ctx, strategy="vector-fixpoint",
                         engine="vector") as span:
            pairs = vector_endpoint_pairs(graph, nfa, start_nodes, end_nodes,
                                          use_label_index=use_label_index,
                                          ctx=ctx, tracer=tracer)
            span.attrs["answers"] = len(pairs)
            return pairs
    if tracer is None:
        return _product_pairs(graph, nfa, start_nodes, end_nodes,
                              use_label_index, ctx)
    with tracer.span("evaluate", ctx=ctx,
                     strategy="product-fixpoint", engine="scalar") as span:
        pairs = _product_pairs(graph, nfa, start_nodes, end_nodes,
                               use_label_index, ctx, tracer)
        span.attrs["answers"] = len(pairs)
        return pairs


def _chain_pairs(graph, steps, use_label_index: bool, ctx=None) -> set[tuple]:
    """The chain-frontier-join strategy body of :func:`endpoint_pairs`."""
    start_of_bit, frontier = _chain_frontiers(graph, steps,
                                              use_label_index, ctx)
    pairs: set[tuple] = set()
    decoded: dict[int, list] = {}
    for end_node, mask in frontier.items():
        starts = decoded.get(mask)
        if starts is None:
            starts = decoded[mask] = _decode_mask(mask, start_of_bit)
        pairs.update(zip(starts, repeat(end_node)))
    return pairs


def _product_pairs(graph, nfa: NFA, start_nodes, end_nodes,
                   use_label_index: bool, ctx=None,
                   tracer=None) -> set[tuple]:
    """The product-automaton strategy body of :func:`endpoint_pairs`."""
    if tracer is None:
        product = build_product(graph, nfa, start_nodes=start_nodes,
                                end_nodes=end_nodes,
                                use_label_index=use_label_index, ctx=ctx)
    else:
        with tracer.span("product", ctx=ctx) as span:
            product = build_product(graph, nfa, start_nodes=start_nodes,
                                    end_nodes=end_nodes,
                                    use_label_index=use_label_index, ctx=ctx)
            span.attrs["product_states"] = product.n_states()
    alive = product.alive_states()
    if not alive:
        return set()

    # Give each start node with an alive initial state one bit; the forward
    # pass then propagates start *sets* as machine integers, so a union is
    # a single big-int OR instead of a per-element set merge.
    start_of_bit: list = []
    n_states = product.n_states()
    masks = [0] * n_states
    worklist: list[int] = []
    for symbol, first_states in product.transitions[INITIAL].items():
        bit = 0
        for state in first_states:
            if state not in alive:
                continue
            if not bit:
                bit = 1 << len(start_of_bit)
                start_of_bit.append(symbol[1])
            if not masks[state]:
                worklist.append(state)
            masks[state] |= bit
    if not worklist:
        return set()

    # Deduplicated successors restricted to alive states, built on first
    # visit — a requeued state then costs O(distinct successors), not a
    # rescan of its per-symbol transition table.
    succ = product.successor_sets()
    adjacency: list[list[int] | None] = [None] * n_states
    queued = [False] * n_states
    for state in worklist:
        queued[state] = True
    while worklist:
        if ctx is not None:
            ctx.checkpoint("evaluate.fixpoint")
            ctx.note_frontier(len(worklist), "evaluate.fixpoint")
        state = worklist.pop()
        queued[state] = False
        mask = masks[state]
        targets = adjacency[state]
        if targets is None:
            targets = adjacency[state] = [t for t in succ[state] if t in alive]
        for target in targets:
            if mask | masks[target] != masks[target]:
                masks[target] |= mask
                if not queued[target]:
                    queued[target] = True
                    worklist.append(target)

    pairs = set()
    decoded = {}
    for state in product.accepts:
        mask = masks[state]
        if mask:
            starts = decoded.get(mask)
            if starts is None:
                starts = decoded[mask] = _decode_mask(mask, start_of_bit)
            pairs.update(zip(starts, repeat(product.state_node[state])))
    return pairs


def nodes_matching(graph, regex: Regex,
                   end_nodes: Iterable | None = None,
                   *, use_label_index: bool = True, ctx=None) -> set:
    """Node extraction: nodes a with a conforming path from a to some b.

    Needs no forward pass at all: a start node has a conforming path iff
    one of its initial product states is alive (can reach an accept state),
    which the single backward sweep answers directly.
    """
    nfa = compile_regex(regex)
    if end_nodes is None:
        steps = _chain_steps(nfa)
        if steps is not None:
            start_of_bit, frontier = _chain_frontiers(graph, steps,
                                                      use_label_index, ctx)
            surviving = 0
            for mask in frontier.values():
                surviving |= mask
            return set(_decode_mask(surviving, start_of_bit))
    product = build_product(graph, nfa, end_nodes=end_nodes,
                            use_label_index=use_label_index, ctx=ctx)
    alive = product.alive_states()
    return {symbol[1]
            for symbol, first_states in product.transitions[INITIAL].items()
            if not alive.isdisjoint(first_states)}


def shortest_conforming_length(graph, regex: Regex, start_node, end_node,
                               *, ctx=None) -> int | None:
    """min{|p| : p in [[regex]], start(p)=start_node, end(p)=end_node}, or None.

    BFS over the product automaton (word length - 1 = path length); this is
    the distance notion S_{a,b,r} of Section 4.2 builds on.
    """
    nfa = compile_regex(regex)
    product = build_product(graph, nfa, start_nodes=[start_node],
                            end_nodes=[end_node], ctx=ctx)
    frontier = set(product.transitions[INITIAL].get(("init", start_node), ()))
    seen = set(frontier)
    distance = 0
    while frontier:
        if ctx is not None:
            ctx.checkpoint("evaluate.bfs")
            ctx.note_frontier(len(frontier), "evaluate.bfs")
        if any(state in product.accepts for state in frontier):
            return distance
        next_frontier: set[int] = set()
        for state in frontier:
            for targets in product.transitions[state].values():
                next_frontier.update(targets)
        frontier = next_frontier - seen
        seen |= frontier
        distance += 1
    return None
