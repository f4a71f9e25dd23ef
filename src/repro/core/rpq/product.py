"""The graph x automaton product: the engine behind Count, Gen and enumeration.

Given a graph and a compiled :class:`~repro.core.rpq.nfa.NFA`, the product
is an ordinary (epsilon-free) NFA whose *alphabet is concrete*:

- an initial symbol ``('init', n)`` fixes the start node of the path, and
- an edge symbol ``('edge', e, d)`` traverses edge ``e`` forwards (``d='+'``)
  or backwards (``d='-'``).

A word ``('init', n0) ('edge', e1, d1) ... ('edge', ek, dk)`` decodes to
exactly one path ``n0 e1 n1 ... ek nk``, and distinct words decode to
distinct paths (self-loop traversals are normalized to ``'+'``, since both
directions of a self-loop are the same path step).  Therefore:

    paths of length k conforming to r  <-->  accepted words of length k+1

which reduces the paper's Count/Gen problems on paths to counting and
sampling the words of an NFA — the #NFA setting of Arenas, Croquevielle,
Jayaram and Riveros.  The NFA is genuinely ambiguous (one path may have many
accepting runs), which is precisely why exact counting is SpanL-hard.

Node-test guards of the symbolic NFA become epsilon moves evaluated at a
concrete node and are closed away during construction, so the product has no
epsilon transitions.  A closure that meets no guard is the same at every
node and is computed once per compiled automaton.  Only the NFA states
that leave by an edge transition or accept become product states:
Thompson's pass-through states would have empty tables and never accept,
so they would add states without adding a word.

**Label-selective construction.**  Each symbolic edge transition is asked
for its *label restriction* (:meth:`Test.label_candidates` /
:meth:`Test.feature_candidates` on the AST): when the graph maintains a
per-label adjacency index — :class:`~repro.models.labeled.LabeledGraph`
and its subclasses, or the feature index of
:class:`~repro.models.vector.VectorGraph` — only the matching incident
edges are fetched, instead of scanning (and testing) every edge at the
node.  For a test decided by its label restriction alone the per-edge
``matches_edge`` re-check is skipped as well.  Non-label tests fall back to
the full incidence scan, so the construction is semantics-preserving by
case analysis; ``use_label_index=False`` forces the full scan everywhere
(the equivalence tests exercise both).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.rpq.ast import TrueTest
from repro.core.rpq.nfa import NFA
from repro.core.rpq.paths import Path
from repro.errors import GraphError

#: Product state id of the virtual initial state.
INITIAL = 0

Symbol = tuple

#: Shared empty transition list for NFA states with no edge transitions.
_NO_TRANSITIONS: list = []


class ProductNFA:
    """Materialized product automaton with integer state ids.

    State 0 is the virtual initial state; every other state is a pair
    (nfa_state, graph_node).  ``transitions[s]`` maps symbols to frozensets
    of successor states.  All states reached by one word share the same
    graph node (a word determines a path), which downstream algorithms rely
    on.
    """

    def __init__(self, graph, nfa: NFA) -> None:
        self.graph = graph
        self.nfa = nfa
        self.state_keys: list[object] = ["<init>"]
        self.state_index: dict[object, int] = {"<init>": INITIAL}
        self.state_node: list[object] = [None]
        self.transitions: list[dict[Symbol, frozenset[int]]] = [{}]
        self.accepts: frozenset[int] = frozenset()
        self._successor_sets: list[frozenset[int]] | None = None
        self._predecessor_sets: list[set[int]] | None = None
        self._reverse: list[list[tuple[int, Symbol]]] | None = None
        self._alive: frozenset[int] | None = None

    # -- structure -----------------------------------------------------------

    def n_states(self) -> int:
        return len(self.state_keys)

    def delta(self, states: Iterable[int], symbol: Symbol) -> frozenset[int]:
        """Subset transition function."""
        result: set[int] = set()
        for state in states:
            result.update(self.transitions[state].get(symbol, ()))
        return frozenset(result)

    def symbols_from(self, states: Iterable[int]) -> set[Symbol]:
        symbols: set[Symbol] = set()
        for state in states:
            symbols.update(self.transitions[state])
        return symbols

    def successor_sets(self) -> list[frozenset[int]]:
        """Per-state successor sets ignoring symbols (for backward layers)."""
        if self._successor_sets is None:
            sets = []
            for table in self.transitions:
                merged: set[int] = set()
                for targets in table.values():
                    merged.update(targets)
                sets.append(frozenset(merged))
            self._successor_sets = sets
        return self._successor_sets

    def predecessor_sets(self) -> list[set[int]]:
        """Per-state predecessor sets ignoring symbols (for backward sweeps)."""
        if self._predecessor_sets is None:
            preds: list[set[int]] = [set() for _ in self.state_keys]
            for source, table in enumerate(self.transitions):
                for targets in table.values():
                    for target in targets:
                        preds[target].add(source)
            self._predecessor_sets = preds
        return self._predecessor_sets

    def reverse_transitions(self) -> list[list[tuple[int, Symbol]]]:
        """For each state q, the list of (p, symbol) with q in delta(p, symbol)."""
        if self._reverse is None:
            reverse: list[list[tuple[int, Symbol]]] = [[] for _ in self.state_keys]
            for source, table in enumerate(self.transitions):
                for symbol, targets in table.items():
                    for target in targets:
                        reverse[target].append((source, symbol))
            self._reverse = reverse
        return self._reverse

    def alive_states(self) -> frozenset[int]:
        """States from which some accept state is reachable (one backward
        sweep from the accept set; cached).

        Every product state is forward-reachable from the initial state by
        construction, so a state contributes to *some* answer iff it is
        alive.  Evaluation algorithms use this set to prune dead branches
        before doing per-length work.
        """
        if self._alive is None:
            preds = self.predecessor_sets()
            seen: set[int] = set(self.accepts)
            stack = list(self.accepts)
            while stack:
                state = stack.pop()
                for previous in preds[state]:
                    if previous not in seen:
                        seen.add(previous)
                        stack.append(previous)
            self._alive = frozenset(seen)
        return self._alive

    def back_layers(self, max_steps: int) -> list[frozenset[int]]:
        """``back[j]`` = states from which an accept state is reachable in
        exactly ``j`` transitions.  ``back[0]`` is the accept set.

        Computed by walking predecessor sets backwards from the accept
        states, so each layer costs O(edges into the previous layer) and
        dead states (not backward-reachable from an accept state) are never
        touched — rather than testing every product state per layer.
        """
        preds = self.predecessor_sets()
        layers = [self.accepts]
        for _ in range(max_steps):
            previous = layers[-1]
            current: set[int] = set()
            for state in previous:
                current.update(preds[state])
            layers.append(frozenset(current))
        return layers

    # -- words and paths -----------------------------------------------------

    def word_to_path(self, word: Iterable[Symbol]) -> Path:
        """Decode a word into the unique path it denotes."""
        word = list(word)
        if not word or word[0][0] != "init":
            raise GraphError("a product word starts with an ('init', node) symbol")
        nodes = [word[0][1]]
        edges = []
        for symbol in word[1:]:
            kind, edge, direction = symbol
            if kind != "edge":
                raise GraphError(f"unexpected symbol {symbol!r} inside a word")
            source, target = self.graph.endpoints(edge)
            edges.append(edge)
            nodes.append(target if direction == "+" else source)
        return Path(tuple(nodes), tuple(edges))


def symbol_sort_key(symbol: Symbol) -> tuple:
    """Deterministic ordering of symbols, for reproducible enumeration."""
    if symbol[0] == "init":
        return (0, str(symbol[1]), "")
    return (1, str(symbol[1]), symbol[2])


def _edge_fetchers(graph, use_label_index: bool):
    """Build the candidate-edge fetcher factory for one graph.

    Returns ``plan(test, inverse) -> (fetch, skip_test)`` where
    ``fetch(node)`` yields the candidate edges for the transition at
    ``node`` and ``skip_test`` says the per-edge ``matches_edge`` re-check
    is provably redundant for index-supplied candidates.
    """
    iter_out = getattr(graph, "iter_out_edges", None) or graph.out_edges
    iter_in = getattr(graph, "iter_in_edges", None) or graph.in_edges
    label_buckets = feature_buckets = None
    dimension = 0
    if use_label_index:
        # Bind the raw bucket dicts once: each fetch is then a single dict
        # probe, with no method call or node-membership check on the hot
        # path (every probed node is a product-state node, hence in the
        # graph).
        hook = getattr(graph, "label_adjacency_index", None)
        if hook is not None:
            label_buckets = hook()
        hook = getattr(graph, "feature_adjacency_index", None)
        if hook is not None:
            feature_buckets = hook()
            dimension = getattr(graph, "dimension", 0)

    _EMPTY: tuple = ()

    def plan(test, inverse: bool):
        if label_buckets is not None:
            labels = test.label_candidates()
            if labels is not None:
                if not labels:
                    return (lambda node: _EMPTY), True
                buckets = label_buckets[1 if inverse else 0]
                exact = test.label_candidates_exact()
                if len(labels) == 1:
                    label = next(iter(labels))

                    def fetch(node, _get=buckets.get, _label=label):
                        return _get((node, _label), _EMPTY)

                    return fetch, exact
                keys = tuple(sorted(labels, key=str))

                def fetch_multi(node, _get=buckets.get, _keys=keys):
                    for label in _keys:
                        yield from _get((node, label), _EMPTY)

                return fetch_multi, exact
        if feature_buckets is not None:
            feature = test.feature_candidates()
            # An out-of-range feature index falls through to the full scan
            # so the per-edge SchemaError surfaces exactly as without the
            # index.
            if feature is not None and 1 <= feature[0] <= dimension:
                index, values = feature
                if not values:
                    return (lambda node: _EMPTY), True
                buckets = feature_buckets[1 if inverse else 0]
                exact = test.feature_candidates_exact()
                if len(values) == 1:
                    value = next(iter(values))

                    def fetch_feature(node, _get=buckets.get,
                                      _index=index, _value=value):
                        return _get((node, _index, _value), _EMPTY)

                    return fetch_feature, exact
                pairs = tuple((index, v) for v in sorted(values, key=str))

                def fetch_features(node, _get=buckets.get, _pairs=pairs):
                    for index_, value in _pairs:
                        yield from _get((node, index_, value), _EMPTY)

                return fetch_features, exact
        return (iter_in if inverse else iter_out), isinstance(test, TrueTest)

    return plan


def build_product(graph, nfa: NFA,
                  start_nodes: Iterable | None = None,
                  end_nodes: Iterable | None = None,
                  *, use_label_index: bool = True, ctx=None) -> ProductNFA:
    """Materialize the product automaton reachable from the initial state.

    ``start_nodes`` restricts where paths may begin (default: every node);
    ``end_nodes`` restricts acceptance to paths ending there (default: every
    node).  Both restrictions are what Count/Gen between fixed endpoints —
    and the bc_r centrality — need.

    ``use_label_index=True`` (the default) drives label- and
    feature-restricted edge transitions through the graph's per-label
    adjacency index when one exists; ``False`` forces the full incidence
    scan (the reference path the equivalence tests compare against).

    ``ctx`` (an execution :class:`~repro.exec.Context`) makes construction
    cooperative: one checkpoint per expanded product state (site
    ``product.expand``) and per scanned start node (site ``product.init``),
    so adversarial products cannot be materialized past the budget.
    """
    product = ProductNFA(graph, nfa)
    end_filter = None if end_nodes is None else set(end_nodes)
    epsilon_sources = nfa.epsilon_transitions.keys()
    edge_sources = nfa.edge_transitions.keys()
    accept = nfa.accept

    # A closure that meets no guard is the same at every node (computed
    # once per automaton); guarded ones are evaluated per (state, node).
    guard_free = nfa.guard_free_closures()
    closure_cache: dict[tuple[int, object], frozenset[int]] = {}

    def cached_closure(q: int, node) -> frozenset[int]:
        found = guard_free[q]
        if found is not None:
            return found
        key = (q, node)
        found = closure_cache.get(key)
        if found is None:
            found = closure_cache[key] = nfa.epsilon_closure(
                q, lambda guard: guard.matches_node(graph, node))
        return found

    def intern(q: int, node) -> int:
        key = (q, node)
        index = product.state_index.get(key)
        if index is None:
            index = len(product.state_keys)
            product.state_index[key] = index
            product.state_keys.append(key)
            product.state_node.append(node)
            product.transitions.append({})
        return index

    accept_states: set[int] = set()
    worklist: list[int] = []
    seen: set[int] = set()

    def product_states_for(nfa_states: frozenset[int], node) -> frozenset[int]:
        states = []
        for q in nfa_states:
            accepting = q == accept and (end_filter is None or node in end_filter)
            if not accepting and q not in edge_sources:
                continue  # the accept state outside end_nodes is dead
            index = intern(q, node)
            states.append(index)
            if accepting:
                accept_states.add(index)
            if index not in seen:
                seen.add(index)
                worklist.append(index)
        return frozenset(states)

    # One fetch plan per symbolic transition, shared across product states
    # and indexed by the (dense, integer) NFA state.
    plan = _edge_fetchers(graph, use_label_index)
    prepared: list[list[tuple]] = [_NO_TRANSITIONS] * nfa.n_states
    for q, transitions in nfa.edge_transitions.items():
        prepared[q] = [(test, inverse, q2, *plan(test, inverse))
                       for test, inverse, q2 in transitions]

    endpoints = graph.endpoints

    # The product states reached through NFA state q2 at a graph node are a
    # pure function of (q2, node); many edges converge on the same pair, so
    # memoize the closure + interning once per pair.
    successor_cache: dict[tuple[int, object], frozenset[int]] = {}

    def expand_state(table: dict, node, transitions: list[tuple]) -> None:
        """Fill ``table`` with the edge symbols leaving ``(q, node)``."""
        for test, inverse, q2, fetch, skip_test in transitions:
            for edge in fetch(node):
                if not skip_test and not test.matches_edge(graph, edge):
                    continue
                source, target = endpoints(edge)
                next_node = source if inverse else target
                # A self-loop traversed backwards is the same path step as
                # forwards; normalize so one path is one word.
                direction = "+" if (not inverse or source == target) else "-"
                symbol = ("edge", edge, direction)
                successor_key = (q2, next_node)
                successors = successor_cache.get(successor_key)
                if successors is None:
                    closed = cached_closure(q2, next_node)
                    successors = product_states_for(closed, next_node)
                    successor_cache[successor_key] = successors
                if not successors:
                    continue
                existing = table.get(symbol)
                table[symbol] = (successors if existing is None
                                 else existing | successors)

    state_keys = product.state_keys
    tables = product.transitions

    # Initial symbols: one per allowed start node.
    init_table: dict[Symbol, frozenset[int]] = {}
    if start_nodes is None and nfa.start not in epsilon_sources:
        # Fast path for the default every-node start with an epsilon-free
        # start state.  A Thompson start state has no incoming transitions,
        # so each (start, node) pair is met exactly once; expand it first
        # and materialize the state only when it has an outgoing symbol (or
        # accepts).  With a selective label index, the dead majority of
        # start nodes then costs one index probe each — no interning, and
        # no weight in the downstream reachability sweeps.
        q0 = nfa.start
        start_transitions = prepared[q0]
        accepting = q0 == nfa.accept
        state_index = product.state_index
        state_node = product.state_node
        for node in graph.nodes():
            if ctx is not None:
                ctx.checkpoint("product.init")
            table: dict = {}
            expand_state(table, node, start_transitions)
            is_accept = accepting and (end_filter is None or node in end_filter)
            if not table and not is_accept:
                continue
            index = len(state_keys)
            state_index[(q0, node)] = index
            state_keys.append((q0, node))
            state_node.append(node)
            tables.append(table)
            seen.add(index)
            if is_accept:
                accept_states.add(index)
            init_table[("init", node)] = frozenset((index,))
    else:
        # Explicit start sets are deduplicated and sorted: callers may pass
        # them in any order, and the product's state numbering — hence
        # traces and frontier stats — must not depend on that order.
        starts = (sorted(set(start_nodes), key=str)
                  if start_nodes is not None else list(graph.nodes()))
        for node in starts:
            if ctx is not None:
                ctx.checkpoint("product.init")
            if not graph.has_node(node):
                raise GraphError(f"start node {node!r} is not in the graph")
            reached = product_states_for(cached_closure(nfa.start, node), node)
            if reached:
                init_table[("init", node)] = reached
    product.transitions[INITIAL] = init_table

    # Explore edge transitions from every reachable product state.
    while worklist:
        if ctx is not None:
            ctx.checkpoint("product.expand")
            ctx.note_frontier(len(worklist), "product.expand")
        index = worklist.pop()
        q, node = state_keys[index]
        expand_state(tables[index], node, prepared[q])
    product.accepts = frozenset(accept_states)
    return product
