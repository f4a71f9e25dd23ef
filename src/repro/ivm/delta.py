"""Incremental maintenance of RPQ endpoint pairs under graph mutation.

:class:`IncrementalPairs` keeps the answer of
:func:`~repro.core.rpq.evaluate.endpoint_pairs` continuously correct while
the underlying graph mutates, by propagating each
:class:`~repro.cache.versioning.MutationRecord` as an *edge delta* through
the product-automaton frontier instead of re-running the fixpoint from
scratch.

The maintained state is the forward fixpoint of the product automaton made
explicit: a *fact* is a pair ``(q, node)`` — NFA state reached at a graph
node — whose value is the bit mask of start nodes that reach it (the same
encoding the scalar engine uses transiently).  No support index is kept
beside the facts.  A fact's *successors* in the live product (its guarded-
epsilon moves and the edge steps out of its node) are read from the graph
the first time a sync or a full recompute needs them and memoized until it
ends, so the forward fixpoint, the over-deletion walk and every revisit of
a fact share one fetch of its edges.

**Additions** seed a semi-naive forward delta-fixpoint: each net-new edge
is matched against every NFA transition, existing source-fact masks flow
across it, and the ordinary monotone worklist propagation completes the
fixpoint from the affected frontier only.

**Removals** use delete-and-rederive (DRed), with the suspects found from
the live product:

- *Seeds.*  A removed edge is gone from the graph by sync time, so its
  transition tests cannot be run; every transition counts as one it may
  have fired.  The ``remove_edge`` record logs the edge's endpoints, and a
  forward transition ``q1 → q2`` seeds the fact ``(q2, target)`` when
  ``(q1, source)`` is a fact (an inverse transition swaps the roles).
- *Removed nodes.*  ``remove_node`` removes a node's edges first, so they
  arrive as removal records of their own and seed the neighbours.  The
  facts at a removed node are dropped and never walked.
- *Over-deletion.*  Every fact reachable from a seed over live product
  successors is a suspect.  This finds every fact a removal can
  invalidate: on any derivation that used a removed edge, the steps after
  the last such edge run over surviving edges, from a seed, through facts.
  The walk groups the suspects into the strongly connected components of
  the product restricted to them.
- *Rederivation.*  Components are rederived upstream first.  The members
  of one component reach each other, so they share one mask: the union
  of what each receives from its in-neighbours (the reverse fetch plans)
  outside the component, which are non-suspects or members of earlier
  components.  Each suspect is thus recomputed once, instead of once per
  start bit that reaches it late; forward propagation then reaches the
  successors that were not facts.  Over-seeding is safe, because a
  suspect that still has a derivation is restored.  Support *counts*
  would be unsound here: cyclic derivations (``r*`` around a cycle) keep
  each other's counts positive after the external support is gone,
  whereas rederivation from the fixed boundary provably reaches the least
  fixpoint.

**Fallback.**  Four situations abandon the delta and re-evaluate in full,
counted in :meth:`IncrementalPairs.stats`: a mutation-log window that no
longer reaches the view's version (truncation or
:meth:`~repro.cache.versioning.MutationLog.fast_forward`); a structural
record without the payload the delta rules read; a record of a kind the
engine does not handle exactly (in-place relabels and property writes)
whose label sets intersect the automaton's *sensitivity footprint* (the
union of its transition tests' and epsilon guards' footprints); and a net
delta larger than ``delta_threshold`` edges+nodes, past which the delta
bookkeeping costs more than one fixpoint.

All phases checkpoint a governed :class:`~repro.exec.Context` (sites
``ivm.delta``, ``ivm.retract``, ``ivm.rederive``, ``ivm.recompute``), and a
sync aborted by a budget error poisons the view: the next sync falls back
to a full recompute rather than trusting half-applied state.
"""

from __future__ import annotations

from repro.cache.footprint import Footprint, test_footprint
from repro.core.rpq.ast import Regex
from repro.core.rpq.evaluate import _decode_mask
from repro.core.rpq.nfa import compile_regex
from repro.core.rpq.parser import parse_regex
from repro.core.rpq.product import _edge_fetchers

#: Test-only escape hatch: when True, removal records are dropped on the
#: floor instead of triggering retraction, deliberately violating the
#: delta rule.  The metamorphic tier flips this to prove it would catch a
#: maintenance bug (incremental answers go stale the first time an
#: effective removal lands).
_BREAK_DELTA_RULE = False

#: Structural record kinds the delta engine handles exactly, mapped to the
#: event they witness.  Only the *base* layer's record is consulted — the
#: ``.label`` / ``.props`` / ``.features`` companions describe the same
#: structural event and are ignored (their payloads matter to time travel,
#: not to maintenance).
_EDGE_EVENTS = {"add_edge": "add", "remove_edge": "remove"}
_NODE_EVENTS = {"add_node": "add", "remove_node": "remove"}

_COMPANION_KINDS = frozenset({
    "add_edge.label", "remove_edge.label",
    "add_node.label", "remove_node.label",
    "add_edge.props", "remove_edge.props", "remove_node.props",
    "add_edge.features", "remove_edge.features",
    "add_node.features", "remove_node.features",
})


def _sensitivity_footprint(nfa) -> Footprint:
    """What non-structural state the automaton's answer can depend on.

    The union of every edge transition test's footprint and every epsilon
    guard's node footprint.  Structural changes are handled exactly by the
    delta rules, so — unlike the cache's
    :func:`~repro.cache.footprint.label_footprint` — this footprint is only
    consulted for in-place writes (relabels, property/feature updates).
    """
    footprint = Footprint()
    for transitions in nfa.edge_transitions.values():
        for test, _inverse, _q2 in transitions:
            footprint = footprint | test_footprint(test, "edge")
    for moves in nfa.epsilon_transitions.values():
        for guard, _q2 in moves:
            if guard is not None:
                footprint = footprint | test_footprint(guard, "node")
    return footprint


class IncrementalPairs:
    """A continuously-correct ``endpoint_pairs`` answer for one query.

    Maintenance is pull-based: nothing subscribes to the graph; call
    :meth:`sync` (or :meth:`pairs`, which syncs first) and the engine
    catches up with every mutation recorded since its last sync.  The
    engine never writes to the graph or its mutation log, so caches
    sharing the same log are unaffected by view maintenance.
    """

    def __init__(self, graph, regex: Regex | str,
                 start_nodes=None, end_nodes=None, *,
                 use_label_index: bool = True,
                 delta_threshold: int | None = None) -> None:
        if isinstance(regex, str):
            regex = parse_regex(regex)
        self.graph = graph
        self.regex = regex
        self.nfa = compile_regex(regex)
        self.start_filter = (None if start_nodes is None
                             else frozenset(start_nodes))
        self.end_filter = None if end_nodes is None else frozenset(end_nodes)
        self.use_label_index = use_label_index
        self.delta_threshold = delta_threshold
        self.version: int | None = None
        self.stats = {
            "syncs": 0, "delta_syncs": 0, "full_recomputes": 0,
            "retractions": 0, "rederived": 0, "truncations": 0,
            "threshold_fallbacks": 0, "unhandled_fallbacks": 0,
        }
        self._poisoned = False
        self._q0 = self.nfa.start
        self._accept_q = self.nfa.accept
        self._sensitivity = _sensitivity_footprint(self.nfa)
        self._plan = _edge_fetchers(graph, use_label_index)
        # Forward fetch plans per NFA state, and the flat transition list
        # the addition and removal seeders match edges against.
        self._prepared: dict[int, list[tuple]] = {}
        self._transition_list: list[tuple] = []
        for q, transitions in self.nfa.edge_transitions.items():
            self._prepared[q] = [
                (test, inverse, q2, *self._plan(test, inverse))
                for test, inverse, q2 in transitions]
            for test, inverse, q2 in transitions:
                self._transition_list.append((q, test, inverse, q2))
        # Reversed fetch plans per *target* NFA state, for rederivation:
        # candidates arriving at a node came through the opposite index
        # direction of the forward traversal.
        self._rev_prepared: dict[int, list[tuple]] = {}
        for q1, test, inverse, q2 in self._transition_list:
            self._rev_prepared.setdefault(q2, []).append(
                (q1, test, inverse, *self._plan(test, not inverse)))
        self._eps_sources = self.nfa.epsilon_transitions.keys()
        # Memos over the live graph, cleared at every sync and full
        # recompute: between two syncs the graph changes under them.
        self._closure_cache: dict[tuple, frozenset] = {}
        self._successor_cache: dict[tuple, list] = {}
        self._trivial_closure: dict[int, frozenset] = {}
        # Maintained state.
        self.masks: dict[tuple, int] = {}
        self.facts_at: dict[object, set[int]] = {}
        self.accept_masks: dict[object, int] = {}
        self._bit_of: dict[object, int] = {}
        self._of_bit: list = []
        self._free_bits: list[int] = []
        self._pairs_cache: frozenset | None = None

    # -- public API --------------------------------------------------------

    def pairs(self, ctx=None) -> frozenset:
        """The current (start, end) pairs, synced to the graph's version."""
        self.sync(ctx)
        if self._pairs_cache is None:
            out = set()
            decoded: dict[int, list] = {}
            for node, mask in self.accept_masks.items():
                starts = decoded.get(mask)
                if starts is None:
                    starts = decoded[mask] = _decode_mask(mask, self._of_bit)
                for start in starts:
                    out.add((start, node))
            self._pairs_cache = frozenset(out)
        return self._pairs_cache

    def sync(self, ctx=None) -> None:
        """Catch up with every mutation recorded since the last sync."""
        log = self.graph.mutation_log
        current = log.version
        if self.version == current and not self._poisoned:
            return
        self.stats["syncs"] += 1
        try:
            if self._poisoned or self.version is None:
                self._recompute(ctx)
            else:
                records = log.records_since(self.version)
                if records is None:
                    self.stats["truncations"] += 1
                    self._recompute(ctx)
                else:
                    self._apply_records(records, ctx)
            self.version = current
            self._poisoned = False
        except BaseException:
            # A budget error (or any abort) mid-sync leaves half-applied
            # state; trusting it would serve wrong answers.
            self._poisoned = True
            raise

    # -- record classification ---------------------------------------------

    def _apply_records(self, records, ctx) -> None:
        graph = self.graph
        edge_first: dict = {}
        node_first: dict = {}
        for record in records:
            kind = record.kind
            event = _EDGE_EVENTS.get(kind)
            if event is not None:
                if _BREAK_DELTA_RULE and event == "remove":
                    continue
                if len(record.payload) < 3:  # (edge, source, target)
                    self.stats["unhandled_fallbacks"] += 1
                    self._recompute(ctx)
                    return
                edge_first.setdefault(record.payload[0],
                                      (event, record.payload))
                continue
            event = _NODE_EVENTS.get(kind)
            if event is not None:
                if _BREAK_DELTA_RULE and event == "remove":
                    continue
                if not record.payload:
                    self.stats["unhandled_fallbacks"] += 1
                    self._recompute(ctx)
                    return
                node_first.setdefault(record.payload[0], event)
                continue
            if kind in _COMPANION_KINDS:
                continue
            if (kind == "add_node.props" and record.payload
                    and record.payload[-1] == "fresh"):
                continue  # companion of the add_node that created the node
            # An in-place write (relabel, property/feature update) or an
            # unknown kind: exact only if the automaton cannot read it.
            if self._sensitivity.intersects(record):
                self.stats["unhandled_fallbacks"] += 1
                self._recompute(ctx)
                return
        # A removal keeps the endpoints its first record logged: the edge
        # as the view last saw it, whatever happened to the id after.
        added_edges, removed_edges = [], []
        for edge, (first, payload) in edge_first.items():
            present = graph.has_edge(edge)
            if first == "add":
                if present:  # churn (add then remove) cancels out
                    added_edges.append(edge)
            else:
                removed_edges.append(payload[1:3])
                if present:  # removed then re-added, possibly rewired
                    added_edges.append(edge)
        added_nodes, removed_nodes = [], []
        for node, first in node_first.items():
            present = graph.has_node(node)
            if first == "add":
                if present:
                    added_nodes.append(node)
            else:
                removed_nodes.append(node)
                if present:
                    added_nodes.append(node)
        delta_size = (len(added_edges) + len(removed_edges)
                      + len(added_nodes) + len(removed_nodes))
        threshold = self.delta_threshold
        if threshold is None:
            threshold = max(16, (graph.edge_count() + graph.node_count()) // 2)
        if delta_size > threshold:
            self.stats["threshold_fallbacks"] += 1
            self._recompute(ctx)
            return
        self.stats["delta_syncs"] += 1
        self._closure_cache.clear()
        self._successor_cache.clear()
        if removed_edges or removed_nodes:
            self._retract(removed_nodes, removed_edges, ctx)
        if added_edges or added_nodes:
            self._apply_additions(added_nodes, added_edges, ctx)

    # -- fact bookkeeping --------------------------------------------------

    def _is_start(self, node) -> bool:
        return self.start_filter is None or node in self.start_filter

    def _bit_for(self, node) -> int:
        position = self._bit_of.get(node)
        if position is None:
            if self._free_bits:
                position = self._free_bits.pop()
                self._of_bit[position] = node
            else:
                position = len(self._of_bit)
                self._of_bit.append(node)
            self._bit_of[node] = position
        return 1 << position

    def _closure(self, q: int, node) -> frozenset:
        """Guarded-epsilon closure of {q} at ``node`` (cached per sync)."""
        if q not in self._eps_sources:
            found = self._trivial_closure.get(q)
            if found is None:
                found = self._trivial_closure[q] = frozenset((q,))
            return found
        key = (q, node)
        found = self._closure_cache.get(key)
        if found is None:
            graph = self.graph
            eps = self.nfa.epsilon_transitions
            result: set[int] = set()
            stack = [q]
            while stack:
                state = stack.pop()
                if state in result:
                    continue
                result.add(state)
                for guard, q2 in eps.get(state, ()):
                    if q2 not in result and (
                            guard is None or guard.matches_node(graph, node)):
                        stack.append(q2)
            found = self._closure_cache[key] = frozenset(result)
        return found

    def _successors(self, key) -> list:
        """The facts ``key`` steps to in the live product (cached per sync).

        Its guarded-epsilon moves at its node, then one entry per edge it
        steps over (parallel edges repeat an entry).
        """
        found = self._successor_cache.get(key)
        if found is None:
            q, node = key
            graph = self.graph
            endpoints = graph.endpoints
            found = [(q2, node) for q2 in self._closure(q, node) if q2 != q]
            for test, inverse, q2, fetch, skip_test in self._prepared.get(
                    q, ()):
                for edge in fetch(node):
                    if skip_test or test.matches_edge(graph, edge):
                        source, target = endpoints(edge)
                        found.append((q2, source if inverse else target))
            self._successor_cache[key] = found
        return found

    def _or_into(self, key, mask: int, worklist, queued) -> None:
        old = self.masks.get(key, 0)
        new = old | mask
        if new == old:
            return
        self.masks[key] = new
        q, node = key
        if not old:
            self.facts_at.setdefault(node, set()).add(q)
        if q == self._accept_q and (
                self.end_filter is None or node in self.end_filter):
            self.accept_masks[node] = new
            self._pairs_cache = None
        if key not in queued:
            queued.add(key)
            worklist.append(key)

    def _drop_fact(self, key) -> None:
        if self.masks.pop(key, None) is None:
            return
        q, node = key
        states = self.facts_at.get(node)
        if states is not None:
            states.discard(q)
            if not states:
                del self.facts_at[node]
        if q == self._accept_q and node in self.accept_masks:
            del self.accept_masks[node]
            self._pairs_cache = None

    # -- the forward fixpoint ----------------------------------------------

    def _propagate(self, worklist, queued, ctx, site: str) -> None:
        masks = self.masks
        successors = self._successors
        or_into = self._or_into
        while worklist:
            if ctx is not None:
                ctx.checkpoint(site)
                ctx.note_frontier(len(worklist), site)
            key = worklist.pop()
            queued.discard(key)
            mask = masks.get(key, 0)
            if not mask:
                continue
            for successor in successors(key):
                or_into(successor, mask, worklist, queued)

    def _recompute(self, ctx) -> None:
        """Rebuild every fact from the live graph."""
        self.stats["full_recomputes"] += 1
        self.masks.clear()
        self.facts_at.clear()
        self.accept_masks.clear()
        self._bit_of.clear()
        self._of_bit.clear()
        self._free_bits.clear()
        self._closure_cache.clear()
        self._successor_cache.clear()
        self._pairs_cache = None
        worklist: list = []
        queued: set = set()
        for node in self.graph.nodes():
            if ctx is not None:
                ctx.checkpoint("ivm.recompute")
            if self._is_start(node):
                self._or_into((self._q0, node), self._bit_for(node),
                              worklist, queued)
        self._propagate(worklist, queued, ctx, "ivm.recompute")

    # -- additions ----------------------------------------------------------

    def _apply_additions(self, added_nodes, added_edges, ctx) -> None:
        graph = self.graph
        worklist: list = []
        queued: set = set()
        for node in added_nodes:
            if graph.has_node(node) and self._is_start(node):
                self._or_into((self._q0, node), self._bit_for(node),
                              worklist, queued)
        for edge in added_edges:
            if ctx is not None:
                ctx.checkpoint("ivm.delta")
            source, target = graph.endpoints(edge)
            for q1, test, inverse, q2 in self._transition_list:
                if not test.matches_edge(graph, edge):
                    continue
                u1, w = (target, source) if inverse else (source, target)
                mask = self.masks.get((q1, u1), 0)
                if mask:
                    self._or_into((q2, w), mask, worklist, queued)
        self._propagate(worklist, queued, ctx, "ivm.delta")

    # -- removals: delete-and-rederive ---------------------------------------

    def _retract(self, removed_nodes, removed_edges, ctx) -> None:
        self.stats["retractions"] += 1
        masks = self.masks
        # Seed one transition past each removed edge's logged endpoints,
        # while the facts at removed nodes still stand as sources.
        seeds: list = []
        for source, target in removed_edges:
            for q1, _test, inverse, q2 in self._transition_list:
                u1, w = (target, source) if inverse else (source, target)
                if (q1, u1) in masks:
                    seeds.append((q2, w))
        for node in removed_nodes:
            for q in tuple(self.facts_at.get(node, ())):
                self._drop_fact((q, node))
            position = self._bit_of.pop(node, None)
            if position is not None:
                self._of_bit[position] = None
                self._free_bits.append(position)
        components = self._suspect_components(seeds, ctx)
        for component in components:
            for key in component:
                self._drop_fact(key)
        # Rederive component by component, upstream first.  The members of
        # a component reach each other, so they share one mask: the union
        # of what they receive from the non-suspect boundary (already
        # correct) and from earlier components.  Propagation then carries
        # the masks to successors that were not facts before the sync.
        # Every suspect sits at a live node: walks follow live edges, and
        # a seed at a removed node lost its fact above.
        worklist: list = []
        queued: set = set()
        for component in components:
            if ctx is not None:
                ctx.checkpoint("ivm.rederive")
            mask = 0
            for key in component:
                mask |= self._scratch_mask(key)
            if mask:
                for key in component:
                    self._or_into(key, mask, worklist, queued)
            self.stats["rederived"] += len(component)
        self._propagate(worklist, queued, ctx, "ivm.rederive")

    def _suspect_components(self, seeds, ctx) -> list[list]:
        """Over-deletion: every fact the seeds reach in the live product.

        Returned as the strongly connected components of the product
        restricted to those facts, in topological order (iterative
        Tarjan, whose components come out downstream first).
        """
        masks = self.masks
        index: dict = {}
        low: dict = {}
        stack: list = []
        on_stack: set = set()
        components: list = []
        for seed in seeds:
            if seed in index or seed not in masks:
                continue
            index[seed] = low[seed] = len(index)
            stack.append(seed)
            on_stack.add(seed)
            work = [(seed, iter(self._successors(seed)))]
            while work:
                if ctx is not None:
                    ctx.checkpoint("ivm.retract")
                    ctx.note_frontier(len(stack), "ivm.retract")
                key, successors = work[-1]
                for successor in successors:
                    if successor not in index:
                        if successor in masks:
                            index[successor] = low[successor] = len(index)
                            stack.append(successor)
                            on_stack.add(successor)
                            work.append((successor,
                                         iter(self._successors(successor))))
                            break
                    elif successor in on_stack and index[successor] < low[key]:
                        low[key] = index[successor]
                else:
                    work.pop()
                    if work and low[key] < low[work[-1][0]]:
                        low[work[-1][0]] = low[key]
                    if low[key] == index[key]:
                        component = []
                        while True:
                            member = stack.pop()
                            on_stack.discard(member)
                            component.append(member)
                            if member == key:
                                break
                        components.append(component)
        components.reverse()
        return components

    def _scratch_mask(self, key) -> int:
        """One fact's mask recomputed from current facts and live edges."""
        q, node = key
        graph = self.graph
        masks = self.masks
        mask = 0
        if q == self._q0 and self._is_start(node):
            mask |= self._bit_for(node)
        for q1 in self.facts_at.get(node, ()):
            if q1 != q and q in self._closure(q1, node):
                mask |= masks[(q1, node)]
        endpoints = graph.endpoints
        for q1, test, inverse, fetch, skip_test in self._rev_prepared.get(q, ()):
            for edge in fetch(node):
                if skip_test or test.matches_edge(graph, edge):
                    source, target = endpoints(edge)
                    mask |= masks.get((q1, target if inverse else source), 0)
        return mask
