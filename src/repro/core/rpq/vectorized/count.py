"""Exact Count as a vector DP over determinized NFA-state sets.

Count(G, r, k) is SpanL-complete when the regex is part of the input, but
for one regex the subset construction is a fixed, *deterministic*
automaton: after reading a path, the set of NFA states it can be in
depends on the path alone (the epsilon closure at the reached node
decides the guards).  So every path of length k is exactly one walk of
k steps through pairs (state set S, node v), and counting paths is
counting walks — no product automaton and no per-word subset DP.

The kernel keeps one count vector over the snapshot's nodes per live
state set, ``C[S][v]`` = the paths so far that end at ``v`` in ``S``:

- layer 0 puts a 1 at every start node, under the closure of the NFA's
  start state there;
- a layer gathers each set's counts along each of its *edge classes* —
  the edges that pass the same transitions of ``S``, hence lead to the
  same pre-closure states ``Q`` — and segment-sums them into
  ``C'[closure_w(Q)][w]`` at each reached node ``w``.  Guards split the
  reached nodes by which guards hold there.  When every transition of
  ``S`` tests an exact label set (or is the wildcard), the classes are
  unions of labels and their CSRs come from the snapshot's memo
  (:meth:`GraphArrays.label_csr`); otherwise edges are grouped by
  per-edge class keys;
- a self-loop taken by both a forward and an inverse transition is one
  path step, as the product's symbol normalization makes it: its class
  joins both directions' target states.

The answer sums the sets that hold the accept state at the end nodes.
Sets that cannot reach the accept state in the steps left (an
over-approximation that assumes every test holds) are dropped as they
appear.

Counts are int64 while ``peak × max degree × live sets`` stays below
2**62 — no node can then receive more than that in one layer — and
switch to Python-int (object) vectors past it, so answers beyond 2**63
stay exact.  The kernel checkpoints once per (layer, set) at
``vector.count`` (charging the set's gathered moves) and notes the
live-set frontier there; building edge classes and guard masks
checkpoints at ``vector.build``.
"""

from __future__ import annotations

from repro.core.rpq.ast import TrueTest
from repro.core.rpq.vectorized.arrays import (
    _WILDCARD,
    _sorted_csr,
    graph_arrays,
)
from repro.core.rpq.vectorized.engine import numpy_or_none
from repro.core.rpq.vectorized.kernel import BUILD_SITE, _resolve_starts

COUNT_SITE = "vector.count"

#: int64 counts stay exact while every layer's sums stay below this.
_INT64_SAFE = 1 << 62

_ANY_EDGE = TrueTest()


def _states(mask: int):
    """The NFA states of a state-set bitmask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(states) -> int:
    result = 0
    for state in states:
        result |= 1 << state
    return result


def _reach_within(nfa, k: int) -> list[int]:
    """``within[r]``: the states that may reach acceptance in exactly
    ``r`` edge steps, assuming every test and guard holds."""
    every_guard = lambda guard: True  # noqa: E731
    closed = {}
    moves = []
    for q, transitions in nfa.edge_transitions.items():
        for _, _, q2 in transitions:
            if q2 not in closed:
                closed[q2] = _mask(nfa.epsilon_closure(q2, every_guard))
            moves.append((1 << q, closed[q2]))
    layer = 1 << nfa.accept
    within = [layer]
    for _ in range(k):
        reached = 0
        for bit, onward in moves:
            if onward & layer:
                reached |= bit
        layer = reached
        within.append(layer)
    return within


class _CountDP:
    """Per-call memo of state-set plans, test masks and guard masks."""

    def __init__(self, graph, nfa, arrays, use_label_index: bool,
                 ctx) -> None:
        self.graph = graph
        self.nfa = nfa
        self.arrays = arrays
        self.use_label_index = use_label_index
        self.ctx = ctx
        self.guard_free = [None if closed is None else _mask(closed)
                           for closed in nfa.guard_free_closures()]
        self.plans: dict[int, tuple] = {}
        self.test_masks: dict = {}
        self.guard_masks: dict = {}
        self.loops = None

    def _charge(self, steps: int) -> None:
        if self.ctx is not None:
            self.ctx.checkpoint(BUILD_SITE, steps=max(1, steps))

    # -- closures ------------------------------------------------------------

    def closures(self, pre: int, rows) -> list[tuple]:
        """The closure of the states ``pre`` at each node of ``rows``, as
        ``[(state set, selector)]``: ``selector`` indexes the rows that
        get that set (``None`` = all of them).  Empty sets are left out."""
        np = numpy_or_none()
        merged = 0
        guarded = []
        for q in _states(pre):
            closed = self.guard_free[q]
            if closed is None:
                guarded.append(q)
            else:
                merged |= closed
        if not guarded:
            return [(merged, None)] if merged else []
        guards = self._guards_from(guarded)
        table = np.stack([self._guard_mask(guard)[rows] for guard in guards],
                         axis=1)
        signatures, inverse = np.unique(table, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        by_set: dict[int, list[int]] = {}
        for index, signature in enumerate(signatures.tolist()):
            holds = {guard for guard, bit in zip(guards, signature) if bit}
            closed = merged
            for q in guarded:
                closed |= _mask(self.nfa.epsilon_closure(q, holds.__contains__))
            by_set.setdefault(closed, []).append(index)
        found = []
        for closed, indexes in by_set.items():
            if not closed:
                continue
            if len(indexes) == len(signatures):
                found.append((closed, None))
            else:
                found.append((closed, np.flatnonzero(np.isin(inverse,
                                                             indexes))))
        return found

    def _guards_from(self, states: list[int]) -> list:
        """The distinct guards on epsilon moves reachable from ``states``."""
        guards: list = []
        seen = set(states)
        stack = list(states)
        while stack:
            for guard, target in self.nfa.epsilon_transitions.get(
                    stack.pop(), ()):
                if guard is not None and guard not in guards:
                    guards.append(guard)
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        return guards

    def _guard_mask(self, guard):
        mask = self.guard_masks.get(guard)
        if mask is None:
            self._charge(self.arrays.n)
            mask = self.guard_masks[guard] = self.arrays.node_mask(
                self.graph, guard)
        return mask

    # -- edge classes --------------------------------------------------------

    def plan(self, states: int) -> tuple[list, int]:
        """``(classes, moves)`` of a state set: each class is ``(src,
        seg_starts, targets)`` with ``targets`` a list of ``(state set,
        destination rows, selector)``; ``moves`` counts gathered edges."""
        found = self.plans.get(states)
        if found is None:
            forward: list[tuple] = []
            backward: list[tuple] = []
            for q in _states(states):
                for test, inverse, q2 in self.nfa.edge_transitions.get(q, ()):
                    (backward if inverse else forward).append((test, q2))
            classes = self._label_classes(forward, backward)
            if classes is None:
                classes = self._edge_classes(forward, backward)
            planned = []
            moves = 0
            for (src, seg_starts, unique_dst), pre in classes:
                if src.size == 0:
                    continue
                targets = [(closed, unique_dst if selector is None
                            else unique_dst[selector], selector)
                           for closed, selector in self.closures(pre,
                                                                 unique_dst)]
                if targets:
                    planned.append((src, seg_starts, targets))
                    moves += src.size
            found = self.plans[states] = (planned, moves)
        return found

    def _label_classes(self, forward, backward):
        """Edge classes as unions of labels, CSRs from the snapshot memo;
        ``None`` when a test is not an exact label set or the wildcard,
        or when a self-loop could be taken in both directions."""
        arrays = self.arrays
        keyed = []
        for transitions, inverse in ((forward, False), (backward, True)):
            if not transitions:
                continue
            keys = []
            for test, q2 in transitions:
                key = arrays._memo_key(test, self.use_label_index)
                if key is None:
                    return None
                keys.append((key, q2))
            keyed.append((keys, inverse))
        if len(keyed) == 2 and self._has_loops():
            return None
        classes = []
        for keys, inverse in keyed:
            wildcard = 0
            by_label: dict = {}
            for key, q2 in keys:
                if key == _WILDCARD:
                    wildcard |= 1 << q2
                    continue
                for label in key:
                    by_label[label] = by_label.get(label, 0) | 1 << q2
            if not by_label:
                self._charge(arrays.m)
                csr, _ = arrays.transition_csr(self.graph, _ANY_EDGE, inverse)
                classes.append((csr, wildcard))
                continue
            labels = (arrays.label_positions if wildcard
                      else [label for label in by_label
                            if label in arrays.label_positions])
            by_pre: dict[int, list] = {}
            for label in labels:
                by_pre.setdefault(wildcard | by_label.get(label, 0),
                                  []).append(label)
            for pre, group in by_pre.items():
                self._charge(arrays.m)
                csr, _ = arrays.label_csr(frozenset(group), inverse)
                classes.append((csr, pre))
        return classes

    def _has_loops(self) -> bool:
        if self.loops is None:
            self.loops = bool((self.arrays.src == self.arrays.dst).any())
        return self.loops

    def _edge_classes(self, forward, backward) -> list:
        """Edge classes from per-edge keys: bit ``i`` of an edge's key says
        it leads to the ``i``-th distinct target state."""
        np = numpy_or_none()
        arrays = self.arrays
        targets = sorted({q2 for _, q2 in forward + backward})
        bit_of = {q2: bit for bit, q2 in enumerate(targets)}
        dtype = np.int64 if len(targets) <= 62 else object

        def keys(transitions):
            key = np.zeros(arrays.m, dtype=dtype)
            for test, q2 in transitions:
                key[self._test_mask(test)] |= 1 << bit_of[q2]
            return key

        parts = []
        ahead = keys(forward) if forward else None
        behind = keys(backward) if backward else None
        if ahead is not None and behind is not None:
            # A self-loop is one step whichever way it is taken.
            loop = arrays.src == arrays.dst
            ahead[loop] |= behind[loop]
            behind[loop] = 0
        if ahead is not None:
            parts.append((arrays.src, arrays.dst, ahead))
        if behind is not None:
            parts.append((arrays.dst, arrays.src, behind))
        src = np.concatenate([part[0] for part in parts])
        dst = np.concatenate([part[1] for part in parts])
        key = np.concatenate([part[2] for part in parts])
        taken = key != 0
        src, dst, key = src[taken], dst[taken], key[taken]
        values, inverse = np.unique(key, return_inverse=True)
        classes = []
        for index, value in enumerate(values.tolist()):
            chosen = inverse == index
            pre = _mask(targets[bit] for bit in _states(int(value)))
            classes.append((_sorted_csr(src[chosen], dst[chosen]), pre))
        return classes

    def _test_mask(self, test):
        mask = self.test_masks.get(test)
        if mask is None:
            self._charge(self.arrays.m)
            mask = self.test_masks[test] = self.arrays.edge_mask(
                self.graph, test, self.use_label_index)
        return mask


def _peak(vectors) -> int:
    return max(int(vector.max()) for vector in vectors)


def vector_count_paths(graph, nfa, k: int, start_nodes=None, end_nodes=None,
                       *, use_label_index: bool = True, ctx=None) -> int:
    """Count(G, r, k) for the compiled ``nfa`` — the vector engine.

    Drop-in equivalent of the scalar subset DP (the differential harness
    asserts equality instance by instance): an explicit start node missing
    from the graph raises :class:`~repro.errors.GraphError`, missing end
    nodes are silently filtered, parallel edges count once each.
    """
    np = numpy_or_none()
    arrays = graph_arrays(graph)
    starts, start_idx = _resolve_starts(arrays, start_nodes)
    n = arrays.n
    if n == 0 or not starts:
        return 0
    dp = _CountDP(graph, nfa, arrays, use_label_index, ctx)
    within = _reach_within(nfa, k)
    rows = (np.arange(n) if start_idx is None
            else np.asarray(start_idx, dtype=np.intp))
    current = {}
    for states, selector in dp.closures(1 << nfa.start, rows):
        if states & within[k]:
            vector = current[states] = np.zeros(n, dtype=np.int64)
            vector[rows if selector is None else rows[selector]] = 1
    dtype = np.int64
    max_degree = None
    for step in range(k):
        if not current:
            return 0
        remaining = within[k - step - 1]
        if dtype is not object:
            bound = _peak(current.values()) * len(current)
            if bound * 2 * arrays.m >= _INT64_SAFE:
                if max_degree is None:
                    max_degree = int((np.bincount(arrays.src, minlength=n)
                                      + np.bincount(arrays.dst,
                                                    minlength=n)).max())
                if bound * max_degree >= _INT64_SAFE:
                    dtype = object
                    current = {states: vector.astype(object)
                               for states, vector in current.items()}
        following: dict = {}
        for states, vector in current.items():
            classes, moves = dp.plan(states)
            if ctx is not None:
                ctx.checkpoint(COUNT_SITE, steps=max(1, moves))
            for src, seg_starts, targets in classes:
                live = [target for target in targets
                        if target[0] & remaining]
                if not live:
                    continue
                sums = np.add.reduceat(vector[src], seg_starts)
                for reached, dst, selector in live:
                    into = following.get(reached)
                    if into is None:
                        into = following[reached] = np.zeros(n, dtype=dtype)
                    into[dst] += sums if selector is None else sums[selector]
        current = {states: vector for states, vector in following.items()
                   if vector.any()}
        if ctx is not None:
            ctx.note_frontier(len(current), COUNT_SITE)
    if not current:
        return 0
    ends = None
    if end_nodes is not None:
        index = arrays.index
        ends = np.asarray(sorted({index[node] for node in end_nodes
                                  if node in index}), dtype=np.intp)
    exact = (dtype is object
             or _peak(current.values()) * n * len(current) >= _INT64_SAFE)
    total = 0
    for vector in current.values():
        if ends is not None:
            vector = vector[ends]
        total += sum(vector.tolist()) if exact else int(vector.sum())
    return total
