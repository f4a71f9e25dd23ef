"""Compilation of regexes into nondeterministic finite automata.

The automaton alphabet is *symbolic*: edge transitions carry an edge test
plus a direction flag, and epsilon transitions may be guarded by a node
test (the compilation of ``?test``).  Instantiating the symbols against a
concrete graph happens in :mod:`repro.core.rpq.product`.

The construction is Thompson's, which keeps the automaton linear in the
size of the regex and makes the correctness argument per-operator.

Compilation results are memoized in a bounded LRU cache keyed on the regex
AST (the AST nodes are frozen dataclasses, hence hashable): a workload that
issues the same query shape repeatedly — the normal case for a query engine —
pays the Thompson construction once.  Cached automata are shared, so
callers must treat the returned :class:`NFA` as immutable; every caller in
this package only reads it.  Hit/miss/eviction counters are exposed through
:func:`compile_cache_info` so the cache is observable, and
:func:`clear_compile_cache` resets it (tests and long-lived processes).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.core.rpq.ast import Concat, EdgeAtom, NodeTest, Regex, Star, Test, Union
from repro.errors import LogicError


@dataclass
class NFA:
    """A Thompson-style NFA with symbolic transitions.

    - ``edge_transitions[q]`` is a list of ``(test, inverse, q')``: consume
      one graph edge conforming to ``test`` in the given direction.
    - ``epsilon_transitions[q]`` is a list of ``(guard, q')`` where ``guard``
      is a node :class:`Test` or ``None`` for an unconditional epsilon move.

    :meth:`guard_free_closures` fills a memo on first use; it is a pure
    function of the transitions, so a shared automaton stays read-only in
    every observable way.
    """

    start: int = 0
    accept: int = 1
    n_states: int = 2
    edge_transitions: dict[int, list[tuple[Test, bool, int]]] = field(default_factory=dict)
    epsilon_transitions: dict[int, list[tuple[Test | None, int]]] = field(default_factory=dict)
    _guard_free: list | None = field(default=None, init=False, repr=False,
                                     compare=False)

    def epsilon_closure(self, q: int, guard_holds=None) -> frozenset[int] | None:
        """The states reachable from ``q`` by epsilon moves, kept to those
        that leave by an edge transition or accept (a Thompson
        pass-through state does neither).  A guarded move is taken when
        ``guard_holds(guard)`` is true; with ``guard_holds=None`` the first
        guard met returns ``None``, because only a closure that meets no
        guard is the same at every node."""
        result: set[int] = set()
        stack = [q]
        while stack:
            state = stack.pop()
            if state in result:
                continue
            result.add(state)
            for guard, target in self.epsilon_transitions.get(state, ()):
                if target in result:
                    continue
                if guard is not None:
                    if guard_holds is None:
                        return None
                    if not guard_holds(guard):
                        continue
                stack.append(target)
        return frozenset(state for state in result
                         if state in self.edge_transitions
                         or state == self.accept)

    def guard_free_closures(self) -> list[frozenset[int] | None]:
        """:meth:`epsilon_closure` of every state with guards unevaluated
        (``None`` where one is met), computed once per automaton: the
        compile cache shares it across every query of the same shape."""
        if self._guard_free is None:
            self._guard_free = [self.epsilon_closure(q)
                                for q in range(self.n_states)]
        return self._guard_free

    def _new_state(self) -> int:
        state = self.n_states
        self.n_states += 1
        return state

    def _add_edge(self, source: int, test: Test, inverse: bool, target: int) -> None:
        self.edge_transitions.setdefault(source, []).append((test, inverse, target))

    def _add_epsilon(self, source: int, guard: Test | None, target: int) -> None:
        self.epsilon_transitions.setdefault(source, []).append((guard, target))

    def edge_transition_count(self) -> int:
        return sum(len(v) for v in self.edge_transitions.values())


class _CompileCache:
    """A bounded LRU of compiled automata with observable counters."""

    __slots__ = ("maxsize", "hits", "misses", "evictions", "_entries")

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError("cache maxsize must be positive")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict[Regex, NFA] = OrderedDict()

    def get(self, regex: Regex) -> NFA | None:
        found = self._entries.get(regex)
        if found is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(regex)
        return found

    def put(self, regex: Regex, nfa: NFA) -> None:
        self._entries[regex] = nfa
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)


_DEFAULT_CACHE_SIZE = 256
_cache = _CompileCache(_DEFAULT_CACHE_SIZE)


def compile_regex(regex: Regex, *, cache: bool = True) -> NFA:
    """Compile a regex into an NFA with a single start and accept state.

    Results are memoized (bounded LRU keyed on the regex AST); pass
    ``cache=False`` to force a private, freshly built automaton.  Cached
    automata are shared and must not be mutated.
    """
    if cache:
        found = _cache.get(regex)
        if found is not None:
            return found
    nfa = NFA()
    _build(nfa, regex, nfa.start, nfa.accept)
    if cache:
        _cache.put(regex, nfa)
    return nfa


def compile_cache_info() -> dict[str, int]:
    """Observable state of the regex-compilation cache."""
    return {
        "hits": _cache.hits,
        "misses": _cache.misses,
        "evictions": _cache.evictions,
        "currsize": len(_cache),
        "maxsize": _cache.maxsize,
    }


def clear_compile_cache(maxsize: int | None = None) -> None:
    """Drop every cached automaton and reset counters.

    ``maxsize`` optionally resizes the cache (default: keep the current
    bound).
    """
    global _cache
    _cache = _CompileCache(_cache.maxsize if maxsize is None else maxsize)


def _build(nfa: NFA, regex: Regex, start: int, accept: int) -> None:
    """Wire the fragment for ``regex`` between existing states start/accept."""
    if isinstance(regex, NodeTest):
        nfa._add_epsilon(start, regex.test, accept)
        return
    if isinstance(regex, EdgeAtom):
        nfa._add_edge(start, regex.test, regex.inverse, accept)
        return
    if isinstance(regex, Union):
        _build(nfa, regex.left, start, accept)
        _build(nfa, regex.right, start, accept)
        return
    if isinstance(regex, Concat):
        middle = nfa._new_state()
        _build(nfa, regex.left, start, middle)
        _build(nfa, regex.right, middle, accept)
        return
    if isinstance(regex, Star):
        # Fresh inner states avoid the classic Thompson pitfall of a star
        # leaking loops through shared start/accept states.
        inner_start = nfa._new_state()
        inner_accept = nfa._new_state()
        nfa._add_epsilon(start, None, inner_start)
        nfa._add_epsilon(start, None, accept)
        nfa._add_epsilon(inner_accept, None, inner_start)
        nfa._add_epsilon(inner_accept, None, accept)
        _build(nfa, regex.inner, inner_start, inner_accept)
        return
    raise LogicError(f"unknown regex node: {type(regex).__name__}")
