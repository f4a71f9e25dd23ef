"""A mini-Cypher engine over :class:`repro.storage.PropertyGraphStore`.

Supported grammar (a practical core of openCypher)::

    query   := MATCH pattern (',' pattern)* [WHERE expr] RETURN [DISTINCT]
               item (',' item)* [ORDER BY key [DESC]] [SKIP n] [LIMIT n]
    pattern := node (rel node)*
    node    := '(' [var] [':' label] [props] ')'
    rel     := '-[' [var] [':' label] ['*' [min] '..' [max]] ']->'   (right)
             | '<-[' ... ']-'                                        (left)
             | '-[' ... ']-'                                         (either)
    props   := '{' key ':' value (',' key ':' value)* '}'
    expr    := disjunction of conjunctions of [NOT] comparisons
    item    := value-expr [AS alias];  value-expr := var | var '.' prop

Evaluation is backtracking pattern matching over the store's label and
adjacency indexes, with variable-length relationships expanded breadth
first between their bounds (binding the relationship variable to the edge
list).  Under ``RETURN DISTINCT`` a pattern tail that binds only
variables nothing else reads is matched existentially: the first
completion from a node answers it (see :func:`witness_positions`).
Comparisons are numeric when both sides look numeric, otherwise
lexicographic, matching the string-valued property model.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import QueryEvaluationError, QuerySyntaxError
from repro.storage.property_store import PropertyGraphStore

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<keyword>(?i:MATCH|WHERE|RETURN|DISTINCT|ORDER|BY|LIMIT|SKIP|AS|AND|OR|NOT|DESC|ASC)\b)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\.)*')
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<op><=|>=|<>|<-|->|\.\.|[()\[\]{}:,.\-*=<>])
""", re.VERBOSE)


@dataclass(frozen=True)
class _Token:
    kind: str
    value: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if not match:
            raise QuerySyntaxError(f"cannot read {text[position:position + 10]!r}",
                                   position)
        if match.lastgroup != "ws":
            value = match.group()
            kind = match.lastgroup
            if kind == "keyword":
                value = value.upper()
            tokens.append(_Token(kind, value, position))
        position = match.end()
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodePattern:
    var: str | None
    label: str | None
    properties: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class RelPattern:
    var: str | None
    label: str | None
    direction: str  # 'out', 'in', 'both'
    min_hops: int = 1
    max_hops: int = 1

    @property
    def variable_length(self) -> bool:
        return (self.min_hops, self.max_hops) != (1, 1)


@dataclass(frozen=True)
class PathPattern:
    nodes: tuple[NodePattern, ...]
    rels: tuple[RelPattern, ...]


@dataclass(frozen=True)
class ValueExpr:
    """``var`` (a node/edge id) or ``var.prop`` (a property lookup)."""

    var: str
    prop: str | None = None
    constant: str | None = None

    @classmethod
    def const(cls, value: str) -> "ValueExpr":
        return cls("", None, value)


@dataclass(frozen=True)
class Condition:
    left: ValueExpr
    op: str
    right: ValueExpr
    negated: bool = False


@dataclass(frozen=True)
class BoolExpr:
    """Disjunction of conjunctions of conditions (no nested parentheses)."""

    clauses: tuple[tuple[Condition, ...], ...]


@dataclass(frozen=True)
class ReturnItem:
    expr: ValueExpr
    alias: str


@dataclass(frozen=True)
class CypherQuery:
    patterns: tuple[PathPattern, ...]
    where: BoolExpr | None
    items: tuple[ReturnItem, ...]
    distinct: bool
    order_by: str | None
    descending: bool
    skip: int
    limit: int | None


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise QuerySyntaxError("unexpected end of query")
        self.pos += 1
        return token

    def _accept(self, kind: str, value: str | None = None) -> _Token | None:
        token = self._peek()
        if token and token.kind == kind and (value is None or token.value == value):
            self.pos += 1
            return token
        return None

    def _expect(self, kind: str, value: str | None = None) -> _Token:
        token = self._accept(kind, value)
        if token is None:
            found = self._peek()
            shown = found.value if found else "end of query"
            where = found.position if found else None
            raise QuerySyntaxError(f"expected {value or kind}, found {shown!r}", where)
        return token

    def parse(self) -> CypherQuery:
        self._expect("keyword", "MATCH")
        patterns = [self._parse_path()]
        while self._accept("op", ","):
            patterns.append(self._parse_path())
        where = None
        if self._accept("keyword", "WHERE"):
            where = self._parse_bool()
        self._expect("keyword", "RETURN")
        distinct = bool(self._accept("keyword", "DISTINCT"))
        items = [self._parse_item()]
        while self._accept("op", ","):
            items.append(self._parse_item())
        order_by = None
        descending = False
        if self._accept("keyword", "ORDER"):
            self._expect("keyword", "BY")
            order_by = self._parse_order_key(items)
            if self._accept("keyword", "DESC"):
                descending = True
            else:
                self._accept("keyword", "ASC")
        skip = 0
        if self._accept("keyword", "SKIP"):
            skip = int(self._expect("number").value)
        limit = None
        if self._accept("keyword", "LIMIT"):
            limit = int(self._expect("number").value)
        if self._peek() is not None:
            raise QuerySyntaxError(f"trailing input {self._peek().value!r}",
                                   self._peek().position)
        _check_variable_kinds(patterns)
        return CypherQuery(tuple(patterns), where, tuple(items), distinct,
                           order_by, descending, skip, limit)

    # -- patterns -------------------------------------------------------------

    def _parse_path(self) -> PathPattern:
        nodes = [self._parse_node()]
        rels: list[RelPattern] = []
        while True:
            rel = self._try_parse_rel()
            if rel is None:
                return PathPattern(tuple(nodes), tuple(rels))
            rels.append(rel)
            nodes.append(self._parse_node())

    def _parse_node(self) -> NodePattern:
        self._expect("op", "(")
        var = None
        label = None
        token = self._peek()
        if token and token.kind == "name":
            var = self._next().value
        if self._accept("op", ":"):
            label = self._expect("name").value
        properties: list[tuple[str, str]] = []
        if self._accept("op", "{"):
            while True:
                key = self._expect("name").value
                self._expect("op", ":")
                properties.append((key, self._parse_value()))
                if not self._accept("op", ","):
                    break
            self._expect("op", "}")
        self._expect("op", ")")
        return NodePattern(var, label, tuple(properties))

    def _try_parse_rel(self) -> RelPattern | None:
        token = self._peek()
        if token is None or token.kind != "op" or token.value not in ("-", "<-"):
            return None
        incoming = token.value == "<-"
        self._next()
        var = None
        label = None
        min_hops = max_hops = 1
        if self._accept("op", "["):
            name = self._accept("name")
            if name:
                var = name.value
            if self._accept("op", ":"):
                label = self._expect("name").value
            if self._accept("op", "*"):
                min_hops, max_hops = 1, _DEFAULT_MAX_HOPS
                low = self._accept("number")
                if low:
                    min_hops = int(low.value)
                    max_hops = min_hops
                if self._accept("op", ".."):
                    max_hops = _DEFAULT_MAX_HOPS
                    high = self._accept("number")
                    if high:
                        max_hops = int(high.value)
            self._expect("op", "]")
        if incoming:
            self._expect("op", "-")
            direction = "in"
        elif self._accept("op", "->"):
            direction = "out"
        else:
            self._expect("op", "-")
            direction = "both"
        if min_hops > max_hops:
            raise QuerySyntaxError("variable-length bounds are inverted")
        return RelPattern(var, label, direction, min_hops, max_hops)

    def _parse_value(self) -> str:
        token = self._next()
        if token.kind == "string":
            return _unquote(token.value)
        if token.kind == "number":
            return token.value
        raise QuerySyntaxError(f"expected a value, found {token.value!r}",
                               token.position)

    # -- expressions ------------------------------------------------------------

    def _parse_bool(self) -> BoolExpr:
        clauses = [self._parse_conjunction()]
        while self._accept("keyword", "OR"):
            clauses.append(self._parse_conjunction())
        return BoolExpr(tuple(clauses))

    def _parse_conjunction(self) -> tuple[Condition, ...]:
        conditions = [self._parse_condition()]
        while self._accept("keyword", "AND"):
            conditions.append(self._parse_condition())
        return tuple(conditions)

    def _parse_condition(self) -> Condition:
        negated = bool(self._accept("keyword", "NOT"))
        left = self._parse_value_expr()
        token = self._next()
        if token.kind != "op" or token.value not in ("=", "<>", "<", ">", "<=", ">="):
            raise QuerySyntaxError(f"expected a comparison, found {token.value!r}",
                                   token.position)
        right = self._parse_value_expr()
        return Condition(left, token.value, right, negated)

    def _parse_value_expr(self) -> ValueExpr:
        token = self._next()
        if token.kind == "name":
            if self._accept("op", "."):
                prop = self._expect("name").value
                return ValueExpr(token.value, prop)
            return ValueExpr(token.value)
        if token.kind == "string":
            return ValueExpr.const(_unquote(token.value))
        if token.kind == "number":
            return ValueExpr.const(token.value)
        raise QuerySyntaxError(f"expected a value expression, found "
                               f"{token.value!r}", token.position)

    def _parse_item(self) -> ReturnItem:
        expr = self._parse_value_expr()
        if self._accept("keyword", "AS"):
            alias = self._expect("name").value
        elif expr.prop is not None:
            alias = f"{expr.var}.{expr.prop}"
        else:
            alias = expr.var
        return ReturnItem(expr, alias)

    def _parse_order_key(self, items: list[ReturnItem]) -> str:
        expr = self._parse_value_expr()
        if expr.prop is not None:
            return f"{expr.var}.{expr.prop}"
        return expr.var


_DEFAULT_MAX_HOPS = 8


def _check_variable_kinds(patterns) -> None:
    """Reject a variable bound to two kinds of element (a node, an edge, an
    edge list), as Neo4j reports a type mismatch: the matcher compares a
    repeated variable's bindings, which only means something within one
    kind."""
    kinds: dict[str, str] = {}
    for pattern in patterns:
        named = [(node.var, "a node") for node in pattern.nodes]
        named += [(rel.var, "an edge list" if rel.variable_length
                   else "an edge") for rel in pattern.rels]
        for var, kind in named:
            if var is None:
                continue
            seen = kinds.setdefault(var, kind)
            if seen != kind:
                raise QuerySyntaxError(
                    f"variable {var!r} is bound to both {seen} and {kind}")


def _unquote(token: str) -> str:
    body = token[1:-1]
    return body.replace('\\"', '"').replace("\\'", "'").replace("\\\\", "\\")


def parse_cypher(text: str) -> CypherQuery:
    """Parse a mini-Cypher query."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


@dataclass
class CypherResult:
    """Query answer: column aliases plus rows."""

    columns: tuple[str, ...]
    rows: list[tuple]

    def __len__(self) -> int:
        return len(self.rows)

    def bindings(self):
        for row in self.rows:
            yield dict(zip(self.columns, row))


def run_cypher(store: PropertyGraphStore, text: str, *,
               ctx=None, tracer=None, cache=None, view=None,
               engine: str = "auto") -> CypherResult:
    """Parse and evaluate a query against a property-graph store.

    With an execution :class:`~repro.exec.Context` the backtracking matcher
    checkpoints once per candidate node binding (site ``cypher.match``) and
    once per relationship expansion (site ``cypher.expand``); budget
    exhaustion raises :class:`~repro.errors.BudgetExceeded` — a truncated
    match set would silently drop rows, so no partial answer is offered.

    With a :class:`~repro.obs.Tracer` the run records ``parse`` and
    ``evaluate`` spans (strategy, pattern counts, rows returned, and for
    an evaluated query ``witness_checks`` / ``witness_hits``: witness
    tails computed, and witness tails answered from the memo);
    ``tracer=None`` takes the exact pre-tracing code path.

    ``RETURN DISTINCT`` queries stop each witness tail (see
    :func:`witness_positions`) at its first completion and memoize the
    answer per (pattern, position, node) for the evaluation, so a memo
    hit spends no ``cypher.expand`` checkpoints.

    With a :class:`~repro.cache.QueryCache` (``cache=``), results are
    memoized under the parsed query (a frozen AST, so formatting variants
    share an entry) against the store's *live* property graph — the store
    delegates its version to the graph, so any intersecting graph mutation
    invalidates the entry.  The footprint covers pattern labels (or the
    whole node/edge set for unlabeled patterns) plus every property name
    read by property maps, WHERE, or RETURN.

    ``engine`` selects how *variable-length* relationships are expanded.
    The scalar expansion enumerates walks (each distinct edge sequence is
    one match); the vector expansion tracks per-depth *node sets* instead,
    which collapses walk multiplicities — sound exactly for ``RETURN
    DISTINCT`` patterns that do not bind the relationship variable, so
    anything else (including a forced ``engine="vector"``) is demoted to
    scalar with the demotion recorded in the stats notes.

    With a :class:`~repro.ivm.ViewRegistry` (``view=``), the query is
    served from a continuously maintained materialized view bound to this
    store (:class:`~repro.errors.ViewError` for any other target);
    ``cache=`` is ignored for view-served queries — the view is the memo.
    """
    if view is not None:
        return view.serve_cypher(store, text, ctx=ctx, tracer=tracer,
                                 engine=engine)
    if tracer is None:
        return _run_cypher(store, text, ctx, cache=cache, engine=engine)
    with tracer.span("parse", frontend="cypher"):
        query = parse_cypher(text)
    with tracer.span("evaluate", ctx=ctx,
                     strategy="backtracking-match") as span:
        span.attrs["patterns"] = len(query.patterns)
        result = _run_cypher(store, text, ctx, query=query, cache=cache,
                             engine=engine, span=span)
        span.attrs["rows"] = len(result.rows)
        return result


def _run_cypher(store: PropertyGraphStore, text: str, ctx=None, *,
                query: CypherQuery | None = None, cache=None,
                engine: str = "auto", span=None) -> CypherResult:
    if query is None:
        query = parse_cypher(text)
    if cache is not None:
        from repro.cache import MISS, cypher_footprint

        key = ("cypher", query)
        hit = cache.lookup(store, key)
        if hit is not MISS:
            columns, rows = hit
            return CypherResult(columns, list(rows))
        result = _run_cypher(store, text, ctx, query=query, engine=engine,
                             span=span)
        cache.store(store, key, cypher_footprint(query),
                    (result.columns, tuple(result.rows)))
        return result
    from repro.core.rpq.vectorized.engine import resolve_engine

    resolved, reason = resolve_engine(engine, store.graph)
    if resolved == "vector" and not query.distinct:
        # Walk multiplicities are part of a non-DISTINCT answer; the
        # set-semantics expansion would silently collapse them.
        resolved = "scalar"
        reason = ("vector demoted: non-DISTINCT query returns walk "
                  "multiplicities (set-semantics expansion would drop rows)")
    if ctx is not None:
        ctx.stats.notes["engine"] = resolved
        ctx.stats.notes["engine_reason"] = reason
    tails = [_WitnessTails(positions) if positions else None
             for positions in witness_positions(query)]
    bindings = [{}]
    for pattern, witness in zip(query.patterns, tails):
        bindings = _match_path(store, pattern, bindings, ctx, engine=resolved,
                               witness=witness)
    if span is not None:
        span.attrs["witness_checks"] = sum(len(t.answers) for t in tails if t)
        span.attrs["witness_hits"] = sum(t.hits for t in tails if t)
    if query.where is not None:
        bindings = [b for b in bindings if _bool_holds(store, query.where, b)]

    columns = tuple(item.alias for item in query.items)
    rows = [tuple(_item_value(store, item.expr, binding) for item in query.items)
            for binding in bindings]
    if query.distinct:
        seen = set()
        unique = []
        for row in rows:
            if row not in seen:
                seen.add(row)
                unique.append(row)
        rows = unique
    if query.order_by is not None:
        if query.order_by not in columns:
            raise QueryEvaluationError(
                f"ORDER BY key {query.order_by!r} is not returned")
        index = columns.index(query.order_by)
        rows.sort(key=lambda row: _comparable(row[index]),
                  reverse=query.descending)
    else:
        rows.sort(key=lambda row: tuple(str(v) for v in row))
    if query.skip:
        rows = rows[query.skip:]
    if query.limit is not None:
        rows = rows[: query.limit]
    return CypherResult(columns, rows)


def witness_positions(query: CypherQuery) -> tuple[frozenset[int], ...]:
    """Per pattern, the positions where a ``RETURN DISTINCT`` match may
    stop at one witness.

    Position ``p`` of a pattern is a witness position when the pattern's
    *tail* past its ``p``-th node (``rels[p:]`` and ``nodes[p + 1:]``)
    binds only variables that nothing else reads: no RETURN item, no WHERE
    condition, no other comma pattern and no earlier position of the same
    pattern (its *head*, ``nodes[:p + 1]`` and ``rels[:p]``).  A DISTINCT
    row is a projection of a binding, and such a tail is neither
    projected, filtered on nor joined, while its match depends only on the
    node bound at ``p``.  So every completion of one head binding yields
    the same rows, and the first completion can stand for all of them: it
    sits where the enumeration's first copy sat, which keeps the
    deduplicated rows and their order.  A tail may repeat its own
    variables; the existence search carries the binding.  Non-DISTINCT
    queries count every completion and get no witness positions.  EXPLAIN
    reads the same positions.
    """
    if not query.distinct:
        return tuple(frozenset() for _ in query.patterns)
    read = {item.expr.var for item in query.items}
    if query.where is not None:
        for clause in query.where.clauses:
            for condition in clause:
                read.update((condition.left.var, condition.right.var))
    # Each pattern's variables in match order: node 0, then rel i and
    # node i + 1 per hop; the tail past position p starts at slot 2p + 1.
    slots = [[pattern.nodes[0].var] + [var for rel, node in
                                       zip(pattern.rels, pattern.nodes[1:])
                                       for var in (rel.var, node.var)]
             for pattern in query.patterns]
    result = []
    for index, own in enumerate(slots):
        outside = read.union(*(other for at, other in enumerate(slots)
                               if at != index))
        positions = []
        for position in range(len(query.patterns[index].rels)):
            cut = 2 * position + 1
            tail = {var for var in own[cut:] if var}
            if tail.isdisjoint(outside) and tail.isdisjoint(own[:cut]):
                positions.append(position)
        result.append(frozenset(positions))
    return tuple(result)


class _WitnessTails:
    """One pattern's witness memo for one evaluation: (position, node) ->
    whether the tail past that position completes from that node."""

    __slots__ = ("positions", "answers", "hits")

    def __init__(self, positions: frozenset[int]) -> None:
        self.positions = positions
        self.answers: dict[tuple, bool] = {}
        self.hits = 0


def _match_path(store: PropertyGraphStore, pattern: PathPattern,
                bindings: list[dict], ctx=None, *,
                engine: str = "scalar",
                witness: _WitnessTails | None = None) -> list[dict]:
    results: list[dict] = []
    for binding in bindings:
        results.extend(_match_from(store, pattern, 0, binding, ctx,
                                   engine=engine, witness=witness))
    return results


def _match_from(store: PropertyGraphStore, pattern: PathPattern,
                position: int, binding: dict, ctx=None, *,
                engine: str = "scalar",
                witness: _WitnessTails | None = None) -> list[dict]:
    node_pattern = pattern.nodes[position]
    candidates = _node_candidates(store, node_pattern, binding)
    solutions: list[dict] = []
    for node in candidates:
        if ctx is not None:
            ctx.checkpoint("cypher.match")
        extended = _bind_node(node_pattern, node, binding, store)
        if extended is None:
            continue
        solutions.extend(_match_tail(store, pattern, position, node, extended,
                                     ctx, engine=engine, witness=witness))
    return solutions


def _match_tail(store: PropertyGraphStore, pattern: PathPattern,
                position: int, node, binding: dict, ctx=None, *,
                engine: str = "scalar",
                witness: _WitnessTails | None = None) -> list[dict]:
    if position == len(pattern.rels):
        return [binding]
    if witness is not None and position in witness.positions:
        # The tail binds nothing anyone reads: one completion decides.
        if _tail_exists(store, pattern, position, node, binding, ctx,
                        engine, witness):
            return [binding]
        return []
    rel = pattern.rels[position]
    solutions: list[dict] = []
    for next_node, with_rel in _expand_rel(store, rel, node, binding, ctx,
                                           engine=engine):
        next_pattern = pattern.nodes[position + 1]
        target_check = _bind_node(next_pattern, next_node, with_rel, store)
        if target_check is None:
            continue
        solutions.extend(_match_tail(store, pattern, position + 1,
                                     next_node, target_check, ctx,
                                     engine=engine, witness=witness))
    return solutions


def _tail_exists(store: PropertyGraphStore, pattern: PathPattern,
                 position: int, node, binding: dict, ctx, engine: str,
                 witness: _WitnessTails) -> bool:
    """Whether ``pattern`` completes past ``position`` from ``node``.

    Depth first, stopping at the first completion.  Answers at witness
    positions depend on the node alone, so they are memoized; a position
    inside a witness tail that is not itself one (the tail repeats a
    variable bound before it) is searched with the binding, unmemoized.
    """
    if position == len(pattern.rels):
        return True
    memoized = position in witness.positions
    if memoized:
        key = (position, node)
        found = witness.answers.get(key)
        if found is not None:
            witness.hits += 1
            return found
    found = False
    next_pattern = pattern.nodes[position + 1]
    for next_node, with_rel in _expand_rel(store, pattern.rels[position],
                                           node, binding, ctx, engine=engine):
        extended = _bind_node(next_pattern, next_node, with_rel, store)
        if extended is not None and _tail_exists(
                store, pattern, position + 1, next_node, extended, ctx,
                engine, witness):
            found = True
            break
    if memoized:
        witness.answers[key] = found
    return found


def _node_candidates(store: PropertyGraphStore, pattern: NodePattern,
                     binding: dict):
    if pattern.var and pattern.var in binding:
        return [binding[pattern.var]]
    graph = store.graph
    if pattern.properties:
        prop, value = pattern.properties[0]
        candidates = store.nodes_with_property(prop, value)
        if pattern.label is not None:
            candidates &= store.nodes_with_label(pattern.label)
        return sorted(candidates, key=str)
    if pattern.label is not None:
        return sorted(store.nodes_with_label(pattern.label), key=str)
    return sorted(graph.nodes(), key=str)


def _bind_node(pattern: NodePattern, node, binding: dict,
               store: PropertyGraphStore) -> dict | None:
    """Bind a node pattern, checking consistency, label and properties."""
    if pattern.var and pattern.var in binding and binding[pattern.var] != node:
        return None
    if not _node_matches(store, pattern, node):
        return None
    extended = dict(binding)
    if pattern.var:
        extended[pattern.var] = node
    return extended


def _node_matches(store: PropertyGraphStore, pattern: NodePattern, node) -> bool:
    graph = store.graph
    if pattern.label is not None and graph.node_label(node) != pattern.label:
        return False
    for prop, value in pattern.properties:
        if graph.node_property(node, prop) != value:
            return False
    return True


def _expand_rel(store: PropertyGraphStore, rel: RelPattern, node, binding: dict,
                ctx=None, *, engine: str = "scalar"):
    """Yield (target node, binding-with-rel-var) for one relationship pattern."""
    if not rel.variable_length:
        for edge, neighbor in store.expand(node, rel.label, direction=rel.direction):
            if ctx is not None:
                ctx.checkpoint("cypher.expand")
            if rel.var and rel.var in binding and binding[rel.var] != edge:
                continue
            extended = dict(binding)
            if rel.var:
                extended[rel.var] = edge
            yield neighbor, extended
        return
    if engine == "vector" and rel.var is None:
        yield from _expand_rel_dedup(store, rel, node, binding, ctx)
        return
    # Variable-length: BFS between the bounds, binding the var to edge lists.
    frontier = [(node, ())]
    for depth in range(1, rel.max_hops + 1):
        next_frontier = []
        for current, edges in frontier:
            if ctx is not None:
                ctx.checkpoint("cypher.expand")
                ctx.note_frontier(len(frontier), "cypher.expand")
            for edge, neighbor in store.expand(current, rel.label,
                                               direction=rel.direction):
                next_frontier.append((neighbor, edges + (edge,)))
        frontier = next_frontier
        if depth >= rel.min_hops:
            for target, edges in frontier:
                if rel.var in binding and binding[rel.var] != edges:
                    continue
                extended = dict(binding)
                if rel.var:
                    extended[rel.var] = edges
                yield target, extended
        if not frontier:
            return


def _expand_rel_dedup(store: PropertyGraphStore, rel: RelPattern, node,
                      binding: dict, ctx=None):
    """Variable-length expansion over per-depth *node sets* (vector engine).

    ``frontier`` holds the nodes reachable by some walk of exactly the
    current depth — bounded by the node count, where the walk enumeration
    is bounded by the walk count.  Per-depth sets (rather than a
    visited-once BFS) matter for correctness: a node whose shortest walk
    is below ``min_hops`` may still be reachable by a longer, eligible
    walk through a cycle.  Each eligible target is emitted once, in
    sorted order at its first eligible depth; the caller guaranteed
    DISTINCT semantics, so the collapsed multiplicities are unobservable.
    Checkpoints land per depth (site ``cypher.expand``), charged with the
    frontier size.
    """
    frontier = {node}
    emitted = set()
    for depth in range(1, rel.max_hops + 1):
        if ctx is not None:
            ctx.checkpoint("cypher.expand", steps=max(1, len(frontier)))
            ctx.note_frontier(len(frontier), "cypher.expand")
        next_frontier = set()
        for current in frontier:
            for _, neighbor in store.expand(current, rel.label,
                                            direction=rel.direction):
                next_frontier.add(neighbor)
        frontier = next_frontier
        if depth >= rel.min_hops:
            for target in sorted(frontier - emitted, key=str):
                emitted.add(target)
                yield target, dict(binding)
        if not frontier:
            return


def _item_value(store: PropertyGraphStore, expr: ValueExpr, binding: dict):
    if expr.constant is not None:
        return expr.constant
    if expr.var not in binding:
        raise QueryEvaluationError(f"unbound variable {expr.var!r} in RETURN/WHERE")
    value = binding[expr.var]
    if expr.prop is None:
        return value
    graph = store.graph
    if graph.has_node(value):
        return graph.node_property(value, expr.prop)
    if graph.has_edge(value):
        return graph.edge_property(value, expr.prop)
    raise QueryEvaluationError(
        f"{expr.var!r} is bound to {value!r}, which has no properties")


def _bool_holds(store: PropertyGraphStore, expr: BoolExpr, binding: dict) -> bool:
    for clause in expr.clauses:
        if all(_condition_holds(store, condition, binding) for condition in clause):
            return True
    return False


def _condition_holds(store: PropertyGraphStore, condition: Condition,
                     binding: dict) -> bool:
    left = _item_value(store, condition.left, binding)
    right = _item_value(store, condition.right, binding)
    result = _compare_values(left, right, condition.op)
    return (not result) if condition.negated else result


def _compare_values(left, right, op: str) -> bool:
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if left is None or right is None:
        return False
    left_key, right_key = _comparable(left), _comparable(right)
    if op == "<":
        return left_key < right_key
    if op == ">":
        return left_key > right_key
    if op == "<=":
        return left_key <= right_key
    return left_key >= right_key


def _comparable(value):
    if value is None:
        return (2, 0.0, "")
    try:
        return (0, float(value), "")
    except (TypeError, ValueError):
        return (1, 0.0, str(value))


def store_for_graph(graph) -> PropertyGraphStore:
    """Build the indexed :class:`PropertyGraphStore` this engine queries.

    Cypher's data model *is* the property graph, so no conversion is
    offered: the input must be a :class:`~repro.models.PropertyGraph` or a
    :class:`~repro.storage.GraphBackend` carrying the property read
    surface (``node_properties`` — e.g. the disk-backed CSR reader over a
    property store's segments); anything else raises
    :class:`~repro.errors.ConversionError`.  Shared by the CLI and the
    batch engine so both reject the same inputs with the same error.
    """
    from repro.errors import ConversionError
    from repro.models import PropertyGraph
    from repro.storage.backend import is_graph_backend

    if not isinstance(graph, PropertyGraph) and not (
            is_graph_backend(graph) and hasattr(graph, "node_properties")):
        raise ConversionError(
            f"cypher needs a property graph, got {type(graph).__name__}")
    return PropertyGraphStore(graph)
