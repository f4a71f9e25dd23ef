"""Differential harness for ``RETURN DISTINCT`` Cypher: witness == enumeration.

Under ``RETURN DISTINCT`` the matcher stops every witness tail (a pattern
tail that binds only variables nothing else reads, see
:func:`~repro.query.cypherish.witness_positions`) at its first completion
and memoizes the answer per node.  Each instance here is a seeded random
(property graph, query) pair checked against a **reference**: the same
query *without* DISTINCT — every binding enumerated, no witness positions,
so the memo never runs — deduplicated in first-occurrence order, then
sliced by SKIP/LIMIT.  Its ORDER BY (or the default all-column order) is
the same stable sort ``run_cypher`` applies, so the reference fixes the
rows *and* their order, ties included.  perfbench's oracle replays the
same DISTINCT matcher and could not catch a witness bug; this can.

Patterns are read off real walks (labels, property values and directions
of walked nodes and edges), so most answers are non-empty; the harness
asserts that share.  The generator covers WHERE on head and tail
variables, comma patterns sharing variables, repeated variables, rel
variables, variable-length rels and all three directions.  Each DISTINCT
query runs under ``engine="scalar"`` and ``engine="vector"``; the vector
engine collapses variable-length walks to node sets, which may reorder
ORDER BY ties, so its rows are compared in order only when the query has
no ORDER BY and as a set (before SKIP/LIMIT) otherwise.

``REPRO_FUZZ_SEEDS=4,5,6`` re-aims the harness at fresh instances; every
assertion message carries (seed, graph, query) for replay.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

import pytest

from repro.models import PropertyGraph
from repro.obs import Tracer
from repro.query.cypherish import run_cypher, store_for_graph

SEEDS = tuple(int(seed) for seed in
              os.environ.get("REPRO_FUZZ_SEEDS", "0,1,2").split(","))
GRAPHS_PER_SEED = 8
QUERIES_PER_GRAPH = 50

NODE_LABELS = ("a", "b", "c")
EDGE_LABELS = ("r", "s", "t")
VALUES = ("0", "1", "2")

#: Floors the whole run must clear: enough non-empty answers that row
#: order is tested, and enough witness tails that the memo is.
MIN_NONEMPTY_SHARE = 0.6
MIN_WITNESS_SHARE = 0.3


def make_graph(rng: random.Random, n_nodes: int, n_edges: int) -> PropertyGraph:
    """Labeled nodes and edges with one small-domain property each;
    self-loops and parallel edges allowed."""
    graph = PropertyGraph()
    for index in range(n_nodes):
        graph.add_node(f"n{index}", rng.choice(NODE_LABELS),
                       {"p": rng.choice(VALUES)})
    for index in range(n_edges):
        graph.add_edge(f"e{index}", f"n{rng.randrange(n_nodes)}",
                       f"n{rng.randrange(n_nodes)}", rng.choice(EDGE_LABELS),
                       {"w": rng.choice(VALUES)})
    return graph


def walk(rng: random.Random, graph, start, hops: int) -> list[tuple]:
    """A random walk of up to ``hops`` steps: (edge, 'out'|'in', node)."""
    steps = []
    node = start
    for _ in range(hops):
        options = ([(edge, "out") for edge in graph.out_edges(node)]
                   + [(edge, "in") for edge in graph.in_edges(node)])
        if not options:
            break
        edge, direction = rng.choice(options)
        source, target = graph.endpoints(edge)
        node = target if direction == "out" else source
        steps.append((edge, direction, node))
    return steps


@dataclass
class Variable:
    name: str
    element: object        # the walked node or edge
    is_node: bool
    fixed: bool = True     # a var-length rel binds an edge tuple


class QueryWriter:
    """Writes one random query whose patterns follow real walks."""

    def __init__(self, rng: random.Random, graph) -> None:
        self.rng = rng
        self.graph = graph
        self.variables: list[Variable] = []
        self.node_vars: dict = {}

    def _fresh(self, prefix: str) -> str:
        return f"{prefix}{len(self.variables)}"

    def node_var(self, node, *, required: bool = False) -> str | None:
        rng = self.rng
        known = self.node_vars.get(node)
        if known is not None and rng.random() < 0.5:
            return known                      # a consistent repeat
        nodes = [var.name for var in self.variables if var.is_node]
        if nodes and rng.random() < 0.04:
            return rng.choice(nodes)          # most likely clashes
        if not required and rng.random() < 0.3:
            return None
        name = self._fresh("x")
        self.variables.append(Variable(name, node, True))
        self.node_vars.setdefault(node, name)
        return name

    def node_text(self, node, var: str | None) -> str:
        rng = self.rng
        text = var or ""
        if rng.random() < 0.5:
            text += ":" + self.graph.node_label(node)
        if rng.random() < 0.15:
            text += f' {{p: "{self.graph.node_property(node, "p")}"}}'
        return f"({text})"

    def rel_text(self, edge, direction: str, var_length: bool) -> str:
        rng = self.rng
        var = None
        if rng.random() < 0.3:
            var = self._fresh("e")
            self.variables.append(Variable(var, edge, False, not var_length))
        elif not var_length and rng.random() < 0.03:
            rels = [var.name for var in self.variables
                    if not var.is_node and var.fixed]
            var = rng.choice(rels) if rels else None
        text = var or ""
        if rng.random() < 0.7:
            text += ":" + self.graph.edge_label(edge)
        if var_length:
            text += rng.choice(("*1..2", "*1..3", "*..2", "*2"))
        body = f"[{text}]" if text or rng.random() < 0.5 else ""
        if rng.random() < 0.2:
            return f"-{body}-"
        return f"-{body}->" if direction == "out" else f"<-{body}-"

    def pattern(self, start, hops: int, *, allow_var_length: bool,
                start_var: str | None = None) -> str:
        var = start_var if start_var is not None else self.node_var(start)
        parts = [self.node_text(start, var)]
        var_length_left = allow_var_length
        for edge, direction, node in walk(self.rng, self.graph, start, hops):
            var_length = var_length_left and self.rng.random() < 0.25
            var_length_left = var_length_left and not var_length
            parts.append(self.rel_text(edge, direction, var_length))
            parts.append(self.node_text(node, self.node_var(node)))
        return "".join(parts)


def condition_text(rng: random.Random, variables: list[Variable], graph) -> str:
    var = rng.choice(variables)
    negated = "NOT " if rng.random() < 0.15 else ""
    nodes = [v for v in variables if v.is_node]
    if var.is_node and len(nodes) > 1 and rng.random() < 0.25:
        other = rng.choice([v for v in nodes if v.name != var.name] or nodes)
        return f"{negated}{var.name} <> {other.name}"
    if var.is_node:
        walked = graph.node_property(var.element, "p")
        value = walked if rng.random() < 0.6 else rng.choice(VALUES)
        return f'{negated}{var.name}.p {rng.choice(("=", "<>", "<=", ">="))} "{value}"'
    if var.fixed:
        walked = graph.edge_property(var.element, "w")
        return f'{negated}{var.name}.w = "{walked}"'
    return f"{negated}{var.name} = {var.name}"


@dataclass
class Instance:
    text: str              # RETURN DISTINCT, with SKIP/LIMIT
    full_text: str         # RETURN DISTINCT, without SKIP/LIMIT
    reference_text: str    # no DISTINCT, no SKIP/LIMIT
    ordered: bool
    skip: int
    limit: int | None


def make_patterns(rng: random.Random, graph) -> tuple[list[str], list]:
    """One or two comma patterns and the variables they bind."""
    writer = QueryWriter(rng, graph)
    nodes = sorted(graph.nodes(), key=str)
    patterns = [writer.pattern(rng.choice(nodes), rng.randint(1, 3),
                                allow_var_length=True)]
    if rng.random() < 0.35:
        shared = [v for v in writer.variables if v.is_node]
        if shared and rng.random() < 0.85:
            join = rng.choice(shared)
            patterns.append(writer.pattern(join.element, rng.randint(1, 2),
                                            allow_var_length=False,
                                            start_var=join.name))
        else:
            patterns.append(writer.pattern(rng.choice(nodes), 1,
                                            allow_var_length=False))
    return patterns, writer.variables


def make_instance(rng: random.Random, graph) -> Instance:
    patterns, variables = make_patterns(rng, graph)
    while not variables:      # RETURN needs a variable to project
        patterns, variables = make_patterns(rng, graph)
    where = ""
    if rng.random() < 0.45:
        joiner = rng.choice((" AND ", " OR "))
        where = " WHERE " + joiner.join(
            condition_text(rng, variables, graph)
            for _ in range(rng.randint(1, 2)))
    # Project from the front of the variable order most of the time, so
    # the tails behind the returned variables are often unread.
    cut = rng.randint(1, len(variables))
    chosen = rng.sample(variables[:cut], rng.randint(1, min(2, cut)))
    items = []
    for var in chosen:
        if var.is_node and rng.random() < 0.35:
            expr = f"{var.name}.p"
        elif not var.is_node and var.fixed and rng.random() < 0.35:
            expr = f"{var.name}.w"
        else:
            expr = var.name
        alias = f"k{len(items)}" if rng.random() < 0.2 else None
        items.append((expr, alias))
    returned = ", ".join(expr + (f" AS {alias}" if alias else "")
                         for expr, alias in items)
    order = ""
    if rng.random() < 0.35:
        expr, alias = rng.choice(items)
        order = f" ORDER BY {alias or expr}" + rng.choice(("", " DESC", " ASC"))
    skip, limit = 0, None
    if rng.random() < 0.2:
        skip, limit = rng.randint(0, 2), rng.randint(1, 4)
    slicing = (f" SKIP {skip}" if skip else "") + \
        (f" LIMIT {limit}" if limit is not None else "")
    body = "MATCH " + ", ".join(patterns) + where
    return Instance(
        text=f"{body} RETURN DISTINCT {returned}{order}{slicing}",
        full_text=f"{body} RETURN DISTINCT {returned}{order}",
        reference_text=f"{body} RETURN {returned}{order}",
        ordered=bool(order), skip=skip, limit=limit)


def reference_rows(store, instance: Instance) -> list[tuple]:
    """First-occurrence deduplication of the enumerated bag, then
    SKIP/LIMIT — computed with no witness position anywhere."""
    seen = set()
    rows = []
    for row in run_cypher(store, instance.reference_text,
                          engine="scalar").rows:
        if row not in seen:
            seen.add(row)
            rows.append(row)
    end = None if instance.limit is None else instance.skip + instance.limit
    return rows[instance.skip:end]


def seed_instances(seed: int):
    rng = random.Random(f"cypher-distinct-{seed}")
    for graph_index in range(GRAPHS_PER_SEED):
        graph = make_graph(rng, rng.randint(6, 12), rng.randint(10, 26))
        store = store_for_graph(graph)
        for _ in range(QUERIES_PER_GRAPH):
            yield graph_index, store, make_instance(rng, graph)


def _witness_checks(tracer: Tracer) -> int:
    evaluate = [span for span in tracer.roots if span.name == "evaluate"]
    return evaluate[-1].attrs.get("witness_checks", 0)


@pytest.mark.parametrize("seed", SEEDS)
def test_distinct_rows_match_deduplicated_enumeration(seed):
    total = nonempty = witnessed = 0
    for graph_index, store, instance in seed_instances(seed):
        where = f"(seed={seed}, graph={graph_index}, query={instance.text!r})"
        expected = reference_rows(store, instance)
        tracer = Tracer()
        got = run_cypher(store, instance.text, engine="scalar", tracer=tracer)
        assert got.rows == expected, where
        total += 1
        nonempty += bool(expected)
        witnessed += _witness_checks(tracer) > 0

        full = reference_rows(store, Instance(
            instance.full_text, instance.full_text, instance.reference_text,
            instance.ordered, 0, None))
        vector = run_cypher(store, instance.full_text, engine="vector")
        if instance.ordered:
            assert set(vector.rows) == set(full), f"vector {where}"
            assert len(vector.rows) == len(full), f"vector {where}"
        else:
            assert vector.rows == full, f"vector {where}"
    share = nonempty / total
    assert share >= MIN_NONEMPTY_SHARE, (
        f"seed {seed}: only {nonempty}/{total} instances had a non-empty "
        f"answer")
    assert witnessed / total >= MIN_WITNESS_SHARE, (
        f"seed {seed}: only {witnessed}/{total} instances ran a witness tail")
