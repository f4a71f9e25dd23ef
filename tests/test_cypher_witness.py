"""Witness tails: ``RETURN DISTINCT`` stops at one completion per unread tail.

Unit tests for :func:`~repro.query.cypherish.witness_positions` (the rule
EXPLAIN and the evaluator share), and for what the witness memo shows on
the bus view ``MATCH (a:person)-[:rides]->(b:bus)<-[:rides]-(c:infected)
RETURN DISTINCT a``: the same rows as the deduplicated enumeration, the
``witness_checks`` / ``witness_hits`` span attributes, the EXPLAIN
expansion, and fewer ``cypher.expand`` checkpoints.  The seeded
differential harness is ``test_cypher_differential.py``.
"""

from __future__ import annotations

import pytest

from repro.datasets import generate_contact_graph
from repro.exec import Budget, Context
from repro.obs import Tracer, explain_cypher
from repro.query.cypherish import parse_cypher, run_cypher, store_for_graph
from repro.query.cypherish import witness_positions

BUS_VIEW = ("MATCH (a:person)-[:rides]->(b:bus)<-[:rides]-(c:infected) "
            "RETURN DISTINCT a")
BUS_BAG = BUS_VIEW.replace("RETURN DISTINCT", "RETURN")


@pytest.fixture(scope="module")
def store():
    return store_for_graph(generate_contact_graph(80, 3, 20, 2, rng=5))


@pytest.mark.parametrize("text, expected", [
    (BUS_VIEW, [{0, 1}]),
    (BUS_BAG, [set()]),
    # A returned, filtered or joined variable ends no tail it sits in.
    ("MATCH (a)-[:r]->(b)-[:s]->(c) RETURN DISTINCT a, b", [{1}]),
    ("MATCH (a)-[:r]->(b)-[:s]->(c) WHERE c.p = 1 RETURN DISTINCT a", [set()]),
    ("MATCH (a)-[e:r]->(b)-[:s]->(c) WHERE e.w = 1 RETURN DISTINCT a",
     [{1}]),
    ("MATCH (a)-[:r]->(b), (b)-[:s]->(c) RETURN DISTINCT a", [set(), {0}]),
    # A tail may repeat its own variable, but not one bound before it.
    ("MATCH (a)-[:r]->(x)-[:s]->(x) RETURN DISTINCT a", [{0}]),
    ("MATCH (a)-[:r]->(b)-[:s]->(a) RETURN DISTINCT a", [set()]),
    ("MATCH (a)-[:r]->(x)-[:s]->(y)-[:t]->(x) RETURN DISTINCT a", [{0}]),
    ("MATCH (a)-[e:r*1..2]->(b) RETURN DISTINCT a", [{0}]),
    ("MATCH (a) RETURN DISTINCT a", [set()]),
])
def test_witness_positions(text, expected):
    assert witness_positions(parse_cypher(text)) == tuple(
        frozenset(positions) for positions in expected)


def _evaluate_span(store, text, **kwargs):
    tracer = Tracer()
    result = run_cypher(store, text, tracer=tracer, **kwargs)
    (span,) = [span for span in tracer.roots if span.name == "evaluate"]
    return result, span


def test_bus_view_rows_and_witness_counters(store):
    bag = run_cypher(store, BUS_BAG).rows
    expected = list(dict.fromkeys(bag))
    result, span = _evaluate_span(store, BUS_VIEW)
    assert result.rows == expected
    assert len(bag) > len(expected) > 0
    # One check per person at position 0 (each is met once), at most one
    # per bus at position 1; every later visit of a bus is a hit.
    people = len(store.nodes_with_label("person"))
    buses = len(store.nodes_with_label("bus"))
    assert people < span.attrs["witness_checks"] <= people + buses
    assert span.attrs["witness_hits"] > 0
    _, bag_span = _evaluate_span(store, BUS_BAG)
    assert bag_span.attrs["witness_checks"] == 0
    assert bag_span.attrs["witness_hits"] == 0


@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_memo_hits_spend_no_expand_checkpoints(store, engine):
    spent = {}
    for text in (BUS_VIEW, BUS_BAG):
        ctx = Context(Budget())
        run_cypher(store, text, ctx=ctx, engine=engine)
        spent[text] = ctx.stats.checkpoints["cypher.expand"]
    assert 0 < spent[BUS_VIEW] < spent[BUS_BAG]


def test_explain_marks_witness_expansions(store):
    def expansions(text):
        (pattern,) = explain_cypher(store, text).details["patterns"]
        return [rel["expansion"] for rel in pattern["rels"]]

    assert expansions(BUS_VIEW) == ["witness(adjacency)"] * 2
    assert expansions(BUS_BAG) == ["adjacency"] * 2
    assert expansions("MATCH (a)-[:rides]->(b)-[:owns*1..3]-(c) "
                      "RETURN DISTINCT a, b") == [
        "adjacency", "witness(bfs(1..3))"]
