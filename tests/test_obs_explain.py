"""EXPLAIN reports: golden-file JSON schema tests for all three frontends.

The goldens under ``tests/golden/`` freeze the ``repro.obs.explain`` v2
schema (v2 added the per-frontend ``cache`` section).  EXPLAIN never executes the query, so its output is fully
deterministic and compared byte-for-byte (as parsed JSON).  If a change is
*meant* to alter the plan format, regenerate the goldens and bump
``EXPLAIN_SCHEMA_VERSION``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.models import figure2_labeled, figure2_property
from repro.models.convert import labeled_to_rdf
from repro.obs import (
    explain_cypher,
    explain_pathql,
    explain_sparql,
    regex_index_plan,
)
from repro.core.rpq import parse_regex
from repro.storage import PropertyGraphStore, TripleStore

GOLDEN = Path(__file__).parent / "golden"


def _golden(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text())


def _reports():
    graph = figure2_labeled()
    store = TripleStore.from_graph(labeled_to_rdf(graph))
    pg_store = PropertyGraphStore(figure2_property())
    return {
        "explain_pathql.json": explain_pathql(
            graph, "PATHS MATCHING ?person/contact* LENGTH 2 COUNT",
            governed=True),
        "explain_pathql_chain.json": explain_pathql(
            graph, "PATHS MATCHING contact/lives LENGTH 2"),
        "explain_sparql.json": explain_sparql(
            store,
            "SELECT ?x ?y WHERE { ?x <contact> ?y . ?x <rdf:type> <person> . }"),
        "explain_cypher.json": explain_cypher(
            pg_store, "MATCH (p:person)-[:contact]->(q:person) RETURN p.name"),
    }


@pytest.mark.parametrize("name", [
    "explain_pathql.json", "explain_pathql_chain.json",
    "explain_sparql.json", "explain_cypher.json",
])
def test_explain_matches_golden(name):
    assert _reports()[name].to_dict() == _golden(name)


@pytest.mark.parametrize("name", [
    "explain_pathql.json", "explain_pathql_chain.json",
    "explain_sparql.json", "explain_cypher.json",
])
def test_explain_json_round_trips(name):
    report = _reports()[name]
    payload = json.loads(report.to_json())
    assert payload["schema"] == "repro.obs.explain"
    assert payload["version"] == 2
    assert payload == report.to_dict()


def test_explain_text_leads_with_strategy():
    for report in _reports().values():
        lines = report.to_text().splitlines()
        assert lines[0].startswith(f"EXPLAIN [{report.frontend}]")
        assert lines[1].startswith("strategy: ")


def test_chain_vs_product_strategies_diverge():
    graph = figure2_labeled()
    chain = explain_pathql(graph, "PATHS MATCHING contact/lives LENGTH 2")
    star = explain_pathql(graph, "PATHS MATCHING contact* LENGTH 2")
    assert chain.details["regex_shape"] == "chain(2 steps)"
    assert "chain-frontier-join" in chain.details["reachability_strategy"]
    assert star.details["regex_shape"] == "general (product automaton)"
    assert "product" in star.details["reachability_strategy"]


def test_governed_explain_includes_degradation_ladder():
    graph = figure2_labeled()
    governed = explain_pathql(graph, "PATHS MATCHING contact* LENGTH 2 COUNT",
                              governed=True)
    rungs = [r["rung"] for r in governed.details["degradation_ladder"]]
    assert rungs == ["exact", "approx", "lower-bound"]
    shares = [r["budget_share"] for r in governed.details["degradation_ladder"]]
    assert shares == [0.5, 0.4, 0.1]
    ungoverned = explain_pathql(graph, "PATHS MATCHING contact* LENGTH 2 COUNT")
    assert "degradation_ladder" not in ungoverned.details


def test_count_strategy_names_the_resolved_engines_algorithm():
    """The vector engine counts without a product automaton; EXPLAIN says
    so wherever ``auto`` resolves vector, and keeps the product DP where
    the count runs scalar."""
    from repro.datasets import random_labeled_graph

    graph = random_labeled_graph(80, 480, edge_labels=("r", "s"), rng=5)
    text = "PATHS MATCHING (r + s)*/r LENGTH 3 COUNT"
    for engine, expected in (
            ("auto", "exact count DP over determinized NFA-state sets "
                     "(no product)"),
            ("vector", "exact count DP over determinized NFA-state sets "
                       "(no product)"),
            ("scalar", "exact subset DP over the product automaton")):
        plain = explain_pathql(graph, text, engine=engine)
        assert plain.details["engine"]["chosen"] == (
            "scalar" if engine == "scalar" else "vector")
        assert plain.strategy == expected, engine
        governed = explain_pathql(graph, text, engine=engine, governed=True)
        exact = governed.details["degradation_ladder"][0]
        assert exact["rung"] == "exact"
        assert exact["algorithm"] == expected, engine


def test_index_plan_backends():
    graph = figure2_labeled()
    plan = regex_index_plan(graph, parse_regex("contact/?person"))
    assert plan[0]["backend"] == "label-index"
    assert plan[0]["test"] == "contact"
    missing = regex_index_plan(graph, parse_regex("no_such_label"))
    assert missing[0]["backend"] == "label-index"
    assert missing[0]["candidates"] == ["no_such_label"]


def test_explain_cache_section_present_for_all_frontends():
    for report in _reports().values():
        section = report.details["cache"]
        assert section["key_family"] == report.frontend
        assert isinstance(section["footprint"], dict)
        # Every report target in _reports() carries a mutation log.
        assert isinstance(section["target_version"], int)


def test_explain_cache_footprint_reflects_query_labels():
    graph = figure2_labeled()
    report = explain_pathql(graph, "PATHS MATCHING contact/lives LENGTH 2")
    footprint = report.details["cache"]["footprint"]
    assert footprint["edge_labels"] == ["contact", "lives"]
    assert not footprint["all_edges"]


def test_sparql_explain_reports_greedy_join_order():
    store = TripleStore.from_graph(labeled_to_rdf(figure2_labeled()))
    report = explain_sparql(
        store,
        "SELECT ?x ?y WHERE { ?x <contact> ?y . ?x <rdf:type> <person> . }")
    (branch,) = report.details["branches"]
    estimates = [step["estimated_matches"] for step in branch["join_order"]]
    # Greedy selectivity: most selective pattern first.
    assert estimates == sorted(estimates)


def test_cypher_explain_reports_candidate_sources():
    report = explain_cypher(
        PropertyGraphStore(figure2_property()),
        "MATCH (p:person)-[:contact*1..3]->(q) RETURN p.name")
    (pattern,) = report.details["patterns"]
    assert pattern["nodes"][0]["candidate_source"] == "label-index(:person)"
    (rel,) = pattern["rels"]
    assert rel["expansion"] == "bfs(1..3)"
