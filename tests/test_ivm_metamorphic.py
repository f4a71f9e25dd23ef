"""Metamorphic harness for incremental view maintenance (PR 10 headline).

The invariant under test: after **every** mutation, an
:class:`~repro.ivm.IncrementalPairs` view answers exactly what a
from-scratch :func:`~repro.core.rpq.endpoint_pairs` evaluation answers on
the mutated graph.  The harness drives ``>= 500`` seeded interleavings of
mutations and queries at mutation rates 0.3, 0.5 and 0.8, reusing the
random-world / random-regex / random-mutation generators from the cache
metamorphic tier so both harnesses explore the same move space.

Validity of the harness itself is established by
``test_broken_delta_rule_is_caught``: flipping
``repro.ivm.delta._BREAK_DELTA_RULE`` (which silently drops removal
records from the delta stream) must make the harness fail.  A harness
that stays green under that deliberate bug would be vacuous.

``test_ivm_windowed_mutations`` lands one to five structural moves between
two syncs — removing a node that still has edges, re-adding a removed edge
id between new endpoints — which the one-mutation-per-query interleavings
above never produce.

The count and frontend views of a :class:`~repro.ivm.ViewRegistry`
recompute instead of propagating deltas; the tests at the end of the file
hold them to the same invariant (served == a plain run after every
mutation), with fixed cases for a truncated log and a degraded answer.

Extra seeds: ``REPRO_FUZZ_SEEDS=0,1,2,7,13 pytest tests/test_ivm_metamorphic.py``
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core.rpq import endpoint_pairs, parse_regex
from repro.ivm import IncrementalPairs
from repro.ivm import delta as ivm_delta
from tests.test_cache_metamorphic import (
    EDGE_LABELS,
    NODE_LABELS,
    random_mutation,
    random_property_graph,
    random_regex_text,
)

SEEDS = tuple(int(s) for s in os.environ.get("REPRO_FUZZ_SEEDS", "0,1,2").split(","))

#: Probability that a step mutates (vs. merely re-querying the view).
MUTATION_RATES = (0.3, 0.5, 0.8)
INTERLEAVINGS_PER_RATE = 60
STEPS_PER_INTERLEAVING = 8

# 3 rates x 60 interleavings x len(SEEDS) >= 3 seeds -> >= 540 interleavings,
# satisfying the >= 500 floor asserted in test_interleaving_floor.


def _check_interleaving(rng: random.Random, rate: float, tag: str) -> dict:
    """Run one mutation/query interleaving; assert view == from-scratch.

    Returns the view's stats dict so callers can aggregate non-vacuity
    floors.  Raises ``AssertionError`` with a replay tag on the first
    divergence — the same code path is reused (under the broken delta
    rule) to prove the harness has teeth.
    """
    graph = random_property_graph(rng)
    regex = parse_regex(random_regex_text(rng))
    view = IncrementalPairs(graph, regex)
    assert view.pairs() == endpoint_pairs(graph, regex), (
        f"{tag}: initial materialization diverged")
    for step in range(STEPS_PER_INTERLEAVING):
        move = "query"
        if rng.random() < rate:
            move = random_mutation(rng, graph, f"{tag}s{step}")
        got = view.pairs()
        want = endpoint_pairs(graph, regex)
        assert got == want, (
            f"{tag} step {step} after {move}: view={sorted(got)!r} "
            f"fresh={sorted(want)!r} regex={regex.to_text()!r} "
            f"stats={view.stats}")
    return dict(view.stats)


@pytest.mark.parametrize("rate", MUTATION_RATES)
@pytest.mark.parametrize("seed", SEEDS)
def test_ivm_metamorphic(seed: int, rate: float) -> None:
    rng = random.Random(910_000 + 1000 * int(rate * 10) + seed)
    totals: dict[str, int] = {}
    for trial in range(INTERLEAVINGS_PER_RATE):
        stats = _check_interleaving(rng, rate, f"seed={seed} rate={rate} t{trial}")
        for key, value in stats.items():
            totals[key] = totals.get(key, 0) + value
    # Non-vacuity floors: the run must have exercised the incremental
    # machinery, not solved everything via full recomputes.
    assert totals["delta_syncs"] >= INTERLEAVINGS_PER_RATE, totals
    assert totals["retractions"] > 0, totals
    # Full recomputes are a legal fallback but must not dominate: the
    # whole point of the subsystem is that most syncs are deltas.  The
    # initial materialization of each view is itself counted as a full
    # recompute, so only the excess beyond one-per-interleaving counts
    # as fallback here.
    fallback_recomputes = totals["full_recomputes"] - INTERLEAVINGS_PER_RATE
    assert totals["delta_syncs"] > 3 * fallback_recomputes, totals


def test_interleaving_floor() -> None:
    """The matrix above must drive at least 500 interleavings."""
    assert len(SEEDS) * len(MUTATION_RATES) * INTERLEAVINGS_PER_RATE >= 500


def test_broken_delta_rule_is_caught(monkeypatch: pytest.MonkeyPatch) -> None:
    """Deliberately break removal propagation; the harness must fail.

    ``_BREAK_DELTA_RULE`` makes the delta engine drop removal records, so
    a view keeps serving endpoint pairs whose witness paths no longer
    exist.  If ``_check_interleaving`` ever stops detecting that, the
    metamorphic tier has gone vacuous and this test fails instead.
    """
    # Deterministic minimal witness first: a -r-> b -r-> c, view r/r,
    # then cut the bridge.  The broken engine must keep the stale pair.
    from repro.models.property import PropertyGraph

    graph = PropertyGraph()
    for node in "abc":
        graph.add_node(node)
    graph.add_edge("e1", "a", "b", label="r")
    graph.add_edge("e2", "b", "c", label="r")
    regex = parse_regex("r/r")
    view = IncrementalPairs(graph, regex)
    assert view.pairs() == {("a", "c")}
    monkeypatch.setattr(ivm_delta, "_BREAK_DELTA_RULE", True)
    graph.remove_edge("e2")
    assert endpoint_pairs(graph, regex) == set()
    assert view.pairs() == {("a", "c")}, (
        "_BREAK_DELTA_RULE no longer suppresses removals; the validity "
        "check below would pass for the wrong reason")

    # And the generic harness must trip on the same bug within a few
    # random interleavings at a removal-heavy mutation rate.
    rng = random.Random(920_001)
    with pytest.raises(AssertionError):
        for trial in range(40):
            _check_interleaving(rng, 0.8, f"broken t{trial}")


WINDOW_INTERLEAVINGS = 80
WINDOW_SYNCS = 6


def random_window_move(rng: random.Random, graph, tag: str) -> str:
    """Apply one structural move for the windowed test; return its name.

    The removals the single-mutation stream never makes: a node that
    still has edges, and an edge id removed and re-added between new
    endpoints (``rewire_edge``) or a node removed and re-added with one
    new edge (``readd_node``).  A generator of its own, so that
    ``random_mutation``'s stream and every test drawing from it stay
    unchanged.
    """
    nodes = sorted(graph.nodes(), key=str)
    edges = sorted(graph.edges(), key=str)
    connected = [node for node in nodes if graph.degree(node)]
    moves = ["add_node"]
    if nodes:
        moves += ["add_edge"]
    if edges:
        moves += ["remove_edge", "rewire_edge"]
    if connected:
        moves += ["remove_node", "readd_node"]
    move = rng.choice(moves)
    if move == "add_node":
        graph.add_node(f"w{tag}", rng.choice(NODE_LABELS))
    elif move == "add_edge":
        graph.add_edge(f"w{tag}", rng.choice(nodes), rng.choice(nodes),
                       rng.choice(EDGE_LABELS))
    elif move == "remove_edge":
        graph.remove_edge(rng.choice(edges))
    elif move == "rewire_edge":
        edge = rng.choice(edges)
        graph.remove_edge(edge)
        graph.add_edge(edge, rng.choice(nodes), rng.choice(nodes),
                       rng.choice(EDGE_LABELS))
    else:
        node = rng.choice(connected)
        graph.remove_node(node)
        if move == "readd_node":
            graph.add_node(node, rng.choice(NODE_LABELS))
            graph.add_edge(f"w{tag}", node, rng.choice(nodes),
                           rng.choice(EDGE_LABELS))
    return move


@pytest.mark.parametrize("seed", SEEDS)
def test_ivm_windowed_mutations(seed: int) -> None:
    """One to five structural moves land between two syncs.

    After every sync the view must equal a from-scratch evaluation, so a
    delta rule that only holds for one mutation per sync (or that walks
    from a removed node) fails here.
    """
    rng = random.Random(950_000 + seed)
    totals: dict[str, int] = {}
    for trial in range(WINDOW_INTERLEAVINGS):
        graph = random_property_graph(rng)
        regex = parse_regex(random_regex_text(rng))
        view = IncrementalPairs(graph, regex)
        view.pairs()
        for sync in range(WINDOW_SYNCS):
            moves = [random_window_move(rng, graph, f"{trial}.{sync}.{i}")
                     for i in range(rng.randint(1, 5))]
            got = view.pairs()
            want = endpoint_pairs(graph, regex)
            assert got == want, (
                f"seed={seed} t{trial} sync {sync} after {moves}: "
                f"view={sorted(got)!r} fresh={sorted(want)!r} "
                f"regex={regex.to_text()!r} stats={view.stats}")
        for key, value in view.stats.items():
            totals[key] = totals.get(key, 0) + value
    assert totals["retractions"] >= WINDOW_INTERLEAVINGS, totals
    assert totals["delta_syncs"] > 3 * (totals["full_recomputes"]
                                        - WINDOW_INTERLEAVINGS), totals


def test_registry_views_follow_mutations() -> None:
    """Pair views in a registry stay correct across mutations."""
    from repro.ivm import ViewRegistry

    for seed in SEEDS:
        rng = random.Random(930_000 + seed)
        graph = random_property_graph(rng)
        registry = ViewRegistry(graph)
        regexes = [parse_regex(random_regex_text(rng)) for _ in range(3)]
        for i, regex in enumerate(regexes):
            registry.register_pairs(f"pairs{i}", regex)
        for step in range(12):
            random_mutation(rng, graph, f"r{seed}s{step}")
            for i, regex in enumerate(regexes):
                assert registry.result(f"pairs{i}") == endpoint_pairs(graph, regex), (
                    f"seed={seed} step={step} view=pairs{i} "
                    f"regex={regex.to_text()!r}")


RECOMPUTE_GRAPHS = 8
RECOMPUTE_STEPS = 8


def _pathql_rows(result) -> tuple:
    return (result.mode, result.paths, result.count, result.quality)


def _check_recompute_views(graph, triples, views, where: str) -> None:
    """Every count and frontend view answers what a plain run answers."""
    from repro.core.rpq import count_paths_exact
    from repro.query.cypherish import run_cypher
    from repro.query.pathql import run_pathql
    from repro.query.sparql import run_sparql

    for name, regex, k in views["counts"]:
        assert views["graph"].result(name) == count_paths_exact(
            graph, regex, k), f"{where} view={name} regex={regex.to_text()!r}"
    for text in views["pathql"]:
        assert _pathql_rows(run_pathql(graph, text, view=views["graph"])) \
            == _pathql_rows(run_pathql(graph, text)), f"{where} {text!r}"
    for text in views["cypher"]:
        served = run_cypher(views["pgstore"], text, view=views["store"])
        plain = run_cypher(views["pgstore"], text)
        assert (served.columns, served.rows) == (plain.columns, plain.rows), \
            f"{where} {text!r}"
    for text in views["sparql"]:
        served = run_sparql(triples, text, view=views["triples"])
        plain = run_sparql(triples, text)
        assert (served.variables, served.rows) == \
            (plain.variables, plain.rows), f"{where} {text!r}"


def test_recompute_views_follow_mutations() -> None:
    """Count and frontend views (the footprint-recompute strategy) answer
    exactly what a run with no cache and no view answers, after every
    random mutation of the graph or of the triple store.

    Per seed the views must both re-stamp across some footprint-disjoint
    mutation and recompute after some intersecting one, so neither half
    of the invalidation rule goes untested.
    """
    from repro.ivm import ViewRegistry
    from repro.query.cypherish import store_for_graph
    from repro.query.pathql import _canonical_key, parse_pathql
    from repro.storage import TripleStore
    from tests.test_cache_metamorphic import (
        CYPHER_TEMPLATES,
        SPARQL_TEMPLATES,
        _pathql_text,
        _random_triple,
    )

    def distinct_pathql(rng, count: int) -> list[str]:
        """PathQL texts of distinct canonical forms: the registry serves
        two texts of one form from one view, so a repeat is redrawn."""
        texts: dict = {}
        while len(texts) < count:
            text = _pathql_text(rng)
            texts.setdefault(_canonical_key(parse_pathql(text)), text)
        return list(texts.values())

    for seed in SEEDS:
        rng = random.Random(940_000 + seed)
        restamps = recomputes = registered = 0
        for trial in range(RECOMPUTE_GRAPHS):
            graph = random_property_graph(rng)
            triples = TripleStore()
            for _ in range(rng.randint(3, 8)):
                triples.add(*_random_triple(rng))
            pgstore = store_for_graph(graph)
            views = {
                "graph": ViewRegistry(graph),
                "store": ViewRegistry(pgstore),
                "triples": ViewRegistry(triples),
                "pgstore": pgstore,
                "counts": [(f"count{i}", parse_regex(random_regex_text(rng)),
                            rng.randint(0, 3)) for i in range(2)],
                "pathql": distinct_pathql(rng, 2),
                "cypher": rng.sample(CYPHER_TEMPLATES, 2),
                "sparql": rng.sample(SPARQL_TEMPLATES, 2),
            }
            for name, regex, k in views["counts"]:
                views["graph"].register_count(name, regex, k)
            tag = f"seed={seed} t{trial}"
            _check_recompute_views(graph, triples, views, f"{tag} initial")
            for step in range(RECOMPUTE_STEPS):
                if rng.random() < 0.7:
                    move = random_mutation(rng, graph, f"{tag}s{step}")
                else:
                    triple = _random_triple(rng)
                    move = "remove" if rng.random() < 0.3 else "add"
                    getattr(triples, move)(*triple)
                _check_recompute_views(graph, triples, views,
                                       f"{tag} step {step} after {move}")
            for registry in (views["graph"], views["store"],
                             views["triples"]):
                for stats in registry.stats().values():
                    assert stats["strategy"] == "footprint-recompute"
                    restamps += stats["restamps"]
                    recomputes += stats["full_recomputes"]
                    registered += 1
        assert registered == 8 * RECOMPUTE_GRAPHS
        assert restamps >= 1, (seed, restamps)
        assert recomputes - registered >= 1, (seed, recomputes, registered)


def test_recompute_view_truncated_history_recomputes() -> None:
    """Mutations past the log's horizon count one truncation and force a
    recompute, even when every one of them misses the footprint."""
    from repro.cache import MutationLog
    from repro.core.rpq import count_paths_exact
    from repro.ivm import ViewRegistry
    from repro.models import figure2_property

    graph = figure2_property()
    graph.mutation_log = MutationLog(capacity=2)
    registry = ViewRegistry(graph)
    regex = parse_regex("contact/contact^-")
    view = registry.register_count("c", regex, 2)
    expected = count_paths_exact(graph, regex, 2)
    assert view.result() == expected
    for step in range(3):  # footprint-disjoint, but they overflow the log
        graph.set_node_property("n1", "name", f"Julia {step}")
    assert view.result() == expected
    stats = view.stats()
    assert stats["truncations"] == 1, stats
    assert stats["full_recomputes"] == 2 and stats["restamps"] == 0, stats
    graph.set_node_property("n1", "name", "Julia")  # within the horizon
    assert view.result() == expected
    assert view.stats()["restamps"] == 1, view.stats()


def test_degraded_count_is_served_but_not_pinned() -> None:
    """A budget-degraded PathQL COUNT reaches the caller through the view,
    but the view keeps no degraded answer: the next serve recomputes an
    exact one, and the serve after that answers from the pinned value."""
    from repro.exec import Budget, Context
    from repro.ivm import ViewRegistry
    from repro.models import figure2_property
    from repro.query.pathql import run_pathql

    graph = figure2_property()
    registry = ViewRegistry(graph)
    text = "PATHS MATCHING (contact + rides + rides^-)* LENGTH 3 COUNT"
    exact = run_pathql(graph, text)
    assert exact.quality == "exact" and exact.count > 0
    degraded = run_pathql(graph, text, view=registry,
                          ctx=Context(Budget(max_steps=3)))
    assert degraded.quality != "exact" and degraded.count != exact.count
    (stats,) = registry.stats().values()
    assert stats["full_recomputes"] == 1, stats
    again = run_pathql(graph, text, view=registry)
    assert _pathql_rows(again) == _pathql_rows(exact)
    (stats,) = registry.stats().values()
    assert stats["full_recomputes"] == 2, stats
    assert _pathql_rows(run_pathql(graph, text, view=registry)) \
        == _pathql_rows(exact)
    (stats,) = registry.stats().values()
    assert stats["full_recomputes"] == 2 and stats["served"] == 3, stats
