"""Deterministic fault injection, and checkpoint coverage of every governed loop.

The coverage test is the governor's safety net: an input-dependent loop
that never checkpoints can neither be budgeted nor faulted, so the
``ALL_SITES`` registry below must list every checkpoint site in the
codebase and the exercise functions must drive each one at least once —
asserted through the injector's own observation counters.

``REPRO_FAULT_SEEDS`` (comma-separated integers) widens the randomized
fault campaign; CI sweeps several seeds, the default keeps local runs fast.
"""

from __future__ import annotations

import os

import pytest

from repro.analytics import hits, pagerank
from repro.core.centrality import approximate_regex_betweenness, betweenness_centrality
from repro.core.rpq import (
    ApproxPathCounter,
    UniformPathSampler,
    count_paths_exact,
    enumerate_paths,
    parse_regex,
)
from repro.core.rpq.evaluate import (
    endpoint_pairs,
    shortest_conforming_length,
)
from repro.datasets import random_labeled_graph
from repro.exec import Budget, Context, FaultInjector, run_with_fault
from repro.models import figure2_labeled, figure2_property
from repro.models.convert import labeled_to_rdf
from repro.query import run_cypher, run_sparql
from repro.storage import PropertyGraphStore, TripleStore

AMBIGUOUS = parse_regex("(r + s)*/r")
CHAIN = parse_regex("r/s")
STAR = parse_regex("(r + s)*")

_GRAPH = random_labeled_graph(8, 20, rng=3)
_TRIPLES = TripleStore.from_graph(labeled_to_rdf(figure2_labeled()))
_PROPS = PropertyGraphStore(figure2_property())


def _fpras(ctx):
    return ApproxPathCounter(_GRAPH, AMBIGUOUS, 3, pool_size=4,
                             trials_per_state=4, rng=0, ctx=ctx).estimate()


#: site -> a function(ctx) whose evaluation passes through that site.
#: Every checkpoint site in the codebase must appear here (coverage test).
SITE_DRIVERS = {
    "product.init": lambda ctx: count_paths_exact(_GRAPH, AMBIGUOUS, 3, ctx=ctx),
    "product.expand": lambda ctx: count_paths_exact(_GRAPH, AMBIGUOUS, 3, ctx=ctx),
    "count.layer": lambda ctx: count_paths_exact(_GRAPH, AMBIGUOUS, 3, ctx=ctx),
    "enumerate.pop": lambda ctx: list(enumerate_paths(_GRAPH, AMBIGUOUS, 2,
                                                      ctx=ctx)),
    "fpras.sketch": _fpras,
    "fpras.estimate": _fpras,
    "generate.preprocess": lambda ctx: UniformPathSampler(_GRAPH, AMBIGUOUS, 3,
                                                          ctx=ctx),
    "evaluate.chain": lambda ctx: endpoint_pairs(_GRAPH, CHAIN, ctx=ctx),
    "evaluate.fixpoint": lambda ctx: endpoint_pairs(_GRAPH, STAR, ctx=ctx),
    "evaluate.bfs": lambda ctx: shortest_conforming_length(_GRAPH, STAR,
                                                           "v0", "v0", ctx=ctx),
    "vector.build": lambda ctx: count_paths_exact(_GRAPH, AMBIGUOUS, 3,
                                                  engine="vector", ctx=ctx),
    "vector.count": lambda ctx: count_paths_exact(_GRAPH, AMBIGUOUS, 3,
                                                  engine="vector", ctx=ctx),
    "vector.fixpoint": lambda ctx: endpoint_pairs(_GRAPH, STAR,
                                                  engine="vector", ctx=ctx),
    "sparql.join": lambda ctx: run_sparql(
        _TRIPLES, "SELECT ?x ?y WHERE { ?x <rides> ?y . }", ctx=ctx),
    "sparql.closure": lambda ctx: run_sparql(
        _TRIPLES, "SELECT ?x ?y WHERE { ?x <rides>* ?y . }", ctx=ctx),
    "cypher.match": lambda ctx: run_cypher(
        _PROPS, "MATCH (p:person)-[:rides]->(b) RETURN p", ctx=ctx),
    "cypher.expand": lambda ctx: run_cypher(
        _PROPS, "MATCH (p:person)-[:rides*1..2]-(b) RETURN p", ctx=ctx),
    "pagerank.iteration": lambda ctx: pagerank(_GRAPH, ctx=ctx),
    "hits.iteration": lambda ctx: hits(_GRAPH, ctx=ctx),
    "betweenness.source": lambda ctx: betweenness_centrality(_GRAPH, ctx=ctx),
    "approx_bc.pair": lambda ctx: approximate_regex_betweenness(
        _GRAPH, CHAIN, samples_per_pair=2, rng=0, ctx=ctx),
}

ALL_SITES = set(SITE_DRIVERS)


class TestInjectorMechanics:
    def test_from_seed_is_deterministic(self):
        first = FaultInjector.from_seed(42)
        second = FaultInjector.from_seed(42)
        assert (first.fail_at, first.kind) == (second.fail_at, second.kind)

    def test_fires_at_exactly_the_nth_checkpoint(self):
        injector = FaultInjector(fail_at=3, kind="steps")
        ctx = Context(faults=injector)
        ctx.checkpoint("a")
        ctx.checkpoint("b")
        with pytest.raises(Exception) as excinfo:
            ctx.checkpoint("a")
        assert excinfo.value.injected
        assert excinfo.value.resource == "steps"
        assert injector.fired
        assert injector.observed == {"a": 2, "b": 1}

    def test_per_site_trigger_ignores_other_sites(self):
        injector = FaultInjector(fail_at=2, site="hot", kind="deadline")
        ctx = Context(faults=injector)
        for _ in range(10):
            ctx.checkpoint("cold")
        ctx.checkpoint("hot")
        with pytest.raises(Exception) as excinfo:
            ctx.checkpoint("hot")
        assert excinfo.value.site == "hot"

    def test_cancel_kind_lands_like_external_cancel(self):
        from repro.errors import Cancelled

        injector = FaultInjector(fail_at=2, kind="cancel")
        ctx = Context(faults=injector)
        # The trigger flips the cooperative flag; the checkpoint's own
        # cancellation check (which runs after the fault hook) raises.
        ctx.checkpoint("a")
        assert not ctx.cancelled
        with pytest.raises(Cancelled) as excinfo:
            ctx.checkpoint("b")
        assert ctx.cancelled
        assert excinfo.value.site == "b"

    def test_clock_skew_expires_real_deadline_without_sleeping(self):
        clock_value = [0.0]
        injector = FaultInjector(skew_per_checkpoint=0.3)
        ctx = Context(Budget(deadline=1.0), clock=lambda: clock_value[0],
                      faults=injector)
        for _ in range(3):  # offsets 0.3, 0.6, 0.9 stay under the deadline
            ctx.checkpoint("site")
        from repro.errors import BudgetExceeded

        with pytest.raises(BudgetExceeded) as excinfo:
            ctx.checkpoint("site")  # offset 1.2 > 1.0
        assert excinfo.value.resource == "deadline"

    def test_allocation_pressure_trips_byte_budget_early(self):
        from repro.errors import BudgetExceeded

        injector = FaultInjector(allocation_multiplier=10.0)
        ctx = Context(Budget(max_bytes=100), faults=injector)
        with pytest.raises(BudgetExceeded) as excinfo:
            ctx.charge_bytes(20, "site")
        assert excinfo.value.resource == "bytes"

    def test_invalid_plans_are_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(kind="segfault")
        with pytest.raises(ValueError):
            FaultInjector(fail_at=0)

    def test_run_with_fault_outcomes(self):
        def work(ctx):
            for _ in range(5):
                ctx.checkpoint("site")
            return "done"

        status, result = run_with_fault(
            work, lambda inj: Context(faults=inj), FaultInjector(fail_at=100))
        assert (status, result) == ("ok", "done")
        status, error = run_with_fault(
            work, lambda inj: Context(faults=inj),
            FaultInjector(fail_at=2, kind="frontier"))
        assert status == "budget" and error.injected


class TestCheckpointCoverage:
    def test_every_governed_loop_checkpoints(self):
        """One injector observes all drivers: its counters must cover every
        site, proving each governed loop is reachable by fault injection."""
        injector = FaultInjector()  # no trigger: pure observation
        for driver in SITE_DRIVERS.values():
            driver(Context(faults=injector))
        missing = ALL_SITES - set(injector.observed)
        assert not missing, f"never checkpointed: {sorted(missing)}"

    @pytest.mark.parametrize("site", sorted(ALL_SITES))
    def test_every_site_can_be_interrupted(self, site):
        """Injecting at the first hit of each site aborts the evaluation —
        no governed loop can outrun its budget."""
        injector = FaultInjector(fail_at=1, site=site, kind="steps")
        status, error = run_with_fault(
            SITE_DRIVERS[site], lambda inj: Context(faults=inj), injector)
        assert status == "budget"
        assert error.injected and error.site == site


def _campaign_seeds() -> list[int]:
    raw = os.environ.get("REPRO_FAULT_SEEDS", "0,1")
    return [int(part) for part in raw.split(",") if part.strip()]


@pytest.mark.parametrize("seed", _campaign_seeds())
def test_randomized_fault_campaign(seed):
    """Seeded random faults at random ordinals: every outcome is one of the
    typed ones, and fired (non-cancel) injections always surface as
    injected BudgetExceeded — never a hang, never an untyped error."""
    for index, (site, driver) in enumerate(sorted(SITE_DRIVERS.items())):
        injector = FaultInjector.from_seed(seed * 1009 + index,
                                           max_ordinal=32)
        status, payload = run_with_fault(
            driver, lambda inj: Context(faults=inj), injector)
        assert status in ("ok", "budget", "cancelled")
        if injector.fired and injector.kind != "cancel":
            assert status == "budget" and payload.injected
