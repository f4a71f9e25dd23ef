"""EXPLAIN: report the evaluation strategy a query will use, without running it.

Production graph engines expose plan inspection precisely because RPQ cost
is shape-dependent (Count is SpanL-complete; a chain regex is a frontier
join; a star forces the full product).  This module reproduces that for the
three frontends:

- :func:`explain_pathql` — regex shape (chain-frontier-join vs full
  product-automaton), per-edge-test index plan (label/feature candidates
  from PR 1's adjacency indexes vs full scans), automaton size, and — for
  governed ``COUNT`` — the degradation ladder with each rung's budget share;
- :func:`explain_sparql` — greedy-selectivity join order with per-pattern
  cardinality estimates, plus property-path closure shapes;
- :func:`explain_cypher` — per-pattern node candidate source (property
  index / label index / full scan) and relationship expansion plans.

All reports are static: built from the parsed query and the store's
indexes/statistics, never by executing the query.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.core.rpq.ast import Concat, EdgeAtom, NodeTest, Regex, Star, Union
from repro.core.rpq.evaluate import _chain_steps
from repro.core.rpq.nfa import compile_regex

#: Schema version stamped into every exported report.
#: v2 added the ``cache`` details section (key family, label footprint,
#: target version) for every frontend; the ``engine`` details section
#: (requested/chosen engine and reason) and the ``backend``
#: section (where the answers live: in-memory model vs mmapped CSR
#: segments) and the ``view`` section (materialized-view registration,
#: maintenance strategy, AS OF version pin) are additive within v2 —
#: readers that ignore unknown detail keys keep working.
EXPLAIN_SCHEMA_VERSION = 2


@dataclass
class ExplainReport:
    """A frontend-agnostic strategy report with dict/JSON/text forms."""

    frontend: str
    query: str
    strategy: str
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": "repro.obs.explain",
            "version": EXPLAIN_SCHEMA_VERSION,
            "frontend": self.frontend,
            "query": self.query,
            "strategy": self.strategy,
            "details": self.details,
        }

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def to_text(self) -> str:
        lines = [f"EXPLAIN [{self.frontend}] {self.query}",
                 f"strategy: {self.strategy}"]
        lines.extend(_render(self.details, 1))
        return "\n".join(lines)


def _render(value, depth: int) -> list[str]:
    pad = "  " * depth
    lines: list[str] = []
    if isinstance(value, dict):
        for key, inner in value.items():
            if isinstance(inner, (dict, list)) and inner:
                lines.append(f"{pad}{key}:")
                lines.extend(_render(inner, depth + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar(inner)}")
    elif isinstance(value, list):
        for inner in value:
            if isinstance(inner, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render(inner, depth + 1))
            else:
                lines.append(f"{pad}- {_scalar(inner)}")
    else:
        lines.append(f"{pad}{_scalar(value)}")
    return lines


def _scalar(value) -> str:
    if isinstance(value, (list, dict)) and not value:
        return "(none)"
    return str(value)


def _cache_section(key_family: str, footprint, target) -> dict:
    """The ``cache`` details block shared by all three frontends.

    Reports the canonical key family a :class:`~repro.cache.QueryCache`
    would file this query under, the label footprint that decides
    invalidation (a mutation record intersecting it evicts the entry), and
    the target's current version — the stamp a stored result would carry.
    Targets without a mutation log (version ``None``) are never cached.
    """
    return {
        "key_family": key_family,
        "footprint": footprint.to_dict(),
        "target_version": getattr(target, "version", None),
        "policy": "store exact-quality results; hit while no "
                  "footprint-intersecting mutation is logged",
    }


def _view_section(key, target, view, as_of) -> dict:
    """The ``view`` details block (additive within schema v2).

    Reports whether a :class:`~repro.ivm.ViewRegistry` passed as ``view=``
    already materializes this query (and with which maintenance strategy),
    and the transaction-time version an ``AS OF`` evaluation is pinned to —
    taken from the explicit ``as_of`` argument or from a graph that was
    itself produced by :func:`repro.ivm.as_of`.  ``strategy`` is ``None``
    when no registry is in play.
    """
    if as_of is None:
        as_of = getattr(target, "as_of_version", None)
    section: dict = {"registered": False, "strategy": None, "as_of": as_of}
    if view is not None:
        found = view._by_key.get(key)
        if found is not None:
            section.update(registered=True, name=found.name,
                           strategy=found.strategy,
                           view_version=found.version)
        else:
            section["strategy"] = "auto-register on first run"
    return section


# ---------------------------------------------------------------------------
# PathQL
# ---------------------------------------------------------------------------


def _engine_section(engine: str, graph=None, *, n_nodes: int | None = None,
                    footprint_edges: int | None = None,
                    scalar_reason: str | None = None) -> dict:
    """The ``engine`` details block: requested vs chosen engine and why.

    ``scalar_reason`` short-circuits resolution for evaluation modes that
    are scalar by construction.  A forced ``engine="vector"`` without
    numpy reports ``chosen: "unavailable"`` instead of raising — EXPLAIN
    never executes, so it describes the failure the run would hit.
    """
    from repro.core.rpq.vectorized.engine import resolve_engine
    from repro.errors import EngineUnavailableError

    section: dict = {"requested": engine}
    if scalar_reason is not None:
        section["chosen"] = "scalar"
        section["reason"] = scalar_reason
        return section
    try:
        chosen, reason = resolve_engine(engine, graph, n_nodes=n_nodes,
                                        footprint_edges=footprint_edges)
    except EngineUnavailableError as error:
        section["chosen"] = "unavailable"
        section["reason"] = str(error)
        return section
    section["chosen"] = chosen
    section["reason"] = reason
    return section


def _edge_atoms(regex: Regex):
    if isinstance(regex, EdgeAtom):
        yield regex
    elif isinstance(regex, (Union, Concat)):
        yield from _edge_atoms(regex.left)
        yield from _edge_atoms(regex.right)
    elif isinstance(regex, Star):
        yield from _edge_atoms(regex.inner)
    # NodeTest atoms consume no edge and need no fetch plan.


def regex_index_plan(graph, regex: Regex) -> list[dict]:
    """The fetch plan of every edge atom: index-backed or full scan.

    Mirrors the planning of :func:`repro.core.rpq.product._edge_fetchers`:
    a label-restricted test on a graph with a label adjacency index fetches
    only its candidate buckets (skipping the per-edge re-check when the
    candidate set is exact); everything else scans full incidence lists.
    """
    has_label_index = getattr(graph, "label_adjacency_index", None) is not None
    has_feature_index = getattr(graph, "feature_adjacency_index", None) is not None
    plan = []
    for atom in _edge_atoms(regex):
        labels = atom.test.label_candidates()
        features = atom.test.feature_candidates()
        if has_label_index and labels is not None:
            backend = "label-index"
            exact = atom.test.label_candidates_exact()
            candidates = sorted(labels, key=str)
        elif has_feature_index and features is not None:
            backend = "feature-index"
            exact = atom.test.feature_candidates_exact()
            candidates = [f"f{features[0] + 1}={v}"
                          for v in sorted(features[1], key=str)]
        else:
            backend = "full-scan"
            exact = False
            candidates = []
        plan.append({
            "test": atom.to_text(),
            "backend": backend,
            "candidates": candidates,
            "exact": exact,
            "recheck": not exact,
        })
    return plan


_MODE_STRATEGIES = {
    "enumerate": "product-automaton + polynomial-delay enumeration",
    "count": "exact subset DP over the product automaton",
    "count-approx": "FPRAS (Karp-Luby sampling over NFA sketches)",
    "sample": "uniform generation over the determinized product",
}

#: What an exact count runs when its engine resolves to vector: no
#: product automaton (``core/rpq/vectorized/count.py``).
_VECTOR_COUNT = "exact count DP over determinized NFA-state sets (no product)"


def explain_pathql(graph, text: str, *, governed: bool = False,
                   exact_share: float = 0.5,
                   approx_share: float = 0.8,
                   engine: str = "auto", view=None,
                   as_of: int | None = None) -> ExplainReport:
    """Strategy report for a PathQL statement (parsed, not executed)."""
    from repro.query.pathql import parse_pathql

    query = parse_pathql(text)
    nfa = compile_regex(query.regex)
    chain = _chain_steps(nfa)
    endpoint_free = query.source is None and query.target is None
    if chain is not None and endpoint_free:
        shape = f"chain({len(chain)} steps)"
        reachability = "chain-frontier-join (no product automaton)"
    else:
        shape = "general (product automaton)"
        reachability = "product-automaton fixpoint"

    strategy = _MODE_STRATEGIES[query.mode]
    details: dict = {
        "mode": query.mode,
        "regex": query.regex.to_text(),
        "regex_shape": shape,
        "reachability_strategy": reachability,
        "nfa_states": nfa.n_states,
        "nfa_edge_transitions": nfa.edge_transition_count(),
        "length": ("shortest" if query.shortest else
                   query.length if query.length is not None else
                   f"<= {query.max_length}"),
        "endpoints": {
            "from": query.source if query.source is not None else "(any)",
            "to": query.target if query.target is not None else "(any)",
        },
        "index_plan": regex_index_plan(graph, query.regex),
    }
    if query.mode == "count":
        from repro.core.rpq.evaluate import footprint_edge_count

        details["engine"] = _engine_section(
            engine, graph,
            footprint_edges=(footprint_edge_count(graph, nfa)
                             if engine == "auto" else None))
        if details["engine"]["chosen"] == "vector":
            strategy = _VECTOR_COUNT
    else:
        details["engine"] = _engine_section(
            engine, graph,
            scalar_reason=(f"mode {query.mode!r} is scalar by construction "
                           "(emission order and seeded randomness are part "
                           "of the answer)"))
    from repro.cache import pathql_footprint
    from repro.storage.backend import backend_note

    details["cache"] = _cache_section("pathql", pathql_footprint(query), graph)
    details["backend"] = backend_note(graph)
    from repro.query.pathql import _canonical_key

    details["view"] = _view_section(_canonical_key(query), graph, view, as_of)
    if query.mode == "count" and governed:
        exact_algorithm = strategy
        strategy = "governed degradation ladder (exact -> FPRAS -> lower bound)"
        remainder_after_exact = 1.0 - exact_share
        details["degradation_ladder"] = [
            {"rung": "exact", "algorithm": exact_algorithm,
             "budget_share": exact_share},
            {"rung": "approx", "algorithm": _MODE_STRATEGIES["count-approx"],
             "budget_share": round(remainder_after_exact * approx_share, 6)},
            {"rung": "lower-bound",
             "algorithm": "partial polynomial-delay enumeration",
             "budget_share": round(remainder_after_exact * (1.0 - approx_share), 6)},
        ]
    return ExplainReport("pathql", text, strategy, details)


# ---------------------------------------------------------------------------
# SPARQL
# ---------------------------------------------------------------------------


def _path_shape(path) -> str:
    from repro.query import sparql as s

    if isinstance(path, s.PIri):
        return f"<{path.iri}>"
    if isinstance(path, s.PVar):
        return f"?{path.name}"
    if isinstance(path, s.PInverse):
        return f"^({_path_shape(path.inner)})"
    if isinstance(path, s.PSequence):
        return f"{_path_shape(path.left)}/{_path_shape(path.right)}"
    if isinstance(path, s.PAlternative):
        return f"{_path_shape(path.left)}|{_path_shape(path.right)}"
    if isinstance(path, s.PStar):
        return f"({_path_shape(path.inner)})* [BFS closure]"
    if isinstance(path, s.PPlus):
        return f"({_path_shape(path.inner)})+ [BFS closure]"
    return type(path).__name__


def explain_sparql(store, text: str, *, engine: str = "auto", view=None,
                   as_of: int | None = None) -> ExplainReport:
    """Strategy report for a mini-SPARQL query: join order + estimates."""
    from repro.query.sparql import _estimate, parse_sparql

    query = parse_sparql(text)
    branches = (query.union_branches if query.union_branches
                else ((query.patterns, query.filters, query.optionals),))
    branch_reports = []
    for patterns, filters, optionals in branches:
        # Replay the evaluator's greedy selectivity ordering statically
        # (estimates under the empty binding; at run time estimates shrink
        # as variables bind, so this is the worst-case order).
        remaining = list(patterns)
        order = []
        while remaining:
            index, best = min(enumerate(remaining),
                              key=lambda item: _estimate(store, item[1], {}))
            remaining.pop(index)
            order.append(best)
        branch_reports.append({
            "join_order": [{
                "pattern": (f"{_term(p.subject)} {_path_shape(p.path)} "
                            f"{_term(p.object)}"),
                "estimated_matches": _estimate(store, p, {}),
            } for p in order],
            "filters": len(filters),
            "optional_groups": len(optionals),
        })
    details = {
        "triples": len(store),
        "union_branches": len(branch_reports),
        "branches": branch_reports,
        "distinct": query.distinct,
        "limit": query.limit if query.limit is not None else "(none)",
        "engine": _engine_section(engine, n_nodes=len(store.resources())),
    }
    from repro.cache import sparql_footprint
    from repro.storage.backend import backend_note

    details["cache"] = _cache_section("sparql", sparql_footprint(query), store)
    details["backend"] = backend_note(store)
    details["view"] = _view_section(("sparql", text), store, view, as_of)
    return ExplainReport(
        "sparql", text,
        "backtracking BGP join, greedy selectivity order (SPO/POS/OSP indexes)",
        details)


def _term(term) -> str:
    from repro.query import sparql as s

    if isinstance(term, s.Var):
        return f"?{term.name}"
    if isinstance(term, s.Iri):
        return f"<{term.value}>"
    return f'"{term.value}"'


# ---------------------------------------------------------------------------
# Cypher
# ---------------------------------------------------------------------------


def explain_cypher(store, text: str, *, engine: str = "auto", view=None,
                   as_of: int | None = None) -> ExplainReport:
    """Strategy report for a mini-Cypher query: candidate sources + expansions.

    Under ``RETURN DISTINCT`` a rel inside a witness tail (see
    :func:`~repro.query.cypherish.witness_positions`) reports its
    expansion wrapped as ``witness(...)``: the evaluator stops it at the
    first completion per node.
    """
    from repro.query.cypherish import parse_cypher, witness_positions

    query = parse_cypher(text)
    graph = store.graph
    pattern_reports = []
    for pattern, witness in zip(query.patterns, witness_positions(query)):
        first_witness = min(witness, default=len(pattern.rels))
        nodes = []
        for node_pattern in pattern.nodes:
            if node_pattern.properties:
                prop, value = node_pattern.properties[0]
                source = f"property-index({prop}={value})"
                estimate = len(store.nodes_with_property(prop, value))
            elif node_pattern.label is not None:
                source = f"label-index(:{node_pattern.label})"
                estimate = len(store.nodes_with_label(node_pattern.label))
            else:
                source = "full-scan"
                estimate = graph.node_count()
            nodes.append({
                "var": node_pattern.var if node_pattern.var else "(anon)",
                "candidate_source": source,
                "estimated_candidates": estimate,
            })
        rels = []
        for position, rel in enumerate(pattern.rels):
            expansion = (f"bfs({rel.min_hops}..{rel.max_hops})"
                         if rel.variable_length else "adjacency")
            if position >= first_witness:
                expansion = f"witness({expansion})"
            rels.append({
                "var": rel.var if rel.var else "(anon)",
                "label": rel.label if rel.label is not None else "(any)",
                "direction": rel.direction,
                "expansion": expansion,
            })
        pattern_reports.append({"nodes": nodes, "rels": rels})
    details = {
        "nodes": graph.node_count(),
        "edges": graph.edge_count(),
        "patterns": pattern_reports,
        "where": query.where is not None,
        "distinct": query.distinct,
        "limit": query.limit if query.limit is not None else "(none)",
    }
    engine_section = _engine_section(engine, graph)
    if engine_section.get("chosen") == "vector" and not query.distinct:
        # Mirror the evaluator: the set-semantics expansion would collapse
        # walk multiplicities a non-DISTINCT answer must keep.
        engine_section["chosen"] = "scalar"
        engine_section["reason"] = ("vector demoted: non-DISTINCT query "
                                    "returns walk multiplicities")
    details["engine"] = engine_section
    from repro.cache import cypher_footprint
    from repro.storage.backend import backend_note

    details["cache"] = _cache_section("cypher", cypher_footprint(query), store)
    details["backend"] = backend_note(store)
    details["view"] = _view_section(("cypher", text), store, view, as_of)
    return ExplainReport(
        "cypher", text,
        "backtracking pattern match over label/property indexes",
        details)
