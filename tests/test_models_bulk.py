"""The one-pass bulk builders against a per-element ``add_*`` reference.

``MultiGraph.from_edges``, ``LabeledGraph.build``/``PropertyGraph.build``
and the labeled/property decoders of :mod:`repro.models.io` fill the
indexes directly instead of going through the logged mutation methods.
The oracle here is the construction they replace: one ``add_node``/
``add_edge`` call per row, and for documents the per-element decode with
one error context per element.  Bulk and reference must agree on every
per-instance container, in iteration order (found through ``vars()``, so
an index added later is covered without touching this file), on which
element a malformed document fails at, and on behaviour under later
mutation.  Only the history differs: a bulk build is at version 0 with an
empty mutation log.
"""

from __future__ import annotations

import copy
import json
import random

import pytest

from repro.errors import GraphDecodeError, GraphError
from repro.models.io import loads
from repro.models.labeled import LabeledGraph
from repro.models.multigraph import MultiGraph
from repro.models.property import PropertyGraph
from tests.test_label_index import (
    EDGE_LABELS,
    NODE_LABELS,
    _random_mutation,
    check_incidence_invariants,
    check_label_index_invariants,
)

MODELS = {"labeled": LabeledGraph, "property": PropertyGraph}

#: Node ids, with ints beside their string forms (``1`` and ``"1"`` are
#: different nodes that tie under ``str``).
NODE_IDS = ("a", "b", "c", "d", 0, 1, "1", 2, "2")
#: Endpoint ids no node row names: edges create them implicitly.
IMPLICIT_IDS = ("x", "y", 7, "7")
EDGE_IDS = tuple(f"e{i}" for i in range(24)) + (0, 1, "1", 2, "2")


# -- documents ----------------------------------------------------------------

def _props(rng: random.Random) -> dict:
    return {name: rng.choice(["text", 3, 2.5, True, None, [1, "two"]])
            for name in rng.sample(("age", "name", "w"), rng.randint(0, 3))}


def _with_props(rng: random.Random, row: dict) -> dict:
    """Give a property row a map, an empty map, ``null``, or no key."""
    roll = rng.random()
    if roll < 0.6:
        row["properties"] = _props(rng)
    elif roll < 0.75:
        row["properties"] = None
    elif roll < 0.85:
        row["properties"] = {}
    return row


def _label_field(rng: random.Random, row: dict, label, nullable: bool = True):
    """Store ``label`` as given, as ``null`` (keeps or defaults), or omit it
    when that decodes to the same label."""
    roll = rng.random()
    if nullable and roll < 0.2:
        row["label"] = None
    elif label == "" and roll < 0.4:
        pass
    else:
        row["label"] = label
    return row


def _first_row(nodes: list, node) -> int:
    return next(index for index, row in enumerate(nodes)
                if type(row["id"]) is type(node) and row["id"] == node)


def random_document(rng: random.Random, model: str) -> dict:
    """A valid labeled/property document exercising every merge rule."""
    ids = rng.sample(NODE_IDS, rng.randint(1, len(NODE_IDS)))
    labels = {}
    nodes = []
    for node in ids:
        labels[node] = rng.choice(NODE_LABELS + ("",))
        row = _label_field(rng, {"id": node}, labels[node], nullable=False)
        nodes.append(_with_props(rng, row) if model == "property" else row)
    # Repeated rows merge into the first: same label or null, new props.
    for _ in range(rng.randint(0, 4)):
        node = rng.choice(ids)
        row = _label_field(rng, {"id": node}, labels[node])
        if model == "property":
            _with_props(rng, row)
        nodes.insert(rng.randint(_first_row(nodes, node) + 1, len(nodes)),
                     row)
    endpoints = ids + rng.sample(IMPLICIT_IDS, rng.randint(0, 2))
    edges = []
    for edge in rng.sample(EDGE_IDS, rng.randint(0, 16)):
        roll = rng.random()
        if edges and roll < 0.25:  # parallel to an earlier edge
            twin = rng.choice(edges)
            source, target = twin["source"], twin["target"]
            label = twin.get("label", "")
        else:
            source = rng.choice(endpoints)
            target = source if roll < 0.4 else rng.choice(endpoints)
            label = rng.choice(EDGE_LABELS)
        row = _label_field(rng, {"id": edge, "source": source,
                                 "target": target}, label)
        edges.append(_with_props(rng, row) if model == "property" else row)
    return {"model": model, "nodes": nodes, "edges": edges}


def _node_args(model: str, row: dict) -> tuple:
    if model == "property":
        return row["id"], row.get("label", ""), row.get("properties", {})
    return row["id"], row.get("label", "")


def _edge_args(model: str, row: dict) -> tuple:
    args = (row["id"], row["source"], row["target"], row.get("label", ""))
    if model == "property":
        return args + (row.get("properties", {}),)
    return args


# -- the per-element reference ------------------------------------------------

def _raise_decode(error: Exception, field: str):
    if isinstance(error, KeyError):
        raise GraphDecodeError(f"missing key {error.args[0]!r}",
                               field=field) from error
    raise GraphDecodeError(str(error), field=field) from error


def reference_build(model: str, node_rows, edge_rows):
    graph = MODELS[model]()
    for row in node_rows:
        graph.add_node(*row)
    for row in edge_rows:
        graph.add_edge(*row)
    return graph


def reference_decode(document: dict):
    """One ``add_node``/``add_edge`` per element, each under its own
    error context naming the element."""
    model = document["model"]
    graph = MODELS[model]()
    failures = (KeyError, TypeError, ValueError, AttributeError, GraphError)
    for key, add, shape in (("nodes", graph.add_node, _node_args),
                            ("edges", graph.add_edge, _edge_args)):
        try:
            items = document[key]
            if not isinstance(items, list):
                raise TypeError(f"{key!r} must be a list")
        except failures as error:
            _raise_decode(error, key)
        for index, item in enumerate(items):
            try:
                add(*shape(model, item))
            except failures as error:
                _raise_decode(error, f"{key}[{index}]")
    return graph


# -- exact comparison ---------------------------------------------------------

def exact(value):
    """``value`` as nested lists that keep iteration order and types, so
    ``1``/``"1"`` and differently ordered dicts or sets compare unequal."""
    if isinstance(value, dict):
        return ["dict", [(exact(key), exact(item))
                         for key, item in value.items()]]
    if isinstance(value, (set, frozenset)):
        return ["set", [exact(item) for item in value]]
    if isinstance(value, (tuple, list)):
        return [type(value).__name__, [exact(item) for item in value]]
    return [type(value).__name__, value]


def assert_same_state(built, reference) -> None:
    """Every per-instance container but the mutation log matches exactly."""
    state, expected = vars(built), vars(reference)
    assert state.keys() == expected.keys()
    assert "_out" in expected  # non-vacuous: the indexes are instance state
    for name in expected:
        if name != "mutation_log":
            assert exact(state[name]) == exact(expected[name]), name


def assert_fresh(graph) -> None:
    assert graph.version == 0
    assert len(graph.mutation_log) == 0
    assert graph.mutation_log.horizon == 0


def assert_mutates_alike(built, reference, seed: int) -> None:
    """The same seeded mutations keep both graphs identical and indexed."""
    for graph in (built, reference):
        check_label_index_invariants(graph)
        check_incidence_invariants(graph)
    for graph in (built, reference):
        rng, counter = random.Random(seed), [0]
        for _ in range(25):
            _random_mutation(rng, graph, counter)
        check_label_index_invariants(graph)
        check_incidence_invariants(graph)
    assert_same_state(built, reference)


SEEDS = range(40)


class TestBuildMatchesReference:
    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_build(self, model, seed):
        document = random_document(random.Random(seed), model)
        node_rows = [_node_args(model, row) for row in document["nodes"]]
        edge_rows = [_edge_args(model, row) for row in document["edges"]]
        built = MODELS[model].build(iter(node_rows), iter(edge_rows))
        reference = reference_build(model, node_rows, edge_rows)
        assert built == reference
        assert_same_state(built, reference)
        assert_fresh(built)
        assert_mutates_alike(built, reference, seed)

    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_loads(self, model, seed):
        document = random_document(random.Random(1000 + seed), model)
        loaded = loads(json.dumps(document))
        reference = reference_decode(json.loads(json.dumps(document)))
        assert type(loaded) is MODELS[model]
        assert loaded == reference
        assert_same_state(loaded, reference)
        assert_fresh(loaded)
        assert_mutates_alike(loaded, reference, seed)

    @pytest.mark.parametrize("cls", [MultiGraph, LabeledGraph, PropertyGraph])
    @pytest.mark.parametrize("seed", range(10))
    def test_from_edges(self, cls, seed):
        document = random_document(random.Random(2000 + seed), "labeled")
        triples = [(row["id"], row["source"], row["target"])
                   for row in document["edges"]]
        built = cls.from_edges(iter(triples))
        reference = cls()
        for triple in triples:
            reference.add_edge(*triple)
        assert built == reference
        assert_same_state(built, reference)
        assert_fresh(built)

    def test_documents_cover_every_merge_rule(self):
        """Non-vacuity: the seeds above really hit each case."""
        seen = set()
        for seed in SEEDS:
            for model in MODELS:
                document = random_document(random.Random(1000 + seed), model)
                named = {(type(row["id"]), row["id"])
                         for row in document["nodes"]}
                ids = [(type(row["id"]), row["id"])
                       for row in document["nodes"]]
                if len(ids) > len(named):
                    seen.add("repeated node row")
                if any("label" in row and row["label"] is None
                       for row in document["nodes"]):
                    seen.add("null node label")
                if any(isinstance(node, int) and (str, str(node)) in named
                       for _, node in named):
                    seen.add("mixed-type ids")
                pairs = [(row["source"], row["target"], row.get("label"))
                         for row in document["edges"]]
                if len(set(map(repr, pairs))) < len(pairs):
                    seen.add("parallel edges")
                for row in document["edges"]:
                    if row["source"] == row["target"]:
                        seen.add("self-loop")
                    for end in (row["source"], row["target"]):
                        if (type(end), end) not in named:
                            seen.add("implicit endpoint")
                if model == "property" and any(
                        row.get("properties") for row in document["nodes"]
                        if ids.count((type(row["id"]), row["id"])) > 1):
                    seen.add("repeated row with properties")
        assert seen == {"repeated node row", "null node label",
                        "mixed-type ids", "parallel edges", "self-loop",
                        "implicit endpoint", "repeated row with properties"}


# -- malformed documents ------------------------------------------------------

def _corrupt(rng: random.Random, document: dict) -> dict:
    """One or two defects at random places; the first in document order
    decides the failing element."""
    document = copy.deepcopy(document)
    for _ in range(rng.randint(1, 2)):
        nodes, edges = document["nodes"], document.get("edges")
        node_rows = [index for index, row in enumerate(nodes)
                     if isinstance(row, dict) and "id" in row] \
            if isinstance(nodes, list) else []
        edge_rows = [index for index, row in enumerate(edges)
                     if isinstance(row, dict)] \
            if isinstance(edges, list) else []
        kind = rng.choice(
            ["missing id", "not an object", "unhashable id",
             "unhashable label", "label conflict", "property pairs",
             "property string", "missing source", "duplicate edge",
             "unhashable target", "edge property pairs",
             "edge property string", "nodes not a list", "edges missing",
             "edges not a list"])
        if kind in ("missing source", "duplicate edge", "unhashable target",
                    "edge property pairs", "edge property string"):
            if not edge_rows:
                continue
            index = rng.choice(edge_rows)
            row = edges[index]
            if kind == "missing source":
                del row["source"]
            elif kind == "duplicate edge":
                edges.insert(rng.randint(index + 1, len(edges)), dict(row))
            elif kind == "unhashable target":
                row["target"] = {"x": 1}
            elif kind == "edge property pairs":
                row["properties"] = [["k", 1]]
            else:
                row["properties"] = "ab"
        elif kind == "nodes not a list":
            document["nodes"] = {"a": 1}
        elif kind == "edges missing":
            document.pop("edges", None)
        elif kind == "edges not a list":
            document["edges"] = "x"
        elif node_rows:
            index = rng.choice(node_rows)
            row = nodes[index]
            if kind == "missing id":
                del row["id"]
            elif kind == "not an object":
                nodes[index] = rng.choice(["n", 3, [1, 2], None])
            elif kind == "unhashable id":
                row["id"] = [1, 2]
            elif kind == "unhashable label":
                row["label"] = {"k": 1}
            elif kind == "label conflict":
                nodes.insert(rng.randint(index + 1, len(nodes)),
                             {"id": row["id"], "label": "conflict"})
            elif kind == "property pairs":
                row["properties"] = [["k", 1]]
            else:
                row["properties"] = "ab"
    return document


class TestMalformedDocuments:
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_failures_name_the_reference_element(self, model):
        failed = 0
        cases = 150
        for seed in range(cases):
            rng = random.Random(3000 + seed)
            document = _corrupt(rng, random_document(rng, model))
            text = json.dumps(document)
            try:
                reference = reference_decode(json.loads(text))
            except GraphDecodeError as expected:
                failed += 1
                with pytest.raises(GraphDecodeError) as raised:
                    loads(text)
                assert raised.value.field == expected.field, (seed, text)
            else:
                loaded = loads(text)
                assert loaded == reference, (seed, text)
                assert_same_state(loaded, reference)
        # Non-vacuity: most corruptions (all but ignored labeled-model
        # properties and no-op picks on empty lists) make a bad document.
        assert failed >= cases * 0.7, failed
