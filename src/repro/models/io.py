"""JSON (de)serialization for the graph data models.

A small, stable interchange format so examples and benchmarks can persist
generated workloads.  Only property graphs and vector graphs need their own
shapes; labeled graphs ride on the property-graph format with empty
property maps.

The format serializes graph *content* only: the version counter and
mutation log (:mod:`repro.cache.versioning`) are deliberately excluded.
They describe one in-process object's history, not the graph, so a loaded
graph always starts at version 0 with an empty log — ``loads(dumps(g))
== g`` compares structure and data, never histories.

Labeled and property documents decode through the models' one-pass
``build`` (:meth:`~repro.models.labeled.LabeledGraph.build`), which fills
the indexes directly instead of logging one record per inserted element.
That is also the snapshot half of storage recovery
(:mod:`repro.storage.durable`), which fast-forwards the loaded graph to
the snapshot's version before replaying the WAL tail.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any

from repro.errors import ConversionError, GraphDecodeError, GraphError
from repro.models.labeled import LabeledGraph
from repro.models.property import PropertyGraph
from repro.models.vector import VectorGraph, VectorSchema
from repro.util import canonical_sort_key


#: What a malformed document raises somewhere inside graph construction:
#: a missing key, a list where a dict belongs, a bad scalar, or ids that
#: contradict each other (e.g. a duplicate edge).
_DECODE_FAILURES = (KeyError, TypeError, ValueError, AttributeError,
                    GraphError)


def _decode_error(error: Exception, field: str) -> GraphDecodeError:
    if isinstance(error, KeyError):
        return GraphDecodeError(f"missing key {error.args[0]!r}", field=field)
    return GraphDecodeError(str(error), field=field)


@contextmanager
def _decoding(field: str):
    """Convert raw decode-time failures into :class:`GraphDecodeError`.

    Callers — WAL/snapshot recovery above all — need to tell *corrupt
    input* apart from library bugs, so every :data:`_DECODE_FAILURES`
    escape is re-raised as a typed error carrying the document
    coordinate it happened at.
    """
    try:
        yield
    except GraphDecodeError:
        raise
    except _DECODE_FAILURES as error:
        raise _decode_error(error, field) from error


def _items(data: dict[str, Any], key: str, field: str) -> list:
    with _decoding(field):
        items = data[key]
        if not isinstance(items, list):
            raise TypeError(f"{key!r} must be a list, "
                            f"got {type(items).__name__}")
    return items


def property_graph_to_dict(graph: PropertyGraph) -> dict[str, Any]:
    """Plain-dict form: {"nodes": [...], "edges": [...]}, sorted for stability."""
    nodes = [
        {"id": node, "label": graph.node_label(node),
         "properties": graph.node_properties(node)}
        for node in sorted(graph.nodes(), key=canonical_sort_key)
    ]
    edges = []
    for edge in sorted(graph.edges(), key=canonical_sort_key):
        source, target = graph.endpoints(edge)
        edges.append({"id": edge, "source": source, "target": target,
                      "label": graph.edge_label(edge),
                      "properties": graph.edge_properties(edge)})
    return {"model": "property", "nodes": nodes, "edges": edges}


def property_graph_from_dict(data: dict[str, Any]) -> PropertyGraph:
    if data.get("model") != "property":
        raise ConversionError(f"not a property-graph document: {data.get('model')!r}")
    return _build_rows(PropertyGraph.build, data, _property_node_row,
                       _property_edge_row)


def _property_node_row(node: dict) -> tuple:
    return node["id"], node.get("label", ""), node.get("properties", {})


def _property_edge_row(edge: dict) -> tuple:
    return (edge["id"], edge["source"], edge["target"],
            edge.get("label", ""), edge.get("properties", {}))


def _build_rows(build, data: dict[str, Any], node_row, edge_row):
    """``build(node rows, edge rows)`` over the document's element lists.

    ``build`` takes the rows one at a time, so the position of the row
    being read is also the position of a row ``build`` rejects: one
    handler around the whole build names the failing element
    (``nodes[3]``).  The ``edges`` list is only looked up once every node
    row is in, as a per-element decode would.
    """
    position = ["nodes", 0]

    def rows(key: str, shape):
        items = _items(data, key, key)
        position[0] = key
        for index, item in enumerate(items):
            position[1] = index
            yield shape(item)

    try:
        return build(rows("nodes", node_row), rows("edges", edge_row))
    except GraphDecodeError:
        raise
    except _DECODE_FAILURES as error:
        raise _decode_error(error, f"{position[0]}[{position[1]}]") from error


def labeled_graph_to_dict(graph: LabeledGraph) -> dict[str, Any]:
    from repro.models.convert import labeled_to_property

    document = property_graph_to_dict(labeled_to_property(graph))
    document["model"] = "labeled"
    return document


def labeled_graph_from_dict(data: dict[str, Any]) -> LabeledGraph:
    if data.get("model") != "labeled":
        raise ConversionError(f"not a labeled-graph document: {data.get('model')!r}")
    return _build_rows(LabeledGraph.build, data, _labeled_node_row,
                       _labeled_edge_row)


def _labeled_node_row(node: dict) -> tuple:
    return node["id"], node.get("label", "")


def _labeled_edge_row(edge: dict) -> tuple:
    return edge["id"], edge["source"], edge["target"], edge.get("label", "")


def vector_graph_to_dict(graph: VectorGraph) -> dict[str, Any]:
    nodes = [{"id": node, "vector": list(graph.node_vector(node))}
             for node in sorted(graph.nodes(), key=canonical_sort_key)]
    edges = []
    for edge in sorted(graph.edges(), key=canonical_sort_key):
        source, target = graph.endpoints(edge)
        edges.append({"id": edge, "source": source, "target": target,
                      "vector": list(graph.edge_vector(edge))})
    schema = list(graph.schema.feature_names) if graph.schema else None
    return {"model": "vector", "dimension": graph.dimension, "schema": schema,
            "nodes": nodes, "edges": edges}


def vector_graph_from_dict(data: dict[str, Any]) -> VectorGraph:
    if data.get("model") != "vector":
        raise ConversionError(f"not a vector-graph document: {data.get('model')!r}")
    with _decoding("dimension"):
        schema = VectorSchema(tuple(data["schema"])) if data.get("schema") else None
        graph = VectorGraph(data["dimension"], schema)
    for index, node in enumerate(_items(data, "nodes", "nodes")):
        with _decoding(f"nodes[{index}]"):
            graph.add_node(node["id"], node["vector"])
    for index, edge in enumerate(_items(data, "edges", "edges")):
        with _decoding(f"edges[{index}]"):
            graph.add_edge(edge["id"], edge["source"], edge["target"],
                           edge["vector"])
    return graph


def dumps(graph: LabeledGraph | PropertyGraph | VectorGraph, indent: int = 0) -> str:
    """Serialize any supported model to a JSON string."""
    if isinstance(graph, VectorGraph):
        document = vector_graph_to_dict(graph)
    elif isinstance(graph, PropertyGraph):
        document = property_graph_to_dict(graph)
    elif isinstance(graph, LabeledGraph):
        document = labeled_graph_to_dict(graph)
    else:
        raise ConversionError(f"unsupported graph type: {type(graph).__name__}")
    return json.dumps(document, indent=indent or None, sort_keys=True)


def loads(text: str) -> LabeledGraph | PropertyGraph | VectorGraph:
    """Deserialize a JSON string produced by :func:`dumps`.

    Malformed input — invalid JSON, a non-object document, missing or
    ill-typed fields — raises :class:`GraphDecodeError` (a
    :class:`ConversionError`) carrying line/field context, never a raw
    ``KeyError``/``ValueError``.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise GraphDecodeError(f"invalid JSON: {error.msg}",
                               line=error.lineno,
                               column=error.colno) from error
    if not isinstance(data, dict):
        raise GraphDecodeError(
            f"graph document must be a JSON object, "
            f"got {type(data).__name__}", field="$")
    model = data.get("model")
    if model == "vector":
        return vector_graph_from_dict(data)
    if model == "property":
        return property_graph_from_dict(data)
    if model == "labeled":
        return labeled_graph_from_dict(data)
    raise GraphDecodeError(f"unknown model tag: {model!r}", field="model")
