"""Transaction-time travel over the mutation log.

Transaction time is when the *database* learned something.  The mutation
log is exactly a transaction-time history, and since every record now
carries a payload naming the mutated object and its old state,
:func:`as_of` can reconstruct the graph at any retained version by
*inverse replay*: copy the current graph, then undo records newest-first.
This is O(changes since v), not O(history), and never touches the
original graph.

Inverse replay processes one logical mutation's record stack newest-first,
which makes the *richest* layer's record (the one carrying labels and
properties) arrive before the base structural record; each undo rule is
therefore idempotent — it checks whether the object is already in the
restored state and skips if so.  A record that cannot be inverted (no
payload: pre-payload history) raises
:class:`~repro.errors.TimeTravelError` rather than guessing, as does a
version outside the log's bounded window.
"""

from __future__ import annotations

from repro.cache.versioning import ABSENT, MutationRecord
from repro.errors import TimeTravelError

_REMOVED_EDGE_KINDS = frozenset({
    "remove_edge", "remove_edge.label", "remove_edge.props",
    "remove_edge.features"})
_ADDED_EDGE_KINDS = frozenset({
    "add_edge", "add_edge.label", "add_edge.props", "add_edge.features"})
_REMOVED_NODE_KINDS = frozenset({
    "remove_node", "remove_node.label", "remove_node.props",
    "remove_node.features"})
_ADDED_NODE_KINDS = frozenset({"add_node", "add_node.label",
                               "add_node.features"})


def as_of(target, version: int):
    """The graph/store as it stood at mutation-log ``version``.

    Returns a fresh object of the same type (the original is untouched),
    tagged with an ``as_of_version`` attribute so downstream consumers —
    EXPLAIN, the CLI — can surface which version a result was computed at.
    Raises :class:`~repro.errors.TimeTravelError` for a future version, a
    version the bounded log no longer reaches, or an uninvertible record.
    """
    # A property-graph store wraps a live graph and delegates its log to
    # it; travel the graph and re-wrap so the store's indexes rebuild
    # against the reconstructed state.
    graph_attr = getattr(target, "graph", None)
    if graph_attr is not None and hasattr(target, "nodes_with_property"):
        snapshot = type(target)(as_of(graph_attr, version))
        snapshot.as_of_version = version
        return snapshot
    log = getattr(target, "mutation_log", None)
    if log is None:
        raise TimeTravelError(
            f"{type(target).__name__} keeps no mutation log; "
            "time travel needs a versioned in-memory graph or store")
    if version < 0:
        raise TimeTravelError(f"version must be >= 0, got {version}")
    if version > log.version:
        raise TimeTravelError(
            f"AS OF {version} is in the future (current version is "
            f"{log.version})")
    records = log.records_since(version)
    if records is None:
        raise TimeTravelError(
            f"AS OF {version} is beyond the log's retained window "
            f"(horizon {log.horizon}); widen REPRO_LOG_HORIZON or "
            "snapshot earlier")
    snapshot = _fresh_copy(target)
    for record in reversed(records):
        _apply_inverse(snapshot, record)
    snapshot.as_of_version = version
    return snapshot


def _fresh_copy(target):
    copy = getattr(target, "copy", None)
    if copy is not None:
        return copy()
    # RDFGraph / TripleStore: rebuild from the triple set.
    triples = getattr(target, "triples", None)
    if triples is not None:
        return type(target)(list(triples()))
    raise TimeTravelError(
        f"cannot snapshot a {type(target).__name__} for time travel")


def _require_payload(record: MutationRecord) -> tuple:
    if not record.payload:
        raise TimeTravelError(
            f"record {record.kind!r} at version {record.version} carries "
            "no payload (pre-payload history cannot be inverted)")
    return record.payload


def _apply_inverse(target, record: MutationRecord) -> None:
    """Undo one record on ``target`` (idempotent per logical mutation)."""
    kind = record.kind
    if kind in ("add_triple", "discard_triple", "remove_triple"):
        subject, predicate, obj = _require_payload(record)
        if kind == "add_triple":
            remove = getattr(target, "discard", None) or target.remove
            remove(subject, predicate, obj)
        else:
            target.add(subject, predicate, obj)
        return
    payload = _require_payload(record)
    if kind in _ADDED_EDGE_KINDS:
        if target.has_edge(payload[0]):
            target.remove_edge(payload[0])
    elif kind in _REMOVED_EDGE_KINDS:
        edge = payload[0]
        if not target.has_edge(edge):
            if kind == "remove_edge":
                _, source, node = payload
                target.add_edge(edge, source, node)
            elif kind == "remove_edge.label":
                _, source, node, label = payload
                target.add_edge(edge, source, node, label)
            elif kind == "remove_edge.props":
                _, source, node, label, props = payload
                target.add_edge(edge, source, node, label, dict(props))
            else:  # remove_edge.features
                _, source, node, vector = payload
                target.add_edge(edge, source, node, vector)
    elif kind == "add_node.props":
        node, pairs, origin = payload
        if origin == "fresh":
            if target.has_node(node):
                target.remove_node(node)
        else:  # in-place property update on an existing node
            for prop, old, _new in pairs:
                if old is ABSENT:
                    target.delete_node_property(node, prop)
                else:
                    target.set_node_property(node, prop, old)
    elif kind in _ADDED_NODE_KINDS:
        if target.has_node(payload[0]):
            target.remove_node(payload[0])
    elif kind in _REMOVED_NODE_KINDS:
        node = payload[0]
        if not target.has_node(node):
            if kind == "remove_node":
                target.add_node(node)
            elif kind == "remove_node.label":
                target.add_node(node, payload[1])
            elif kind == "remove_node.props":
                _, label, props = payload
                target.add_node(node, label, dict(props))
            else:  # remove_node.features
                target.add_node(node, payload[1])
    elif kind == "set_node_label":
        node, old, _new = payload
        target.set_node_label(node, old)
    elif kind == "set_edge_label":
        edge, old, _new = payload
        target.set_edge_label(edge, old)
    elif kind == "set_node_property":
        node, prop, old, _new = payload
        if old is ABSENT:
            target.delete_node_property(node, prop)
        else:
            target.set_node_property(node, prop, old)
    elif kind == "set_edge_property":
        edge, prop, old, _new = payload
        if old is ABSENT:
            target.delete_edge_property(edge, prop)
        else:
            target.set_edge_property(edge, prop, old)
    elif kind == "del_node_property":
        node, prop, old = payload
        target.set_node_property(node, prop, old)
    elif kind == "del_edge_property":
        edge, prop, old = payload
        target.set_edge_property(edge, prop, old)
    elif kind == "set_node_vector":
        node, old, _new = payload
        target.set_node_vector(node, old)
    elif kind == "set_edge_vector":
        edge, old, _new = payload
        target.set_edge_vector(edge, old)
    else:
        raise TimeTravelError(
            f"record kind {record.kind!r} at version {record.version} "
            "has no inverse rule")
