"""Property graphs: (N, E, rho, lambda, sigma).

Extends labeled graphs with a partial function sigma mapping (object,
property-name) pairs to values, where an object is a node or an edge.  Each
object has values for finitely many properties.  This is the model of Neo4j
/ Cypher-style graph databases and of Figure 2(b) in the paper.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.cache.versioning import ABSENT
from repro.models.labeled import LabeledGraph
from repro.models.multigraph import Const, MultiGraph


class PropertyGraph(LabeledGraph):
    """A labeled graph whose nodes and edges carry property/value maps."""

    def __init__(self) -> None:
        super().__init__()
        self._node_props: dict[Const, dict[Const, Const]] = {}
        self._edge_props: dict[Const, dict[Const, Const]] = {}

    # -- construction ------------------------------------------------------

    def add_node(self, node: Const, label: Const | None = None,
                 properties: Mapping[Const, Const] | None = None) -> Const:
        fresh = node not in self._node_props
        super().add_node(node, label)
        store = self._node_props.setdefault(node, {})
        if properties:
            # Re-adding an existing node with properties is an in-place
            # update; the payload then carries per-property old values so
            # the write can be inverted, where a fresh node's payload only
            # needs the values themselves (inversion deletes the node).
            if fresh:
                detail = (node, tuple(properties.items()), "fresh")
            else:
                detail = (node, tuple((prop, store.get(prop, ABSENT), value)
                                      for prop, value in properties.items()),
                          "update")
            store.update(properties)
            self.mutation_log.record("add_node.props",
                                     properties=tuple(properties),
                                     payload=detail)
        return node

    def add_edge(self, edge: Const, source: Const, target: Const,
                 label: Const | None = None,
                 properties: Mapping[Const, Const] | None = None) -> Const:
        super().add_edge(edge, source, target, label)
        self._edge_props[edge] = dict(properties) if properties else {}
        if properties:
            self.mutation_log.record("add_edge.props",
                                     properties=tuple(properties),
                                     payload=(edge, source, target,
                                              tuple(properties.items())))
        return edge

    def remove_edge(self, edge: Const) -> None:
        source, target = self.endpoints(edge)
        label = self.edge_label(edge)
        props = self._edge_props[edge] if edge in self._edge_props else {}
        super().remove_edge(edge)
        del self._edge_props[edge]
        if props:
            self.mutation_log.record("remove_edge.props",
                                     properties=tuple(props),
                                     payload=(edge, source, target, label,
                                              tuple(props.items())))

    def remove_node(self, node: Const) -> None:
        label = self.node_label(node)
        props = self._node_props.get(node, {})
        super().remove_node(node)
        del self._node_props[node]
        if props:
            self.mutation_log.record("remove_node.props",
                                     properties=tuple(props),
                                     payload=(node, label,
                                              tuple(props.items())))

    # -- sigma -------------------------------------------------------------

    def set_node_property(self, node: Const, prop: Const, value: Const) -> None:
        self._require_node(node)
        store = self._node_props[node]
        if prop in store and store[prop] == value:
            return
        old = store.get(prop, ABSENT)
        store[prop] = value
        self.mutation_log.record("set_node_property", properties=(prop,),
                                 payload=(node, prop, old, value))

    def set_edge_property(self, edge: Const, prop: Const, value: Const) -> None:
        self.endpoints(edge)
        store = self._edge_props[edge]
        if prop in store and store[prop] == value:
            return
        old = store.get(prop, ABSENT)
        store[prop] = value
        self.mutation_log.record("set_edge_property", properties=(prop,),
                                 payload=(edge, prop, old, value))

    def delete_node_property(self, node: Const, prop: Const) -> None:
        """Make sigma(node, prop) undefined again; a missing prop is a no-op."""
        self._require_node(node)
        store = self._node_props[node]
        if prop not in store:
            return
        old = store.pop(prop)
        self.mutation_log.record("del_node_property", properties=(prop,),
                                 payload=(node, prop, old))

    def delete_edge_property(self, edge: Const, prop: Const) -> None:
        """Make sigma(edge, prop) undefined again; a missing prop is a no-op."""
        self.endpoints(edge)
        store = self._edge_props[edge]
        if prop not in store:
            return
        old = store.pop(prop)
        self.mutation_log.record("del_edge_property", properties=(prop,),
                                 payload=(edge, prop, old))

    def node_property(self, node: Const, prop: Const) -> Const | None:
        """sigma(node, prop), or None where sigma is undefined."""
        self._require_node(node)
        return self._node_props[node].get(prop)

    def edge_property(self, edge: Const, prop: Const) -> Const | None:
        """sigma(edge, prop), or None where sigma is undefined."""
        self.endpoints(edge)
        return self._edge_props[edge].get(prop)

    def node_properties(self, node: Const) -> dict[Const, Const]:
        self._require_node(node)
        return dict(self._node_props[node])

    def edge_properties(self, edge: Const) -> dict[Const, Const]:
        self.endpoints(edge)
        return dict(self._edge_props[edge])

    def property_names(self) -> set[Const]:
        """Every property name used anywhere in the graph (the sigma domain)."""
        names: set[Const] = set()
        for props in self._node_props.values():
            names.update(props)
        for props in self._edge_props.values():
            names.update(props)
        return names

    # -- equality ----------------------------------------------------------

    def _eq_signature(self) -> tuple:
        return super()._eq_signature() + (self._node_props, self._edge_props)

    # -- derived graphs ----------------------------------------------------

    def _copy_structure_from(self, other: MultiGraph) -> None:
        if not isinstance(other, PropertyGraph):
            super()._copy_structure_from(other)
            return
        for node in other.nodes():
            self.add_node(node, other.node_label(node), other.node_properties(node))
        for edge in other.edges():
            source, target = other.endpoints(edge)
            self.add_edge(edge, source, target, other.edge_label(edge),
                          other.edge_properties(edge))

    # -- bulk loading ------------------------------------------------------
    #
    # ``build`` is inherited: rows are (node, label[, props]) and
    # (edge, src, dst, label[, props]).  Properties are read through
    # ``.items()`` as ``add_node``/``add_edge`` read them, so a bulk build
    # refuses what they refuse (a list of pairs, which ``dict`` accepts).

    def _load_node(self, node: Const, label: Const | None = None,
                   properties: Mapping[Const, Const] | None = None) -> None:
        super()._load_node(node, label)
        store = self._node_props.setdefault(node, {})
        if properties:
            store.update(properties.items())

    def _load_edge(self, edge: Const, source: Const, target: Const,
                   label: Const | None = None,
                   properties: Mapping[Const, Const] | None = None) -> None:
        super()._load_edge(edge, source, target, label)
        self._edge_props[edge] = dict(properties.items()) if properties else {}
