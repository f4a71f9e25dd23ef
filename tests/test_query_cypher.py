"""Mini-Cypher engine tests over the Figure 2 property graph."""

import pytest

from repro.errors import QueryEvaluationError, QuerySyntaxError
from repro.query import run_cypher
from repro.storage import PropertyGraphStore


@pytest.fixture
def store(fig2_property) -> PropertyGraphStore:
    return PropertyGraphStore(fig2_property)


class TestMatch:
    def test_label_scan(self, store):
        result = run_cypher(store, "MATCH (p:person) RETURN p")
        assert result.rows == [("n1",), ("n4",), ("n7",)]

    def test_property_map(self, store):
        result = run_cypher(store, 'MATCH (p:person {name: "Julia"}) RETURN p')
        assert result.rows == [("n1",)]

    def test_directed_hop(self, store):
        result = run_cypher(store,
                            "MATCH (p:person)-[:rides]->(b:bus) RETURN p, b")
        assert set(result.rows) == {("n1", "n3"), ("n7", "n3")}

    def test_incoming_hop(self, store):
        result = run_cypher(store, "MATCH (b:bus)<-[:owns]-(c) RETURN c")
        assert result.rows == [("n6",)]

    def test_undirected_hop(self, store):
        result = run_cypher(store,
                            'MATCH (a {name: "Julia"})-[:contact]-(x) RETURN x')
        assert set(result.rows) == {("n2",), ("n4",)}

    def test_chained_pattern(self, store):
        result = run_cypher(store, """
            MATCH (a:person)-[:rides]->(b:bus)<-[:rides]-(c:infected)
            RETURN a, c""")
        assert set(result.rows) == {("n1", "n2"), ("n7", "n2")}

    def test_comma_separated_patterns_join(self, store):
        result = run_cypher(store, """
            MATCH (a:person)-[:lives]->(h), (b:person)-[:lives]->(h)
            WHERE a <> b RETURN a, b""")
        assert set(result.rows) == {("n1", "n4"), ("n4", "n1")}

    def test_shared_variable_must_agree(self, store):
        result = run_cypher(store,
                            "MATCH (a)-[:contact]->(a) RETURN a")
        assert result.rows == []


class TestVariableLength:
    def test_bounded_range(self, store):
        result = run_cypher(store, """
            MATCH (a {name: "Ana"})-[:contact*1..2]->(x) RETURN DISTINCT x""")
        assert set(result.rows) == {("n1",), ("n2",)}

    def test_exact_count(self, store):
        result = run_cypher(store, """
            MATCH (a {name: "Ana"})-[:contact*2]->(x) RETURN x""")
        assert result.rows == [("n2",)]

    def test_rel_variable_binds_edge_list(self, store):
        result = run_cypher(store, """
            MATCH (a {name: "Ana"})-[e:contact*2]->(x) RETURN e""")
        assert result.rows == [(("e7", "e3"),)]

    def test_repeated_edge_list_variable_matches_the_same_list(self, store):
        # The second occurrence of ``e`` is a check, not a fresh binding:
        # only the one 2-hop walk the first pattern bound qualifies.
        result = run_cypher(store, """
            MATCH (a {name: "Ana"})-[e:contact*2]->(x), (y)-[e*2]->(z)
            RETURN y, z, e""")
        assert result.rows == [("n4", "n2", ("e7", "e3"))]
        # Back to back, the same walk would have to start where it ends.
        result = run_cypher(store, """
            MATCH (a)-[e*1..2]->(b)-[e*1..2]->(c) RETURN a, e""")
        assert result.rows == []


class TestWhereAndReturn:
    def test_property_access_and_alias(self, store):
        result = run_cypher(store, """
            MATCH (p:person) WHERE p.age > 30 RETURN p.name AS name
            ORDER BY name""")
        assert result.columns == ("name",)
        assert result.rows == [("Juan",), ("Julia",)]

    def test_numeric_comparison(self, store):
        result = run_cypher(store,
                            "MATCH (p:person) WHERE p.age < 30 RETURN p.name")
        assert result.rows == [("Ana",)]

    def test_boolean_connectives(self, store):
        result = run_cypher(store, """
            MATCH (p) WHERE p.name = "Julia" OR p.name = "Pedro" AND p.age > 30
            RETURN p ORDER BY p""")
        assert set(result.rows) == {("n1",), ("n2",)}

    def test_not(self, store):
        result = run_cypher(store, """
            MATCH (p:person) WHERE NOT p.name = "Julia" RETURN p.name""")
        assert set(result.rows) == {("Ana",), ("Juan",)}

    def test_edge_property_in_where(self, store):
        result = run_cypher(store, """
            MATCH (a)-[c:contact]->(b) WHERE c.date = "3/4/21" RETURN a, b""")
        assert result.rows == [("n1", "n2")]

    def test_missing_property_is_null(self, store):
        result = run_cypher(store, "MATCH (b:bus) RETURN b.name")
        assert result.rows == [(None,)]

    def test_order_skip_limit_distinct(self, store):
        result = run_cypher(store, """
            MATCH (p:person) RETURN DISTINCT p ORDER BY p DESC SKIP 1 LIMIT 1""")
        assert result.rows == [("n4",)]


class TestErrors:
    @pytest.mark.parametrize("bad", [
        "MATCH (a) RETURN",
        "MATCH a RETURN a",
        "MATCH (a)-[>(b) RETURN a",
        "MATCH (a) WHERE RETURN a",
        "RETURN a",
        "MATCH (a) RETURN a extra",
    ])
    def test_syntax_rejected(self, store, bad):
        with pytest.raises(QuerySyntaxError):
            run_cypher(store, bad)

    @pytest.mark.parametrize("mixed", [
        "MATCH (a)-[e:contact]->(b)-[e*1..2]->(c) RETURN DISTINCT e",
        "MATCH (a)-[x:contact]->(b), (x) RETURN a",
        "MATCH (a)-[x:contact]->(b), (x:person) RETURN a",
    ])
    def test_variable_bound_to_two_kinds_rejected(self, store, mixed):
        with pytest.raises(QuerySyntaxError, match="bound to both"):
            run_cypher(store, mixed)

    def test_unbound_variable_in_return(self, store):
        with pytest.raises(QueryEvaluationError):
            run_cypher(store, "MATCH (a) RETURN b")

    def test_order_by_unreturned_key(self, store):
        with pytest.raises(QueryEvaluationError):
            run_cypher(store, "MATCH (a) RETURN a ORDER BY a.name")
