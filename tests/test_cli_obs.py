"""CLI observability flags: --explain / --explain-json / --trace[-out] /
--metrics-out on all three query frontends."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.models import figure2_labeled, figure2_property
from repro.models.io import dumps

PATHQL = "PATHS MATCHING ?person/contact LENGTH 1"
SPARQL = "SELECT ?x WHERE { ?x <rdf:type> <person> . }"
CYPHER = "MATCH (p:person) RETURN p.name"


@pytest.fixture
def fig2_file(tmp_path):
    path = tmp_path / "fig2.json"
    path.write_text(dumps(figure2_property(), indent=2))
    return str(path)


@pytest.fixture
def labeled_file(tmp_path):
    path = tmp_path / "labeled.json"
    path.write_text(dumps(figure2_labeled(), indent=2))
    return str(path)


FRONTENDS = [("pathql", PATHQL), ("sparql", SPARQL), ("cypher", CYPHER)]


class TestExplain:
    @pytest.mark.parametrize("command,query", FRONTENDS)
    def test_explain_prints_plan_and_skips_execution(self, command, query,
                                                     fig2_file, capsys):
        assert main([command, fig2_file, query, "--explain"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"EXPLAIN [{command}]")
        assert "strategy: " in out

    @pytest.mark.parametrize("command,query", FRONTENDS)
    def test_explain_json_is_machine_readable(self, command, query,
                                              fig2_file, capsys):
        assert main([command, fig2_file, query, "--explain-json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.obs.explain"
        assert payload["version"] == 2
        assert payload["frontend"] == command
        assert payload["query"] == query
        assert payload["details"]["cache"]["key_family"] == command

    def test_governed_pathql_explain_shows_ladder(self, fig2_file, capsys):
        assert main(["pathql", fig2_file, f"{PATHQL} COUNT",
                     "--max-steps", "5", "--explain-json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        rungs = [r["rung"] for r in payload["details"]["degradation_ladder"]]
        assert rungs == ["exact", "approx", "lower-bound"]


class TestTrace:
    @pytest.mark.parametrize("command,query", FRONTENDS)
    def test_trace_prints_span_tree_to_stderr(self, command, query,
                                              fig2_file, capsys):
        assert main([command, fig2_file, query, "--trace"]) == 0
        captured = capsys.readouterr()
        assert "parse" in captured.err and "evaluate" in captured.err
        assert "EXPLAIN" not in captured.out  # the query actually ran

    @pytest.mark.parametrize("command,query", FRONTENDS)
    def test_trace_out_writes_schema_stamped_json(self, command, query,
                                                  fig2_file, tmp_path):
        trace_file = tmp_path / "trace.json"
        assert main([command, fig2_file, query,
                     "--trace-out", str(trace_file)]) == 0
        payload = json.loads(trace_file.read_text())
        assert payload["schema"] == "repro.obs.trace"
        assert payload["version"] == 1
        names = [span["name"] for span in payload["spans"]]
        assert names[0] == "parse" and "evaluate" in names
        for span in payload["spans"]:
            assert span["status"] == "ok"
            assert span["duration_s"] >= 0

    def test_trace_out_dash_goes_to_stdout(self, fig2_file, capsys):
        assert main(["pathql", fig2_file, PATHQL, "--trace-out", "-"]) == 0
        out = capsys.readouterr().out
        start = out.index("{")  # query results precede the JSON blob
        assert json.loads(out[start:])["schema"] == "repro.obs.trace"

    def test_trace_includes_degradation_rungs_under_budget(self, fig2_file,
                                                           tmp_path):
        trace_file = tmp_path / "trace.json"
        assert main(["pathql", fig2_file,
                     "PATHS MATCHING (contact + lives)* LENGTH 3 COUNT",
                     "--max-steps", "3", "--trace-out", str(trace_file)]) == 0
        payload = json.loads(trace_file.read_text())
        evaluate = next(s for s in payload["spans"] if s["name"] == "evaluate")
        rungs = [s["name"] for s in evaluate["children"]
                 if s["name"].startswith("degrade:")]
        assert rungs and rungs[0] == "degrade:exact"


class TestMetrics:
    @pytest.mark.parametrize("command,query", FRONTENDS)
    def test_metrics_out_writes_aggregates(self, command, query, fig2_file,
                                           tmp_path):
        metrics_file = tmp_path / "metrics.json"
        assert main([command, fig2_file, query,
                     "--metrics-out", str(metrics_file)]) == 0
        payload = json.loads(metrics_file.read_text())
        assert payload["schema"] == "repro.obs.metrics"
        assert payload["version"] == 1
        instruments = payload["instruments"]
        assert instruments["queries.observed"]["value"] == 1
        assert instruments["span.evaluate.count"]["value"] == 1
        assert instruments["span.evaluate.seconds"]["count"] == 1

    def test_trace_and_metrics_compose(self, fig2_file, tmp_path, capsys):
        trace_file = tmp_path / "trace.json"
        metrics_file = tmp_path / "metrics.json"
        assert main(["pathql", fig2_file, PATHQL, "--trace",
                     "--trace-out", str(trace_file),
                     "--metrics-out", str(metrics_file)]) == 0
        assert json.loads(trace_file.read_text())["spans"]
        assert json.loads(metrics_file.read_text())["instruments"]
        assert "evaluate" in capsys.readouterr().err

    def test_metrics_emitted_even_when_budget_exceeded(self, fig2_file,
                                                       tmp_path, capsys):
        metrics_file = tmp_path / "metrics.json"
        code = main(["sparql", fig2_file, SPARQL,
                     "--max-steps", "1", "--metrics-out", str(metrics_file)])
        assert code == 3  # EXIT_BUDGET_EXCEEDED
        payload = json.loads(metrics_file.read_text())
        assert payload["instruments"]["queries.observed"]["value"] == 1
        assert "budget exceeded" in capsys.readouterr().err


class TestCacheMetrics:
    def test_metrics_out_writes_cache_counters(self, fig2_file, tmp_path,
                                               monkeypatch):
        """``--cache --metrics-out`` folds the run's cache counters into
        the metrics file: ``cache.hits`` / ``cache.misses`` /
        ``cache.stale`` equal the cache's ``stats()`` when it exits."""
        from repro import cli
        from repro.cache import Footprint

        made = []
        real_make_cache = cli._make_cache

        def make_warm_cache(args):
            # Give every counter a distinct non-zero value before the run:
            # a miss, a store, a hit, then a stale miss after a write.
            cache = real_make_cache(args)
            graph = figure2_property()
            cache.lookup(graph, "k")
            cache.store(graph, "k",
                        Footprint(edge_labels=frozenset({"contact"})), 1)
            cache.lookup(graph, "k")
            graph.add_edge("e99", "n1", "n4", "contact")
            cache.lookup(graph, "k")
            made.append(cache)
            return cache

        monkeypatch.setattr(cli, "_make_cache", make_warm_cache)
        metrics_file = tmp_path / "metrics.json"
        assert main(["pathql", fig2_file, f"{PATHQL} COUNT", "--cache",
                     "--metrics-out", str(metrics_file)]) == 0
        (cache,) = made
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["stale"]) == (1, 3, 1)
        instruments = json.loads(metrics_file.read_text())["instruments"]
        assert {name: instruments[f"cache.{name}"]["value"]
                for name in ("hits", "misses", "stale")} \
            == {name: stats[name] for name in ("hits", "misses", "stale")}


class TestSparqlOnLabeled:
    def test_labeled_graph_also_traces(self, labeled_file, tmp_path):
        trace_file = tmp_path / "trace.json"
        assert main(["sparql", labeled_file, SPARQL,
                     "--trace-out", str(trace_file)]) == 0
        assert json.loads(trace_file.read_text())["spans"]
