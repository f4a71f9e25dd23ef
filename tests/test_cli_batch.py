"""CLI batch mode: exit codes, --workers validation, observability output.

Exit-code contract under test: 0 every query full-fidelity, 1 at least
one query failed (or the batch itself), 2 invalid invocation (argparse,
bad --workers, unreadable batch file), 3 the governed budget degraded or
stopped at least one query (matching the single-query budget exit).
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.models import figure2_property
from repro.models.io import dumps

OK_BATCH = [
    {"language": "pathql",
     "query": "PATHS MATCHING ?person/contact/?infected LENGTH 1 COUNT"},
    {"language": "sparql",
     "query": "SELECT ?x WHERE { ?x <rdf:type> <person> . }"},
    {"language": "cypher", "query": "MATCH (p:person) RETURN p.name"},
]


@pytest.fixture
def fig2_file(tmp_path):
    path = tmp_path / "fig2.json"
    path.write_text(dumps(figure2_property(), indent=2))
    return str(path)


@pytest.fixture
def batch_file(tmp_path):
    def write(entries, *, lines=False) -> str:
        path = tmp_path / "queries.json"
        if lines:
            path.write_text("\n".join(json.dumps(e) for e in entries))
        else:
            path.write_text(json.dumps(entries))
        return str(path)
    return write


class TestExitCodes:
    def test_clean_batch_exits_zero(self, fig2_file, batch_file, capsys):
        assert main(["batch", fig2_file, batch_file(OK_BATCH)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "[0] pathql: 1"
        assert out[1] == "[1] sparql: 3 rows"
        assert out[2] == "[2] cypher: 3 rows"

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_worker_counts_answer_identically(self, fig2_file, batch_file,
                                              capsys, workers):
        assert main(["batch", fig2_file, batch_file(OK_BATCH),
                     "--workers", workers, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workers"] == int(workers)
        assert [r["status"] for r in payload["results"]] == ["ok"] * 3
        assert payload["results"][0]["value"]["count"] == 1

    def test_query_error_exits_one(self, fig2_file, batch_file, capsys):
        entries = OK_BATCH + [{"language": "pathql",
                               "query": "PATHS MATCHING ((( LENGTH 1"}]
        assert main(["batch", fig2_file, batch_file(entries)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[3].startswith("[3] pathql ERROR:")

    def test_degraded_budget_exits_three(self, fig2_file, batch_file,
                                         capsys):
        entries = [{"language": "pathql",
                    "query": "PATHS MATCHING (contact + rides)* LENGTH 4 "
                             "COUNT"}]
        code = main(["batch", fig2_file, batch_file(entries),
                     "--max-steps", "6"])
        assert code == 3
        captured = capsys.readouterr()
        assert "# DEGRADED [0]:" in captured.err

    def test_degraded_status_survives_json_mode(self, fig2_file, batch_file,
                                                capsys):
        entries = [{"language": "pathql",
                    "query": "PATHS MATCHING (contact + rides)* LENGTH 4 "
                             "COUNT"}]
        assert main(["batch", fig2_file, batch_file(entries),
                     "--max-steps", "6", "--json"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"][0]["status"] in ("degraded", "budget")


class TestInvocationValidation:
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_nonpositive_workers_exit_two(self, fig2_file, batch_file,
                                          capsys, workers):
        assert main(["batch", fig2_file, batch_file(OK_BATCH),
                     "--workers", workers]) == 2
        assert "--workers must be a positive integer" in \
            capsys.readouterr().err

    def test_pathql_validates_workers_too(self, fig2_file, capsys):
        """Only ``batch`` fans out; on ``pathql`` --workers is unknown."""
        with pytest.raises(SystemExit) as excinfo:
            main(["pathql", fig2_file,
                  "PATHS MATCHING contact LENGTH 1 COUNT",
                  "--workers", "2"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_missing_batch_file_exits_two(self, fig2_file, tmp_path,
                                          capsys):
        assert main(["batch", fig2_file,
                     str(tmp_path / "nope.json")]) == 2
        assert "cannot read batch file" in capsys.readouterr().err

    def test_malformed_entry_exits_two(self, fig2_file, batch_file, capsys):
        path = batch_file([{"language": "pathql"}])  # no query text
        assert main(["batch", fig2_file, path]) == 2
        assert "cannot read batch file" in capsys.readouterr().err

    def test_non_array_batch_file_exits_two(self, fig2_file, tmp_path,
                                            capsys):
        path = tmp_path / "queries.json"
        path.write_text('"just a string"')
        assert main(["batch", fig2_file, str(path)]) == 2

    def test_json_lines_format_accepted(self, fig2_file, batch_file):
        assert main(["batch", fig2_file,
                     batch_file(OK_BATCH, lines=True)]) == 0


class TestObservabilityOutput:
    def test_parallel_trace_out_validates_against_obs_schema(
            self, fig2_file, batch_file, tmp_path, capsys):
        trace_file = tmp_path / "trace.json"
        assert main(["batch", fig2_file, batch_file(OK_BATCH),
                     "--workers", "2",
                     "--trace-out", str(trace_file)]) == 0
        payload = json.loads(trace_file.read_text())
        assert payload["schema"] == "repro.obs.trace"
        assert payload["version"] == 1
        parallel = payload["spans"][0]
        assert parallel["name"] == "parallel"
        assert parallel["attrs"]["workers"] == 2
        assert parallel["attrs"]["tasks"] == len(OK_BATCH)
        worker_spans = [child for child in parallel["children"]
                        if child["name"].startswith("worker:")]
        assert [span["name"] for span in worker_spans] == ["worker:0",
                                                           "worker:1"]
        # Every span — including the rebuilt worker-side ones — carries the
        # full schema fields.
        def check(span):
            for field in ("name", "wall_start", "duration_s", "status",
                          "error", "attrs", "children"):
                assert field in span
            for child in span["children"]:
                check(child)
        for span in payload["spans"]:
            check(span)

    def test_parallel_metrics_out(self, fig2_file, batch_file, tmp_path):
        metrics_file = tmp_path / "metrics.json"
        assert main(["batch", fig2_file, batch_file(OK_BATCH),
                     "--workers", "2",
                     "--metrics-out", str(metrics_file)]) == 0
        payload = json.loads(metrics_file.read_text())
        assert payload["schema"] == "repro.obs.metrics"

    def test_trace_flag_prints_worker_tree(self, fig2_file, batch_file,
                                           capsys):
        assert main(["batch", fig2_file, batch_file(OK_BATCH),
                     "--workers", "2", "--trace"]) == 0
        err = capsys.readouterr().err
        assert "parallel" in err and "worker:0" in err
