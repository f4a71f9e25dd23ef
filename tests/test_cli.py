"""CLI tests: every subcommand end to end, through main()."""

import json

import pytest

from repro.cli import main
from repro.models.io import dumps, loads
from repro.models import figure2_labeled, figure2_property


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


class TestPathql:
    def test_enumerate(self, fig2_file, capsys):
        code = main(["pathql", fig2_file,
                     "PATHS MATCHING ?person/contact/?infected LENGTH 1"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "n1 -e3- n2"

    def test_count(self, fig2_file, capsys):
        code = main(["pathql", fig2_file,
                     "PATHS MATCHING ?person/rides/?bus/rides^-/?infected "
                     "LENGTH 2 COUNT"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_sample_reports_support(self, fig2_file, capsys):
        code = main(["pathql", fig2_file,
                     "PATHS MATCHING ?person/rides/?bus LENGTH 1 "
                     "SAMPLE 3 SEED 1"])
        assert code == 0
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) == 3
        assert "support size" in captured.err


class TestSparqlAndCypher:
    def test_sparql_on_labeled(self, labeled_file, capsys):
        code = main(["sparql", labeled_file,
                     "SELECT ?x WHERE { ?x <rdf:type> <bus> . }"])
        assert code == 0
        out = capsys.readouterr().out
        assert "?x" in out and "n3" in out

    def test_sparql_on_property_converts(self, fig2_file, capsys):
        code = main(["sparql", fig2_file,
                     "SELECT ?x WHERE { ?x <rdf:type> <company> . }"])
        assert code == 0
        assert "n6" in capsys.readouterr().out

    def test_cypher(self, fig2_file, capsys):
        code = main(["cypher", fig2_file,
                     'MATCH (p:person {name: "Julia"}) RETURN p'])
        assert code == 0
        assert "n1" in capsys.readouterr().out

    def test_cypher_requires_property_graph(self, labeled_file, capsys):
        code = main(["cypher", labeled_file, "MATCH (p) RETURN p"])
        assert code == 2
        assert "property graph" in capsys.readouterr().err


class TestGenerators:
    def test_fig2_round_trips(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main(["fig2", "--out", str(out)]) == 0
        graph = loads(out.read_text())
        assert graph.node_count() == 7

    def test_fig2_to_stdout(self, capsys):
        assert main(["fig2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["model"] == "property"

    def test_contact_generator(self, tmp_path):
        out = tmp_path / "world.json"
        assert main(["contact", "--people", "10", "--buses", "2",
                     "--addresses", "4", "--companies", "1",
                     "--seed", "3", "--out", str(out)]) == 0
        graph = loads(out.read_text())
        assert graph.node_count() == 10 + 2 + 4 + 1

    def test_summary(self, fig2_file, capsys):
        assert main(["summary", fig2_file]) == 0
        out = capsys.readouterr().out
        assert "nodes" in out and "label person" in out


class TestGovernorFlags:
    """--timeout / --max-steps / --stats on the query subcommands."""

    def test_count_within_budget_stays_exact(self, fig2_file, capsys):
        code = main(["pathql", fig2_file,
                     "PATHS MATCHING ?person/rides/?bus/rides^-/?infected "
                     "LENGTH 2 COUNT", "--timeout", "30"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "2"
        assert "DEGRADED" not in captured.err

    def test_starved_count_prints_degraded_banner(self, fig2_file, capsys):
        code = main(["pathql", fig2_file,
                     "PATHS MATCHING ?person/rides/?bus/rides^-/?infected "
                     "LENGTH 2 COUNT", "--max-steps", "3"])
        assert code == 0  # degraded, not failed
        captured = capsys.readouterr()
        assert "DEGRADED" in captured.err
        assert captured.out.strip() != ""  # still an answer (a lower bound)

    def test_starved_enumeration_returns_partial(self, fig2_file, capsys):
        code = main(["pathql", fig2_file,
                     "PATHS MATCHING ?person/rides/?bus LENGTH 1",
                     "--max-steps", "6"])
        assert code == 0
        captured = capsys.readouterr()
        assert "DEGRADED (partial)" in captured.err

    def test_stats_table_goes_to_stderr(self, fig2_file, capsys):
        code = main(["pathql", fig2_file,
                     "PATHS MATCHING ?person/rides/?bus LENGTH 1 COUNT",
                     "--stats"])
        assert code == 0
        captured = capsys.readouterr()
        assert "checkpoints (total)" in captured.err
        assert "site product.init" in captured.err
        assert "checkpoints" not in captured.out

    def test_starved_sample_exits_3(self, fig2_file, capsys):
        code = main(["pathql", fig2_file,
                     "PATHS MATCHING ?person/rides/?bus LENGTH 1 "
                     "SAMPLE 2 SEED 1", "--max-steps", "2"])
        assert code == 3
        assert "budget exceeded" in capsys.readouterr().err

    def test_starved_sparql_exits_3(self, labeled_file, capsys):
        code = main(["sparql", labeled_file,
                     "SELECT ?x ?y WHERE { ?x <rides>* ?y . }",
                     "--max-steps", "2"])
        assert code == 3
        assert "budget exceeded" in capsys.readouterr().err

    def test_starved_cypher_exits_3_with_stats(self, fig2_file, capsys):
        code = main(["cypher", fig2_file, "MATCH (p:person) RETURN p",
                     "--max-steps", "1", "--stats"])
        assert code == 3
        err = capsys.readouterr().err
        assert "budget exceeded" in err
        assert "site cypher.match" in err

    def test_sparql_within_budget_unchanged(self, labeled_file, capsys):
        code = main(["sparql", labeled_file,
                     "SELECT ?x WHERE { ?x <rdf:type> <bus> . }",
                     "--timeout", "30", "--max-steps", "100000"])
        assert code == 0
        assert "n3" in capsys.readouterr().out


class TestAsOfOnAGraphFile:
    """A JSON graph file loads at version 0 with no history: ``--as-of 0``
    answers from the file's content, and every later version is in the
    future."""

    QUERY = "PATHS MATCHING ?person/contact/?infected LENGTH 1"

    def test_as_of_zero_is_the_file(self, fig2_file, capsys):
        assert main(["pathql", fig2_file, self.QUERY, "--as-of", "0"]) == 0
        assert capsys.readouterr().out.strip() == "n1 -e3- n2"

    @pytest.mark.parametrize("version", [1, 5])
    def test_later_versions_exit_2(self, fig2_file, capsys, version):
        code = main(["pathql", fig2_file, self.QUERY,
                     "--as-of", str(version)])
        assert code == 2
        assert "in the future" in capsys.readouterr().err


class TestParser:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["not-a-command"])


class TestDurableStoreCommands:
    """checkpoint / recover / --durable, with their distinct exit codes."""

    @pytest.fixture
    def store_dir(self, tmp_path, fig2_file):
        directory = str(tmp_path / "store")
        assert main(["checkpoint", directory, "--ingest", fig2_file]) == 0
        return directory

    def test_checkpoint_prints_snapshot_path(self, tmp_path, fig2_file,
                                             capsys):
        directory = str(tmp_path / "store")
        code = main(["checkpoint", directory, "--ingest", fig2_file])
        assert code == 0
        captured = capsys.readouterr()
        assert "snapshot-" in captured.out
        assert "ingested" in captured.err

    def test_durable_flag_queries_the_store(self, store_dir, capsys):
        code = main(["cypher", "--durable", store_dir,
                     "MATCH (p:person) RETURN p.name"])
        assert code == 0
        assert "Ana" in capsys.readouterr().out
        code = main(["pathql", "--durable", store_dir,
                     "PATHS MATCHING ?person/contact/?infected LENGTH 1"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "n1 -e3- n2"
        code = main(["summary", "--durable", store_dir])
        assert code == 0
        assert "nodes" in capsys.readouterr().out

    def test_recover_clean_exits_0(self, store_dir, capsys):
        assert main(["recover", store_dir]) == 0
        assert "clean" in capsys.readouterr().out

    def test_recover_torn_store_exits_5_then_0(self, store_dir, capsys):
        import os

        from repro.storage import list_segments

        segment = list_segments(store_dir)[-1][2]
        with open(segment, "ab") as handle:
            handle.write(b"\x30\x00\x00\x00\xaa")  # torn frame
        code = main(["recover", store_dir, "--json"])
        assert code == 5
        report = json.loads(capsys.readouterr().out)
        assert report["report"]["clean"] is False
        assert report["report"]["truncated_bytes"] > 0
        # The repair stuck: a second recovery is clean.
        assert main(["recover", store_dir]) == 0

    def test_recover_dry_run_leaves_the_tear(self, store_dir, capsys):
        from repro.storage import list_segments

        segment = list_segments(store_dir)[-1][2]
        with open(segment, "ab") as handle:
            handle.write(b"\x30\x00\x00\x00\xaa")
        assert main(["recover", store_dir, "--dry-run", "--json"]) == 5
        capsys.readouterr()
        # Not repaired, so a second dry run still reports the tear.
        assert main(["recover", store_dir, "--dry-run", "--json"]) == 5

    def test_missing_store_exits_4(self, tmp_path, capsys):
        code = main(["recover", str(tmp_path / "nowhere")])
        assert code == 4
        assert "storage error" in capsys.readouterr().err
        code = main(["summary", "--durable", str(tmp_path / "nowhere")])
        assert code == 4

    def test_model_conflict_exits_4(self, store_dir, capsys):
        code = main(["checkpoint", store_dir, "--model", "labeled"])
        assert code == 4
        assert "storage error" in capsys.readouterr().err
