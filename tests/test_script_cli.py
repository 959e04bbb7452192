"""Tests for the SQL script runner and the CLI."""

import pytest

from repro.cli import main as cli_main
from repro.db import Database
from repro.db.script import execute_statement, run_script, split_statements
from repro.errors import CatalogError, QueryError


SCRIPT = """
-- a tiny moving objects database
CREATE TABLE planes (airline string, id string, flight mpoint);
INSERT INTO planes VALUES ('LH', 'LH1', 'MPOINT ([0 100] 0 60 0 0)');
INSERT INTO planes VALUES ('AF', 'AF1', 'MPOINT ([0 100] 0 30 10 0)');
SELECT airline, id, length(trajectory(flight)) AS dist
  FROM planes ORDER BY dist DESC;
"""


class TestSplitStatements:
    def test_basic_split(self):
        stmts = split_statements("SELECT 1 FROM t; SELECT 2 FROM t;")
        assert len(stmts) == 2

    def test_comments_stripped(self):
        stmts = split_statements("-- hello\nSELECT a FROM t; -- trailing\n")
        assert stmts == ["SELECT a FROM t"]

    def test_semicolon_inside_quotes(self):
        stmts = split_statements("INSERT INTO t VALUES ('a;b');")
        assert len(stmts) == 1
        assert "a;b" in stmts[0]

    def test_dashes_inside_quotes_kept(self):
        stmts = split_statements("INSERT INTO t VALUES ('a--b');")
        assert "a--b" in stmts[0]

    def test_multiline_statement(self):
        stmts = split_statements("SELECT a\nFROM t\nWHERE a = 1;")
        assert len(stmts) == 1


class TestScriptExecution:
    def test_full_script(self):
        db = Database()
        results = run_script(db, SCRIPT)
        assert len(results) == 4
        assert results[0].message.startswith("created")
        rows = results[-1].rows
        assert [r["id"].value for r in rows] == ["LH1", "AF1"]
        assert rows[0]["dist"] == pytest.approx(6000.0)

    def test_drop_table(self):
        db = Database()
        run_script(db, "CREATE TABLE t (a int); DROP TABLE t;")
        assert "t" not in db

    def test_explain_statement(self):
        db = Database()
        run_script(db, "CREATE TABLE t (a int);")
        result = execute_statement(db, "EXPLAIN SELECT a FROM t")
        assert "SeqScan" in result.message

    def test_numeric_literals(self):
        db = Database()
        run_script(
            db,
            "CREATE TABLE m (name string, score real);"
            "INSERT INTO m VALUES ('x', 2.5);",
        )
        rows = db.query("SELECT score FROM m")
        assert rows[0]["score"].value == 2.5

    def test_bad_statement_rejected(self):
        db = Database()
        with pytest.raises(QueryError):
            execute_statement(db, "FROB the table")

    def test_insert_into_missing_table(self):
        db = Database()
        with pytest.raises(CatalogError):
            execute_statement(db, "INSERT INTO nope VALUES (1)")

    def test_bad_column_def(self):
        db = Database()
        with pytest.raises(QueryError):
            execute_statement(db, "CREATE TABLE t (a)")


class TestCli:
    def test_info(self, capsys):
        assert cli_main(["info"]) == 0
        out = capsys.readouterr().out
        assert "discrete type system" in out
        assert "operations" in out

    def test_demo(self, capsys):
        assert cli_main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Q1:" in out and "Q2:" in out

    def test_run_script(self, tmp_path, capsys):
        path = tmp_path / "s.sql"
        path.write_text(SCRIPT)
        assert cli_main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "created planes" in out
        assert "LH1" in out

    def test_figures(self, tmp_path, capsys):
        out_dir = str(tmp_path / "figs")
        assert cli_main(["figures", out_dir]) == 0
        names = sorted(p.name for p in (tmp_path / "figs").iterdir())
        assert names == [
            "figure2_line.svg",
            "figure3_region.svg",
            "figure6_uregion.svg",
        ]


class TestCliFaults:
    def setup_method(self):
        from repro import faults

        faults.disarm()

    teardown_method = setup_method

    def test_crash_matrix_command(self, capsys):
        assert cli_main(
            ["crash-matrix", "--seed", "7", "--only", "wal.sync_crash"]
        ) == 0
        out = capsys.readouterr().out
        assert "1/1 failpoints survived" in out

    def test_bad_fault_spec_is_one_line_error(self, capsys):
        assert cli_main(["--faults", "not.a.failpoint", "info"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro: InvalidValue:")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["--backend", "parallel", "snapshot", "--objects", "4"],
        ["--workers", "2", "snapshot", "--objects", "4"],
    ])
    def test_removed_flags_are_one_line_usage_errors(self, argv, capsys):
        # Neither names an option: the command line fails fast, in one
        # line, before any command runs.
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro: usage error:")
        assert len(err.strip().splitlines()) == 1

    def test_debug_reraises(self):
        from repro.errors import InvalidValue

        with pytest.raises(InvalidValue):
            cli_main(["--debug", "--faults", "not.a.failpoint", "info"])

    def test_environment_errors_still_propagate(self):
        # Only repro's typed errors get the one-line treatment; a
        # missing script file is the caller's problem, unchanged.
        with pytest.raises(FileNotFoundError):
            cli_main(["run", "/nonexistent/file.sql"])

    def test_profile_report_includes_fault_counters(self, tmp_path, capsys):
        assert cli_main(
            ["--profile", "crash-matrix", "--only", "wal.torn_tail"]
        ) == 0
        out = capsys.readouterr().out
        assert "wal.records" in out
        assert "wal.syncs" in out
