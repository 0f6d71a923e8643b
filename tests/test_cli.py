"""The command-line front end: output formats and exit codes."""

import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

import crossvar
from crossvar import selftest, variance
from crossvar.census import fast_census, table_census
from crossvar.cli import main
from crossvar.errors import ValidationError
from crossvar.frequencies import (
    PAIR_BUDGET,
    FrequencyVector,
    builtin_rla_table,
    frequencies_brute,
)
from crossvar.generators import complete, cycle, erdos_renyi, path, random_tree
from crossvar.graph import compute_q
from crossvar.variance import compute_variance

C4_EDGES = "0 1\n1 2\n2 3\n3 0\n"
STAR_EDGES = "0 1\n0 2\n0 3\n0 4\n"
TREE_EDGES = "0 1\n1 2\n1 3\n3 4\n"
RLA_TABLE = (
    "delta = 1/3\np_00 = 1/9\np_01 = 1/9\np_021 = 1/10\np_022 = 7/60\n"
    "p_03 = 1/12\np_04 = 0\np_12 = 2/15\np_13 = 1/6\np_24 = 1/3\n"
)


def write_graph(path, g):
    path.write_text(f"n={g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges()))
    return str(path)


@pytest.fixture
def c4_file(tmp_path):
    p = tmp_path / "c4.txt"
    p.write_text(C4_EDGES)
    return str(p)


@pytest.fixture
def star_file(tmp_path):
    p = tmp_path / "star.txt"
    p.write_text(STAR_EDGES)
    return str(p)


class TestStats:
    def test_json_output(self, c4_file, capsys):
        assert main(["stats", c4_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["census"]["q"] == 2
        assert payload["census"]["nC4"] == 1
        assert payload["expectation_rla"] == "2/3"

    def test_text_output(self, c4_file, capsys):
        assert main(["stats", c4_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:3] == ["n = 4", "m = 4", "census:"]
        assert "  q = 2" in lines and "  nC4 = 1" in lines
        assert "expectation_rla = 2/3" in lines

    def test_isolated_vertices(self, tmp_path, capsys):
        p = tmp_path / "empty.txt"
        p.write_text("n=3\n")
        assert main(["stats", str(p), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["census"]["q"] == 0 and payload["m"] == 0

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("0 1\nnope\n")
        assert main(["stats", str(p)]) == 2

    def test_duplicate_edge_is_one_warning_line(self, tmp_path, capsys):
        # the message alone: no file, line number or source line of the parser
        p = tmp_path / "duplicate.txt"
        p.write_text("0 1\n1 0\n")
        assert main(["stats", str(p)]) == 0
        assert capsys.readouterr().err == "warning: collapsed 1 duplicate edge(s)\n"

    @pytest.mark.parametrize("text", ["0 1 # c\n1 2\n", "n=4 # four\n0 1\n1 2\n"])
    def test_comment_after_a_line(self, tmp_path, capsys, text):
        p = tmp_path / "commented.txt"
        p.write_text(text)
        assert main(["stats", str(p), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["m"], payload["census"]["q"]) == (2, 0)

    def test_missing_file_exits_2(self):
        assert main(["stats", "/does/not/exist.txt"]) == 2

    def test_json_matches_library(self, tmp_path, capsys):
        g = erdos_renyi(12, 0.4, seed=5)
        assert main(["stats", write_graph(tmp_path / "er.txt", g), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["census"] == fast_census(g).to_json_dict()
        assert Fraction(payload["expectation_rla"]) == Fraction(fast_census(g).q, 3)

    def test_follows_auto(self, tmp_path, capsys):
        # every route gives the same census, so the other routes are made to
        # fail: a forest takes the forest census, any other graph the table's
        unavailable = mock.Mock(side_effect=AssertionError("not the route auto takes"))
        tree = write_graph(tmp_path / "tree.txt", random_tree(50, seed=3))
        with mock.patch.object(variance, "table_census", unavailable), \
                mock.patch.object(variance, "fast_census", unavailable):
            assert main(["stats", tree, "--json"]) == 0
        capsys.readouterr()
        g = erdos_renyi(12, 0.4, seed=5)
        with mock.patch.object(variance, "forest_census", unavailable), \
                mock.patch.object(variance, "fast_census", unavailable):
            assert main(["stats", write_graph(tmp_path / "er.txt", g), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["census"] == table_census(g)[0].to_json_dict()


class TestVariance:
    def test_c4_auto(self, c4_file, capsys):
        assert main(["variance", c4_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["variance"] == "2/9"
        assert payload["algorithm"] == "reuse"

    def test_star_is_zero(self, star_file, capsys):
        assert main(["variance", star_file]) == 0
        assert "variance = 0" in capsys.readouterr().out

    def test_forest_on_cycle_exits_3(self, c4_file):
        assert main(["variance", c4_file, "--algorithm", "forest"]) == 3

    def test_forest_algorithm_on_tree(self, tmp_path, capsys):
        p = tmp_path / "tree.txt"
        p.write_text(TREE_EDGES)
        assert main(["variance", str(p), "--algorithm", "forest", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["algorithm"] == "forest"

    def test_all_algorithms_agree(self, c4_file, capsys):
        values = []
        for algo in ("naive", "general", "reuse", "closed"):
            assert main(["variance", c4_file, "--algorithm", algo, "--json"]) == 0
            values.append(json.loads(capsys.readouterr().out)["variance"])
        assert values == ["2/9"] * 4

    def test_naive_over_the_pair_budget_exits_2_at_once(self, sparse_er, tmp_path, capsys):
        path = write_graph(tmp_path / "sparse.txt", sparse_er)
        start = time.perf_counter()
        assert main(["variance", path, "--algorithm", "naive"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert f"q^2 = {compute_q(sparse_er) ** 2}" in err
        assert f"budget of {PAIR_BUDGET}" in err

    def test_layout_table_file(self, c4_file, tmp_path, capsys):
        table = tmp_path / "rla.table"
        table.write_text(RLA_TABLE)
        assert main(["variance", c4_file, "--layout", str(table), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["variance"] == "2/9"

    def test_closed_form_with_table_file_exits_2(self, c4_file, tmp_path, capsys):
        # the closed form holds only for the built-in rla layout
        table = tmp_path / "rla.table"
        table.write_text(RLA_TABLE)
        argv = ["variance", c4_file, "--algorithm", "closed", "--layout", str(table)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_table_value_outside_the_grammar_exits_2(self, c4_file, tmp_path, capsys):
        table = tmp_path / "underscore.table"
        table.write_text(RLA_TABLE.replace("1/3", "1_0/30", 1))
        assert main(["variance", c4_file, "--layout", str(table)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.match(r"error: line \d+: value '1_0/30' is not", captured.err)

    def test_table_giving_a_type_twice_exits_2(self, c4_file, tmp_path, capsys):
        table = tmp_path / "twice.table"
        table.write_text(RLA_TABLE + "E_13 = 1/18\n")
        assert main(["variance", c4_file, "--layout", str(table)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.match(r"error: line \d+: 'E_13' gives again what 'p_13' gave", captured.err)

    def test_table_of_no_layout_exits_2(self, tmp_path, capsys):
        # this table printed variance = -86/9 for a 4-cycle plus a chord
        table = tmp_path / "bad.table"
        table.write_text("delta = 1/3\nE_24 = 2/9\nE_00 = 0\nE_01 = 0\n" + "".join(
            f"E_{code} = -5\n" for code in ("021", "022", "03", "04", "12", "13")
        ))
        graph = tmp_path / "chord.txt"
        graph.write_text(C4_EDGES + "0 2\n")
        assert main(["variance", str(graph), "--layout", str(table)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid layout table: p_021 = -44/9 outside [0, 1/3]")

    def test_negative_variance_exits_2(self, tmp_path, capsys):
        # every product probability 0 but p_24 = delta and p_00 = p_01 =
        # delta^2 meets the bounds of load_layout_table, yet is no layout: K5
        # gets a negative variance
        table = tmp_path / "zero.table"
        table.write_text("delta = 1/3\np_24 = 1/3\np_00 = 1/9\np_01 = 1/9\n" + "".join(
            f"p_{code} = 0\n" for code in ("021", "022", "03", "04", "12", "13")
        ))
        graph = write_graph(tmp_path / "k5.txt", complete(5))
        assert main(["variance", graph, "--layout", str(table)]) == 2
        assert capsys.readouterr().err == (
            f"error: layout table {str(table)!r} gives this graph a negative variance,"
            " -20: it is not the table of a layout\n"
        )

    def test_json_round_trips(self, tmp_path, capsys):
        # every --algorithm choice prints the library's exact values
        er = erdos_renyi(9, 0.5, seed=2)
        tree = random_tree(11, seed=3)
        er_file = write_graph(tmp_path / "er.txt", er)
        tree_file = write_graph(tmp_path / "tree.txt", tree)
        for choice in ("auto", "naive", "general", "reuse", "forest", "closed"):
            g, path = (tree, tree_file) if choice == "forest" else (er, er_file)
            assert main(["variance", path, "--algorithm", choice, "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            algorithm = "rla-closed" if choice == "closed" else choice
            r = compute_variance(g, algorithm=algorithm, table=builtin_rla_table())
            assert payload["algorithm"] == r.algorithm
            assert payload["q"] == r.q
            assert Fraction(payload["expectation"]) == r.expectation
            assert Fraction(payload["variance"]) == r.variance


class TestZscore:
    def test_observed(self, c4_file, capsys):
        assert main(["zscore", c4_file, "--observed", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["zscore"] == pytest.approx(2 * 2 ** 0.5)
        assert payload["bound_two_sided"] == "1/8"

    def test_arrangement_input(self, c4_file, tmp_path, capsys):
        arr = tmp_path / "arr.txt"
        arr.write_text("0 2 1 3\n")
        assert main(["zscore", c4_file, "--arrangement", str(arr), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["observed"] == 1

    @pytest.mark.parametrize("observed,code", [
        ("-3", 2), ("-1", 2), ("0", 0), ("1", 0), ("2", 2), ("5", 2),
    ])
    def test_count_must_lie_in_0_to_q(self, tmp_path, capsys, observed, code):
        # two disjoint edges: q = 1, so only 0 or 1 crossings can occur
        path = tmp_path / "two.txt"
        path.write_text("0 1\n2 3\n")
        assert main(["zscore", str(path), "--observed", observed]) == code
        assert ("impossible" in capsys.readouterr().err) == (code == 2)

    @pytest.mark.parametrize("observed", [
        "1_0", "\u0662", "+1", "-\u0662", "1.0", "", "-", "-1_0", "-+1",
    ])
    def test_count_is_ascii_decimal_digits(self, c4_file, capsys, observed):
        # int() takes the first three; a count is read as a vertex id is.
        # The last two start with '-' but are no plain negative numbers, so
        # argparse reads them as the value only after '='
        option_like = observed in ("-1_0", "-+1")
        argv = [f"--observed={observed}"] if option_like else ["--observed", observed]
        assert main(["zscore", c4_file, *argv]) == 2
        assert "is not ASCII decimal digits" in capsys.readouterr().err

    def test_option_like_count_needs_an_equals_sign(self, c4_file, capsys):
        # argparse takes '-1_0' for an option, so --observed has no value
        with pytest.raises(SystemExit) as exited:
            main(["zscore", c4_file, "--observed", "-1_0"])
        assert exited.value.code == 2
        assert "expected one argument" in capsys.readouterr().err

    def test_zero_variance_exits_4(self, star_file):
        assert main(["zscore", star_file, "--observed", "0"]) == 4


class TestUndecodableInput:
    """One byte that is not UTF-8, 0xff, in any input file exits 2 with one
    line naming the file and the line of the byte."""

    # each bad file holds the byte, marked '@', on line 3, after a CRLF and
    # a lone CR break
    BAD = {
        "graph": "0 1\r\n1 2\r2 3 @\n",
        "order": "0 1\r\n2\r3 # @\n",
        "table": RLA_TABLE.replace("1/3\n", "1/3\r\n").replace("p_00 = 1/9\n", "p_00 = 1/9\r")
        .replace("p_01 = 1/9\n", "p_01 = 1/9 # @\n"),
    }
    GOOD = {"graph": C4_EDGES, "order": "0 2 1 3\n", "table": RLA_TABLE}

    @staticmethod
    def _write(tmp_path, name, text):
        path = tmp_path / name
        path.write_bytes(text.encode().replace(b"@", b"\xff"))
        return str(path)

    def _case(self, tmp_path, which):
        return {
            name: self._write(tmp_path, name, (self.BAD if name == which else self.GOOD)[name])
            for name in self.GOOD
        }

    @pytest.mark.parametrize("which, argv", [
        ("graph", ["stats", "{graph}"]),
        ("graph", ["variance", "{graph}"]),
        ("graph", ["zscore", "{graph}", "--observed", "0"]),
        ("order", ["zscore", "{graph}", "--arrangement", "{order}"]),
        ("table", ["variance", "{graph}", "--layout", "{table}"]),
        ("table", ["zscore", "{graph}", "--observed", "1", "--layout", "{table}"]),
    ], ids=["stats", "variance", "zscore", "arrangement", "layout", "zscore-layout"])
    def test_exits_2_with_one_line(self, tmp_path, capsys, which, argv):
        files = self._case(tmp_path, which)
        assert main([arg.format(**files) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {files[which]}: line 3: byte 0xff is not UTF-8\n"

    def test_console_exit_has_no_traceback(self, tmp_path):
        path = self._write(tmp_path, "graph.txt", "0 1\n@\n")
        src = str(Path(crossvar.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "crossvar.cli", "stats", path],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr == f"error: {path}: line 2: byte 0xff is not UTF-8\n"

    def test_load_graph_raises_validation_error(self, tmp_path):
        path = self._write(tmp_path, "graph.txt", "# @\n0 1\n")
        with pytest.raises(ValidationError, match="line 1: byte 0xff"):
            crossvar.load_graph(path)

    def test_utf8_comments_still_parse(self, tmp_path, capsys):
        graph = tmp_path / "graph.txt"
        graph.write_text("# caf\u00e9\n" + C4_EDGES, encoding="utf-8")
        order = tmp_path / "order.txt"
        order.write_text("0 2 # caf\u00e9\n1 3\n", encoding="utf-8")
        table = tmp_path / "rla.table"
        table.write_text("# caf\u00e9\n" + RLA_TABLE, encoding="utf-8")
        argv = ["zscore", str(graph), "--arrangement", str(order), "--layout", str(table), "--json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["observed"] == 1


class TestSelftest:
    def test_quick_run_passes(self, capsys):
        assert main(["selftest", "--quick", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["failures"] == []

    def test_quick_corpus_size(self):
        # the corpus as it stands; the full one is 328 graphs in 6736 comparisons
        report = selftest.run_selftest(full=False)
        assert (report.graphs_checked, report.comparisons, report.failures) == (69, 1428, [])

    def test_passes_with_asserts_stripped(self):
        # python -O removes assert statements; the invariants must not rely on them
        src = str(Path(crossvar.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )}
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "crossvar.cli", "selftest", "--quick"],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    TWO_GRAPHS = (("path-5", path(5)), ("cycle-6", cycle(6)))

    def _run_off_by_one(self, monkeypatch, capsys, off_by_one):
        """The selftest on two graphs, its naive route's frequencies passed
        through ``off_by_one``: the report, after checking that the CLI
        prints its failures and exits 1."""
        monkeypatch.setattr(selftest, "corpus", lambda full=True: iter(self.TWO_GRAPHS))
        monkeypatch.setattr(
            selftest, "frequencies_brute", lambda g: off_by_one(frequencies_brute(g))
        )
        report = selftest.run_selftest()
        assert report.graphs_checked == 2 and not report.ok
        assert main(["selftest", "--quick"]) == 1
        out = capsys.readouterr().out
        assert "ok = False" in out
        assert all(failure in out for failure in report.failures)
        return report

    def test_a_route_off_by_one_is_named(self, monkeypatch, capsys):
        # one more pair of type 13, one fewer of the null types
        report = self._run_off_by_one(monkeypatch, capsys, lambda f: FrequencyVector(
            {**f.counts, "13": f.counts["13"] + 1}, f.null_total - 1
        ))
        for name, g in self.TWO_GRAPHS:
            f13 = frequencies_brute(g).counts["13"]
            mine = [failure for failure in report.failures if failure.startswith(f"{name}: ")]
            assert mine[:2] == [
                f"{name}: f_13 brute={f13 + 1} census={f13}",
                f"{name}: f_13 brute={f13 + 1} patterns={f13}",
            ]
            # every other variance route disagrees with the naive one
            named = [re.fullmatch(rf"{name}: variance (\w+)=\S+ != naive=\S+", failure)
                     for failure in mine[2:]]
            assert [match and match[1] for match in named] == (
                ["patterns", "general", "reuse", "closed"] + ["forest"] * g.is_forest()
            )

    def test_a_pair_total_off_by_one_is_named(self, monkeypatch, capsys):
        # the null types carry no weight, so only the q^2 check can see this
        report = self._run_off_by_one(monkeypatch, capsys, lambda f: FrequencyVector(
            f.counts, f.null_total + 1
        ))
        assert report.failures == [
            f"{name}: sum of frequencies {compute_q(g) ** 2 + 1} != q^2 {compute_q(g) ** 2}"
            for name, g in self.TWO_GRAPHS
        ]

    def test_seed_flag_is_gone(self):
        # the corpus is fixed: no seed, size cap or ensemble size to set
        for flag in (["--seed", "3"], ["--max-n", "8"], ["--er-seeds", "2"]):
            with pytest.raises(SystemExit):
                main(["selftest", "--quick", *flag])


class TestOutOfMemory:
    def test_memory_error_exits_2_with_one_line(self, c4_file, capsys):
        # a bare MemoryError, as Python's own allocations raise it, has no text
        with mock.patch("crossvar.cli.load_graph", side_effect=MemoryError):
            assert main(["variance", c4_file]) == 2
        assert capsys.readouterr().err == "error: out of memory\n"

    @pytest.mark.skipif(
        not (sys.platform.startswith("linux") and os.path.exists("/proc/self/statm")),
        reason="reads the address-space size from /proc",
    )
    def test_address_space_limit_exits_2(self, tmp_path, c4_file):
        # the CLI in a child whose address space may grow by MARGIN past its
        # size once crossvar is imported (RLIMIT_AS, set in the child only).
        # Measured: the 4-cycle runs with 1 MiB to spare, while n = 2^25 − 1
        # needs 256 MiB arrays; the n=2^25-1 graph takes 1.3 GB unlimited.
        margin = 64 * 2**20
        script = (
            "import resource, sys\n"
            "from crossvar.cli import main\n"
            "size = int(open('/proc/self/statm').read().split()[0]) * resource.getpagesize()\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            f"resource.setrlimit(resource.RLIMIT_AS, (size + {margin}, hard))\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        src = str(Path(crossvar.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )}
        huge = tmp_path / "huge.txt"
        huge.write_text("n=33554431\n0 1\n")

        def run(path):
            return subprocess.run(
                [sys.executable, "-c", script, "variance", path],
                env=env, capture_output=True, text=True, timeout=120,
            )

        small = run(c4_file)
        assert (small.returncode, small.stderr) == (0, ""), small.stderr
        proc = run(str(huge))
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: out of memory")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


class TestCommands:
    def test_bench_is_gone(self, capsys):
        # perfbench and acceptance criterion 7 time the routes against each other
        with pytest.raises(SystemExit):
            main(["bench", "--n-list", "10", "--graphs", "1"])
        assert "invalid choice: 'bench'" in capsys.readouterr().err
