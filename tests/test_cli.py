import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from monoindex import cli, graphs, survey
from monoindex.cli import main
from monoindex.coloring import (
    EdgeColoring,
    VertexColoring,
    parse_coloring_certificate,
    write_coloring_certificate,
)
from monoindex.graphs import (
    MAX_WALK_VERTICES,
    complete_graph,
    cycle_graph,
    parse_graph6,
    path_graph,
    to_edge_list,
    to_graph6,
)
from monoindex.reduction import build_gadget


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*argv, **kwargs):
    """Run the CLI in a fresh interpreter on this checkout's source."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "monoindex.cli", *argv], capture_output=True, text=True, env=env, **kwargs
    )


class TestMx:
    def test_formula_k4(self, capsys, tmp_path):
        path = tmp_path / "k4.g6"
        path.write_text(to_graph6(complete_graph(4)) + "\n")
        code, out, _ = run_cli(capsys, "mx", "--graph", str(path), "--k", "3")
        assert code == 0 and out.strip() == "4"

    def test_inline_graph6(self, capsys):
        code, out, _ = run_cli(capsys, "mx", "--graph", "C~", "--k", "3")
        assert code == 0 and out.strip() == "4"

    def test_exact_k2(self, capsys):
        code, out, _ = run_cli(capsys, "mx", "--graph", "C~", "--k", "2", "--exact")
        assert code == 0 and out.strip() == "6"

    def test_k2_runs_the_exact_search(self, capsys, tmp_path):
        # the closed form starts at k = 3, so k = 2 needs no --exact
        plain, exact = tmp_path / "plain.txt", tmp_path / "exact.txt"
        code, out, _ = run_cli(capsys, "mx", "--graph", "C~", "--k", "2", "--witness", str(plain))
        assert (code, out) == (0, "6\n")
        run_cli(capsys, "mx", "--graph", "C~", "--k", "2", "--exact", "--witness", str(exact))
        assert plain.read_bytes() == exact.read_bytes()

    def test_witness_file(self, capsys, tmp_path):
        witness = tmp_path / "cert.txt"
        code, out, _ = run_cli(
            capsys, "mx", "--graph", "C~", "--k", "3", "--witness", str(witness)
        )
        assert code == 0
        cert = parse_coloring_certificate(witness.read_text())
        assert cert.num_colors == 4

    def test_repeated_edge_exits_2_before_any_work(self, capsys, monkeypatch):
        # the header announces 4 edges; collapsing "1 0" onto "0 1" would
        # answer for the path on 3 edges
        monkeypatch.setattr(cli, "mx_k_formula", lambda g, k: pytest.fail("the index was computed"))
        code, out, err = run_cli(capsys, "mx", "--graph", "4 4 0 1 1 2 2 3 1 0", "--k", "3")
        assert code == 2 and out == ""
        assert err == "error: edge list repeats the edge 1-0\n"


class TestMvx:
    def test_exact_default(self, capsys):
        code, out, _ = run_cli(capsys, "mvx", "--graph", to_graph6(cycle_graph(6)), "--k", "3")
        assert code == 0 and out.strip() == "3"

    def test_exact_at_kernel_ceiling(self, capsys):
        code, out, _ = run_cli(capsys, "mvx", "--graph", to_graph6(cycle_graph(12)), "--k", "3")
        assert code == 0 and out == "3\n"

    def test_cut_vertex_route(self, capsys):
        code, out, _ = run_cli(
            capsys, "mvx", "--graph", to_graph6(path_graph(5)), "--k", "2", "--cut-vertex"
        )
        assert code == 0 and out.strip() == "3"

    def test_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "mvx", "--graph", to_graph6(path_graph(5)), "--k", "3", "--bound"
        )
        assert code == 0 and out.strip() == "3"

    def test_long_path_witness_verifies(self, capsys, tmp_path):
        # P60's core is its 58 inner vertices, one cover that holds every vertex
        graph, witness = tmp_path / "p60.txt", tmp_path / "w.txt"
        graph.write_text(to_edge_list(path_graph(60)))
        code, out, _ = run_cli(
            capsys, "mvx", "--graph", str(graph), "--k", "30", "--cut-vertex", "--witness", str(witness)
        )
        assert code == 0 and out == "3\n"
        code, out, _ = run_cli(capsys, "verify", "--coloring", str(witness), "--k", "30")
        assert code == 0 and out == "valid\n"

    def test_edge_list_input(self, capsys, tmp_path):
        path = tmp_path / "c6.txt"
        path.write_text(to_edge_list(cycle_graph(6)))
        code, out, _ = run_cli(capsys, "mvx", "--graph", str(path), "--k", "3")
        assert code == 0 and out.strip() == "3"


class TestVerify:
    def test_invalid_certificate_exits_1(self, capsys, tmp_path):
        c5 = cycle_graph(5)
        cert = tmp_path / "cert.txt"
        cert.write_text(write_coloring_certificate(EdgeColoring(c5, (0, 1, 2, 3, 4))))
        code, out, _ = run_cli(capsys, "verify", "--coloring", str(cert), "--k", "3")
        assert code == 1 and out.strip() == "invalid"

    def test_valid_certificate_exits_0(self, capsys, tmp_path):
        c5 = cycle_graph(5)
        cert = tmp_path / "cert.txt"
        cert.write_text(write_coloring_certificate(EdgeColoring(c5, (0, 0, 0, 0, 0))))
        code, out, _ = run_cli(capsys, "verify", "--coloring", str(cert), "--k", "3")
        assert code == 0 and out.strip() == "valid"

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--coloring", "/nonexistent", "--k", "3")
        assert code == 2 and "error" in err

    def test_blank_lines_and_comments_are_skipped(self, capsys, tmp_path):
        cert = tmp_path / "cert.txt"
        cert.write_text(
            "# K3, one color\n\ngraph6: Bw\n\ntype: vertex\n0 -> 0\n1 -> 0  # comment\n2 -> 0\n\n"
        )
        code, out, _ = run_cli(capsys, "verify", "--coloring", str(cert), "--k", "3")
        assert code == 0 and out == "valid\n"


class TestReduceAndGadget:
    def test_decision_yes_no(self, capsys):
        code, out, _ = run_cli(capsys, "reduce", "--graph", to_graph6(complete_graph(3)), "--k", "1")
        assert code == 0 and out.strip() == "yes"
        code, out, _ = run_cli(capsys, "reduce", "--graph", to_graph6(cycle_graph(4)), "--k", "1")
        assert code == 0 and out.strip() == "no"

    def test_emit_files(self, capsys, tmp_path):
        gadget_path = tmp_path / "gadget.g6"
        certs_path = tmp_path / "certs.txt"
        k3 = to_graph6(complete_graph(3))
        code, _, _ = run_cli(capsys, "reduce", "--graph", k3, "--k", "1", "--certificates", str(certs_path))
        assert code == 0
        code, _, _ = run_cli(capsys, "gadget", "--graph", k3, "--out", str(gadget_path))
        assert code == 0
        gadget = parse_graph6(gadget_path.read_text())
        assert gadget.n == 8 and gadget.m == 16
        assert certs_path.read_text() == (
            "kind: dominating\nvertices: 0\n\nkind: connected-dominating\nvertices: 3 6\n"
        )

    def test_gadget_mapping(self, capsys):
        code, out, _ = run_cli(capsys, "gadget", "--graph", to_graph6(path_graph(3)))
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "x: 6" and lines[2] == "y: 7"
        assert lines[3] == "u: 3 4 5"


class TestSurveyAndEnumerate:
    def test_survey_csv_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "survey", "--n", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("n,k,g6")
        assert len(lines) == 3

    def test_survey_csv_file(self, capsys):
        # the file that `survey --n 5 > survey.csv` writes: a header and 24 rows
        code, out, _ = run_cli(capsys, "survey", "--n", "5")
        assert code == 0
        assert out.count("\n") == 25

    def test_survey_find_f1(self, capsys):
        code, out, _ = run_cli(capsys, "survey", "--n", "6", "--find-f1")
        assert code == 0
        assert len(out.split()) == 2

    def test_survey_find_f1_report_on_stderr(self, capsys):
        code, _, err = run_cli(capsys, "survey", "--n", "6", "--find-f1")
        assert code == 0 and "candidates: 2" in err.splitlines()

    def test_survey_summary_on_stderr(self, capsys):
        code, _, err = run_cli(capsys, "survey", "--n", "5")
        assert code == 0 and err == (
            "n=5: 8 co-connected graphs, 24 records\n"
            "bound violations: 0\n"
            "k=3: sum in [6, 8]  lower bound 6  upper bound 8\n"
            "       minimum attained by DLo\n"
            "k=4: sum in [6, 8]  lower bound 6  upper bound 8\n"
            "       minimum attained by DLo\n"
            "k=5: sum in [6, 8]  lower bound 6  upper bound 8\n"
            "       minimum attained by DLo\n"
        )

    def test_failing_survey_exits_1_and_names_the_record(self, capsys, monkeypatch):
        bad = survey.SurveyRecord(
            n=5, k=3, g6="DLo", g6_complement="DLo", mvx_g=2, mvx_gbar=3, sum=5,
            lower_bound=6, upper_bound=None, verdict="fail",
        )
        monkeypatch.setattr(cli, "survey_bounds", lambda n: [bad])
        code, out, err = run_cli(capsys, "survey", "--n", "5")
        assert code == 1
        assert out.splitlines()[1:] == ["5,3,DLo,DLo,2,3,5,6,na,fail"]
        assert err == (
            "n=5: 1 co-connected graphs, 1 records\n"
            "bound violations: 1\n"
            "  FAIL SurveyRecord(n=5, k=3, g6='DLo', g6_complement='DLo', mvx_g=2, mvx_gbar=3,"
            " sum=5, lower_bound=6, upper_bound=None, verdict='fail')\n"
            "k=3: sum in [5, 5]  lower bound 6  upper bound -\n"
            "       minimum attained by DLo\n"
        )

    def test_survey_summary_follows_k(self, capsys):
        code, _, err = run_cli(capsys, "survey", "--n", "5", "--k", "4")
        assert code == 0
        assert [line for line in err.splitlines() if line.startswith("k=")] == [
            "k=4: sum in [6, 8]  lower bound 6  upper bound 8"
        ]

    def test_enumerate(self, capsys):
        from monoindex.graphs import canonical_form

        code, out, _ = run_cli(capsys, "enumerate", "--n", "4")
        assert code == 0 and len(out.split()) == 6
        code, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--coconnected")
        assert code == 0 and out.split() == [to_graph6(canonical_form(path_graph(4)))]
        code, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--all")
        assert code == 0 and len(out.split()) == 11

    def test_deterministic_stdout(self, capsys):
        _, out1, _ = run_cli(capsys, "survey", "--n", "4")
        _, out2, _ = run_cli(capsys, "survey", "--n", "4")
        assert out1 == out2


class TestErrors:
    def test_malformed_graph_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "mx", "--graph", "\x01bad", "--k", "3")
        assert code == 2 and "error" in err

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [("mx", "--k", "3"), ("mvx", "--k", "3", "--cut-vertex")])
    def test_witness_beyond_graph6_prints_nothing(self, capsys, tmp_path, argv):
        graph = tmp_path / "p70.txt"
        graph.write_text(to_edge_list(path_graph(70)))
        witness = tmp_path / "witness.txt"
        code, out, err = run_cli(capsys, *argv, "--graph", str(graph), "--witness", str(witness))
        assert code == 2 and out == "" and err.startswith("error:")
        assert not witness.exists()

    @pytest.mark.parametrize(
        "argv",
        [("mx", "--k", "3"), ("mx", "--k", "2", "--exact"), ("mvx", "--k", "2", "--cut-vertex")],
    )
    def test_witness_beyond_graph6_exits_2_before_the_search(self, capsys, tmp_path, argv):
        # graph6 ends at 62; the --witness check comes before any search or walk
        graph = tmp_path / "p1500.txt"
        graph.write_text(to_edge_list(path_graph(1500)))
        witness = tmp_path / "witness.txt"
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, "--graph", str(graph), "--witness", str(witness))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == "" and err.startswith("error: --witness") and "62" in err
        assert not witness.exists()

    def test_bound_refuses_witness(self, capsys, monkeypatch, tmp_path):
        # --bound has no coloring to write, so the pair exits 2 before the
        # graph is even read, and leaves no file
        def no_load(source):
            raise AssertionError("mvx --bound --witness read its graph")

        monkeypatch.setattr(cli, "_load_graph", no_load)
        witness = tmp_path / "witness.txt"
        code, out, err = run_cli(
            capsys, "mvx", "--graph", "DQc", "--k", "3", "--bound", "--witness", str(witness)
        )
        assert code == 2 and out == "" and err.startswith("error: --bound")
        assert not witness.exists()

    @pytest.mark.parametrize("k", ["1", "5", "99"])
    def test_mvx_bound_k_out_of_range(self, capsys, k):
        # Ch has 4 vertices; the bound route checks k like every other route
        code, out, err = run_cli(capsys, "mvx", "--graph", "Ch", "--k", k, "--bound")
        assert code == 2 and out == "" and err.startswith("error:") and "out of range" in err

    @pytest.mark.parametrize("argv", [("mvx", "--k", "2"), ("mx", "--k", "2", "--exact")])
    def test_one_vertex_graph_names_the_vertex_minimum(self, capsys, argv):
        # "@" is the one-vertex graph; there is no k range to name for it
        code, out, err = run_cli(capsys, *argv, "--graph", "@")
        assert (code, out, err) == (2, "", "error: the index needs at least 2 vertices\n")

    @pytest.mark.parametrize("k", ["2", "5", "99"])
    def test_survey_k_out_of_range(self, capsys, monkeypatch, k):
        def no_survey(*args, **kwargs):
            raise AssertionError("survey ran despite an out-of-range --k")

        monkeypatch.setattr(cli, "survey_bounds", no_survey)
        code, out, err = run_cli(capsys, "survey", "--n", "4", "--k", k)
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize("n", ["99", "-1", "8"])
    def test_survey_find_f1_needs_n6(self, capsys, monkeypatch, n):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("--find-f1 enumerated despite --n other than 6")

        monkeypatch.setattr(survey, "enumerate_coconnected", no_enumeration)
        code, out, err = run_cli(capsys, "survey", "--n", n, "--find-f1")
        assert code == 2 and out == "" and err.startswith("error:") and "--n 6" in err

    @pytest.mark.parametrize("n", ["9", "3", "-1"])
    def test_survey_n_out_of_range_exits_2_before_any_enumeration(self, capsys, monkeypatch, n):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("survey enumerated an n out of range")

        monkeypatch.setattr(survey, "enumerate_connected_graphs", no_enumeration)
        code, out, err = run_cli(capsys, "survey", "--n", n)
        assert (code, out) == (2, "")
        assert err == f"error: co-connected enumeration covers 4 <= n <= 8, got n={n}\n"

    def test_survey_find_f1_refuses_k(self, capsys, monkeypatch):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("--find-f1 enumerated despite an option it ignores")

        monkeypatch.setattr(survey, "enumerate_coconnected", no_enumeration)
        code, out, err = run_cli(capsys, "survey", "--n", "6", "--find-f1", "--k", "4")
        assert code == 2 and out == "" and err.startswith("error:") and "--k" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("survey", "--n", "4", "--threads", "2"),
            ("mvx", "--graph", "Ch", "--k", "3", "--max-vertices", "4"),
            ("mx", "--graph", "C~", "--k", "2", "--exact", "--max-edges", "30"),
            ("mx", "--graph", "C~", "--k", "3", "-v"),
            ("reduce", "--graph", "Bw", "--k", "1", "--verbose"),
            ("mvx", "--graph", "Ch", "--k", "3", "--exact"),
            ("survey", "--n", "4", "--csv", "out.csv"),
            ("reduce", "--graph", "Bw", "--k", "1", "--emit-gadget", "g.g6"),
            ("survey", "--n", "8", "--include-n8"),
        ],
    )
    def test_removed_options_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2 and capsys.readouterr().out == ""

    def test_verify_beyond_budget_exits_2_quickly(self, capsys, tmp_path, monkeypatch):
        # C(40, 20) is about 1.4e11 k-sets, but one color's cover holds all
        # of P40, so no k-set is looked at; with every vertex its own color
        # the search stops at the 4th set it visits, {0, 2, 3}, which meets
        # every miss and so pads out to a 20-set in no cover: a budget of 3
        # refuses
        p40 = path_graph(40)
        cert = tmp_path / "cert.txt"
        cert.write_text(write_coloring_certificate(EdgeColoring(p40, (0,) * p40.m)))
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "verify", "--coloring", str(cert), "--k", "20")
        assert time.perf_counter() - start < 1.0
        assert code == 0 and out == "valid\n"
        cert.write_text(write_coloring_certificate(VertexColoring(p40, tuple(range(40)))))
        monkeypatch.setattr(graphs, "MAX_SEARCH_NODES", 3)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "--coloring", str(cert), "--k", "20")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == "" and err.startswith("error:") and "budget" in err

    @pytest.mark.parametrize(
        "lines, message",
        [
            (["type: vertex", "0 -> 0", "1 -> 0", "2 -> 0", "-1 -> 1"], "names no vertex"),
            (["type: vertex", "0 -> 0", "1 -> 0", "2 -> 0", "7 -> 1"], "names no vertex"),
            (["type: edge", "0 1 -> 0", "0 2 -> 0", "1 2 -> 0", "0 1 -> 1"], "line 6"),
            (["type: edge", "0 1 -> x", "0 2 -> 0", "1 2 -> 0"], "line 3: color 'x'"),
            (["type: vertex", "a -> 1", "1 -> 0", "2 -> 0"], "line 3: vertex 'a'"),
            (["type: edge", "type: vertex", "0 -> 0", "1 -> 1", "2 -> 2"], "line 3: a second 'type:'"),
            (["type: vertex", "0 -> 0", "1 -> 1", "2 -> 2", "graph6: BW"], "line 6: a second 'graph6:'"),
        ],
    )
    def test_bad_certificate_element(self, capsys, tmp_path, lines, message):
        cert = tmp_path / "cert.txt"
        cert.write_text("\n".join(["graph6: Bw", *lines]) + "\n")
        code, out, err = run_cli(capsys, "verify", "--coloring", str(cert), "--k", "3")
        assert code == 2 and out == "" and err.startswith("error:") and message in err

    @pytest.mark.parametrize(
        "name, text, argv, message",
        [
            ("g.txt", "5\n", ("mvx", "--k", "2"), "edge list needs a leading 'n m' line"),
            ("g.txt", "3 1\n0 5\n", ("mvx", "--k", "2"), "edge 0-5 out of range for n=3"),
            (
                "cert.txt",
                "graph6: Bw\ntype: vertex\nhello\n0 -> 0\n1 -> 0\n2 -> 0\n",
                ("verify", "--k", "3"),
                "line 3: unrecognized certificate line 'hello'",
            ),
            (
                "cert.txt",
                "graph6: Bw\ntype: vertex\n0 -> 0\n1 -> -1\n2 -> 0\n",
                ("verify", "--k", "3"),
                "color ids must be non-negative",
            ),
        ],
    )
    def test_malformed_file_names_its_fault(self, capsys, tmp_path, name, text, argv, message):
        path = tmp_path / name
        path.write_text(text)
        flag = "--coloring" if argv[0] == "verify" else "--graph"
        code, out, err = run_cli(capsys, *argv, flag, str(path))
        assert code == 2 and out == "" and err == f"error: {message}\n"

    def test_reduce_names_the_subset_budget(self, capsys, monkeypatch):
        # the gadget of C10 has 22 vertices, past the 20-vertex cap the
        # domination search once had; gamma(C10) = 4. Its search visits
        # thousands of sets, so a budget of 1,000 refuses it
        c10 = to_graph6(cycle_graph(10))
        for k, answer in (("3", "no\n"), ("4", "yes\n")):
            code, out, _ = run_cli(capsys, "reduce", "--graph", c10, "--k", k)
            assert code == 0 and out == answer
        monkeypatch.setattr(graphs, "MAX_SEARCH_NODES", 1000)
        code, out, err = run_cli(capsys, "reduce", "--graph", c10, "--k", "4")
        assert code == 2 and out == ""
        assert err == "error: subset search exceeds the budget of 1000 sets\n"

    def test_cut_vertex_names_the_subset_budget(self, capsys, monkeypatch, tmp_path):
        # the connected domination search on P30 visits 29 sets: the empty
        # set, then from 1 (the end 0 is a leaf) straight to the core 1..28
        graph = tmp_path / "p30.txt"
        graph.write_text(to_edge_list(path_graph(30)))
        monkeypatch.setattr(graphs, "MAX_SEARCH_NODES", 29)
        code, out, _ = run_cli(capsys, "mvx", "--graph", str(graph), "--k", "2", "--cut-vertex")
        assert code == 0 and out == "3\n"
        monkeypatch.setattr(graphs, "MAX_SEARCH_NODES", 28)
        code, out, err = run_cli(capsys, "mvx", "--graph", str(graph), "--k", "2", "--cut-vertex")
        assert code == 2 and out == ""
        assert err == "error: subset search exceeds the budget of 28 sets\n"

    def test_bound_on_a_long_path_is_quick(self, tmp_path):
        # the diameter walk expands only each new frontier: 800 BFS of 800 steps
        graph = tmp_path / "p800.txt"
        graph.write_text(to_edge_list(path_graph(800)))
        done = run_fresh("mvx", "--graph", str(graph), "--k", "2", "--bound", timeout=10)
        assert done.returncode == 0 and done.stdout == "3\n"

    @pytest.mark.parametrize("route", ["--bound", "--cut-vertex"])
    def test_walks_beyond_budget_exit_2_quickly(self, capsys, tmp_path, route):
        # one walk per vertex costs about n^3; P1000 takes close to 1 s
        graph = tmp_path / "p1001.txt"
        graph.write_text(to_edge_list(path_graph(MAX_WALK_VERTICES + 1)))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "mvx", "--graph", str(graph), "--k", "2", route)
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == "" and err == (
            f"error: walks from 1001 vertices exceed the budget of {MAX_WALK_VERTICES}\n"
        )

    def test_reduce_names_the_walk_budget(self, capsys, tmp_path):
        # the gadget of P1000 has 2,002 vertices: the walk budget refuses it
        # before the domination search starts
        graph = tmp_path / "p1000.txt"
        graph.write_text(to_edge_list(path_graph(1000)))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "reduce", "--graph", str(graph), "--k", "1")
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == "" and "walks from 2002 vertices" in err

    def test_mvx_beyond_kernel_ceiling_exits_2_quickly(self, capsys):
        c30 = to_graph6(cycle_graph(30))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "mvx", "--graph", c30, "--k", "3")
        assert time.perf_counter() - start < 3.0
        assert code == 2 and out == "" and err.startswith("error:") and "budget" in err

    def test_mx_beyond_kernel_ceiling_exits_2_quickly(self, capsys):
        c30 = to_graph6(cycle_graph(30))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "mx", "--graph", c30, "--k", "2", "--exact")
        assert time.perf_counter() - start < 3.0
        assert code == 2 and out == "" and err.startswith("error:") and "budget" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("mx", "--graph", "C~", "--k", "3", "--witness"),
            ("mvx", "--graph", "DhC", "--k", "2", "--cut-vertex", "--witness"),
            ("reduce", "--graph", "Bw", "--k", "1", "--certificates"),
            ("gadget", "--graph", "Bg", "--out"),
        ],
    )
    def test_unwritable_output_prints_nothing(self, capsys, tmp_path, argv):
        # the files are written before the result is printed
        code, out, err = run_cli(capsys, *argv, str(tmp_path / "missing" / "w.txt"))
        assert code == 2 and out == "" and err.startswith("error:")

    def test_edge_list_beyond_vertex_cap_exits_2_quickly(self, capsys, tmp_path):
        graph = tmp_path / "huge.txt"
        graph.write_text("3000000 0\n")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "mvx", "--graph", str(graph), "--k", "2", "--bound")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == "" and err.startswith("error:")


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_errors_leave_no_state_behind(self, capsys, tmp_path):
        # a gadget with a cut vertex and 10 vertices, as the reduce path sees it
        g6 = to_graph6(build_gadget(path_graph(4)))
        argv = ["mvx", "--graph", g6, "--k", "3", "--cut-vertex"]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--bound"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, err = run_cli(capsys, "mvx", "--graph", g6, "--k", "99", "--cut-vertex")
        assert code == 2 and out == "" and "out of range" in err
        code, out, err = run_cli(capsys, *argv, "--witness", str(tmp_path / "here.txt"))
        assert code == 0 and err == ""

        fresh = run_fresh(*argv, "--witness", str(tmp_path / "fresh.txt"), check=True)
        assert out == fresh.stdout == "8\n"
        assert (tmp_path / "here.txt").read_text() == (tmp_path / "fresh.txt").read_text()

    def test_help_matches_a_fresh_parser(self):
        def helps(parser):
            sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            return [parser.format_help()] + [p.format_help() for p in sub.choices.values()]

        cached = helps(cli.build_parser())
        assert len(cached) == 8
        assert cached == helps(cli.build_parser.__wrapped__())
