import time

import pytest

from monoindex import cli, survey
from monoindex.cli import main
from monoindex.coloring import (
    EdgeColoring,
    parse_coloring_certificate,
    write_coloring_certificate,
)
from monoindex.graphs import (
    complete_graph,
    cycle_graph,
    parse_graph6,
    path_graph,
    to_edge_list,
    to_graph6,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_k2_without_exact_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "mx", "--graph", "C~", "--k", "2")
        assert code == 2 and "exact" in err

    def test_witness_file(self, capsys, tmp_path):
        witness = tmp_path / "cert.txt"
        code, out, _ = run_cli(
            capsys, "mx", "--graph", "C~", "--k", "3", "--witness", str(witness)
        )
        assert code == 0
        cert = parse_coloring_certificate(witness.read_text())
        assert cert.num_colors == 4


class TestMvx:
    def test_exact_default(self, capsys):
        code, out, _ = run_cli(capsys, "mvx", "--graph", to_graph6(cycle_graph(6)), "--k", "3")
        assert code == 0 and out.strip() == "3"

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


class TestReduceAndGadget:
    def test_decision_yes_no(self, capsys):
        code, out, _ = run_cli(capsys, "reduce", "--graph", to_graph6(complete_graph(3)), "--k", "1")
        assert code == 0 and out.strip() == "yes"
        code, out, _ = run_cli(capsys, "reduce", "--graph", to_graph6(cycle_graph(4)), "--k", "1")
        assert code == 0 and out.strip() == "no"

    def test_emit_files(self, capsys, tmp_path):
        gadget_path = tmp_path / "gadget.g6"
        certs_path = tmp_path / "certs.txt"
        code, out, _ = run_cli(
            capsys,
            "reduce", "--graph", to_graph6(complete_graph(3)), "--k", "1",
            "--emit-gadget", str(gadget_path), "--certificates", str(certs_path),
        )
        assert code == 0
        gadget = parse_graph6(gadget_path.read_text())
        assert gadget.n == 8 and gadget.m == 16
        from monoindex.reduction import parse_domination_certificates

        certs = parse_domination_certificates(certs_path.read_text())
        assert [c.kind for c in certs] == ["dominating", "connected-dominating"]

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

    def test_survey_csv_file(self, capsys, tmp_path):
        out_path = tmp_path / "survey.csv"
        code, out, _ = run_cli(capsys, "survey", "--n", "5", "--csv", str(out_path))
        assert code == 0
        assert "records" in out
        assert out_path.read_text().count("\n") == 25

    def test_survey_find_f1(self, capsys):
        code, out, _ = run_cli(capsys, "survey", "--n", "6", "--find-f1")
        assert code == 0
        assert len(out.split()) == 2

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

    @pytest.mark.parametrize("k", ["1", "5", "99"])
    def test_mvx_bound_k_out_of_range(self, capsys, k):
        # Ch has 4 vertices; the bound route checks k like every other route
        code, out, err = run_cli(capsys, "mvx", "--graph", "Ch", "--k", k, "--bound")
        assert code == 2 and out == "" and err.startswith("error:") and "out of range" in err

    @pytest.mark.parametrize("k", ["2", "5", "99"])
    def test_survey_k_out_of_range(self, capsys, monkeypatch, k):
        def no_survey(*args, **kwargs):
            raise AssertionError("survey ran despite an out-of-range --k")

        monkeypatch.setattr(cli, "survey_bounds", no_survey)
        code, out, err = run_cli(capsys, "survey", "--n", "4", "--k", k)
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_survey_threads_below_one(self, capsys, monkeypatch, threads):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("survey enumerated despite --threads below 1")

        monkeypatch.setattr(survey, "enumerate_coconnected", no_enumeration)
        code, out, err = run_cli(capsys, "survey", "--n", "4", "--threads", threads)
        assert code == 2 and out == "" and err.startswith("error:")

    def test_verify_beyond_budget_exits_2_quickly(self, capsys, tmp_path):
        # C(40, 20) is about 1.4e11 k-sets; the verifier must refuse, not scan
        p40 = path_graph(40)
        cert = tmp_path / "cert.txt"
        cert.write_text(write_coloring_certificate(EdgeColoring(p40, (0,) * p40.m)))
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
        ],
    )
    def test_bad_certificate_element(self, capsys, tmp_path, lines, message):
        cert = tmp_path / "cert.txt"
        cert.write_text("\n".join(["graph6: Bw", *lines]) + "\n")
        code, out, err = run_cli(capsys, "verify", "--coloring", str(cert), "--k", "3")
        assert code == 2 and out == "" and err.startswith("error:") and message in err

    def test_mvx_beyond_kernel_ceiling_exits_2_quickly(self, capsys):
        # --max-vertices cannot lift the exact search past its table ceiling
        c30 = to_graph6(cycle_graph(30))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "mvx", "--graph", c30, "--k", "3", "--max-vertices", "30")
        assert time.perf_counter() - start < 3.0
        assert code == 2 and out == "" and err.startswith("error:") and "budget" in err

    def test_mx_beyond_kernel_ceiling_exits_2_quickly(self, capsys):
        # --max-edges cannot lift the exact search past its table ceiling
        c30 = to_graph6(cycle_graph(30))
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "mx", "--graph", c30, "--k", "2", "--exact", "--max-edges", "30"
        )
        assert time.perf_counter() - start < 3.0
        assert code == 2 and out == "" and err.startswith("error:") and "budget" in err

    def test_edge_list_beyond_vertex_cap_exits_2_quickly(self, capsys, tmp_path):
        graph = tmp_path / "huge.txt"
        graph.write_text("3000000 0\n")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "mvx", "--graph", str(graph), "--k", "2", "--bound")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == "" and err.startswith("error:")
