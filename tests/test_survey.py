import io

import pytest

from monoindex import mvx, survey
from monoindex.cli import main
from monoindex.coloring import VertexColoring, verify_mvx_coloring, write_coloring_certificate
from monoindex.graphs import (
    canonical_code,
    canonical_form,
    complement,
    cycle_graph,
    diameter,
    enumerate_connected_graphs,
    from_edges,
    from_edges,
    is_connected,
    path_graph,
    to_graph6,
)
from monoindex.mvx import connected_domination_number, mvx_exact, mvx_profile
from monoindex.survey import (
    SurveyRecord,
    build_near_complete_bipartite,
    enumerate_coconnected,
    expected_lower_bound,
    locate_F1,
    survey_bounds,
    upper_bound_applies,
    write_survey_csv,
)

import oracles

# the cube Q3, the Wagner graph and their two complements, in canonical form
_CUBE = from_edges(8, [(u, u ^ bit) for u in range(8) for bit in (1, 2, 4) if u < u ^ bit])
_WAGNER = from_edges(8, [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)])
CUBE_AND_WAGNER = [canonical_form(g) for g in (_CUBE, _WAGNER, complement(_CUBE), complement(_WAGNER))]


class TestCoconnected:
    def test_n4_is_exactly_p4(self):
        graphs = list(enumerate_coconnected(4))
        assert len(graphs) == 1
        assert canonical_code(graphs[0]) == canonical_code(path_graph(4))

    def test_n5_contains_c5(self):
        codes = {canonical_code(g) for g in enumerate_coconnected(5)}
        assert canonical_code(cycle_graph(5)) in codes

    def test_matches_direct_filter(self):
        direct = [
            g for g in enumerate_connected_graphs(5) if is_connected(complement(g))
        ]
        assert [g.adj for g in enumerate_coconnected(5)] == [g.adj for g in direct]

    def test_domain(self):
        with pytest.raises(ValueError):
            list(enumerate_coconnected(3))


class TestExpectedLowerBound:
    def test_examples(self):
        assert expected_lower_bound(5, 3) == 6
        assert expected_lower_bound(7, 3) == 10
        assert expected_lower_bound(7, 4) == 9
        assert expected_lower_bound(8, 3) == 11
        assert expected_lower_bound(8, 4) == 10

    def test_n6_flat(self):
        assert all(expected_lower_bound(6, k) == 8 for k in range(3, 7))

    def test_mod4_cases(self):
        assert expected_lower_bound(9, 4) == 12
        assert expected_lower_bound(9, 5) == 11
        assert expected_lower_bound(10, 5) == 13
        assert expected_lower_bound(10, 6) == 12

    def test_domain(self):
        with pytest.raises(ValueError):
            expected_lower_bound(4, 3)
        with pytest.raises(ValueError):
            expected_lower_bound(7, 2)


class TestSurvey:
    def test_n4_family(self):
        records = survey_bounds(4)
        assert len(records) == 2  # P4 only, k = 3 and 4
        assert all(r.sum == 6 for r in records)
        assert all(r.lower_bound is None and r.upper_bound is None for r in records)
        assert all(r.verdict == "pass" for r in records)

    def test_n5_sharp_at_c5(self):
        records = survey_bounds(5)
        assert all(r.verdict == "pass" for r in records)
        c5g6 = to_graph6(canonical_form(cycle_graph(5)))
        for k in range(3, 6):
            ks = [r for r in records if r.k == k]
            assert min(r.sum for r in ks) == 6
            assert any(r.g6 == c5g6 and r.sum == 6 for r in ks)

    def test_upper_bound_domain(self):
        records = survey_bounds(5)
        for r in records:
            assert (r.upper_bound is not None) == upper_bound_applies(5, r.k)

    def test_records_sorted_and_stable(self):
        records = survey_bounds(5)
        keys = [(r.n, r.g6, r.k) for r in records]
        assert keys == sorted(keys)
        first, again = io.StringIO(), io.StringIO()
        write_survey_csv(records, first)
        write_survey_csv(survey_bounds(5), again)
        assert first.getvalue() == again.getvalue()

    def test_csv_schema(self, tmp_path):
        records = survey_bounds(4)
        out = tmp_path / "survey.csv"
        with open(out, "w", newline="") as fh:
            write_survey_csv(records, fh)
        lines = out.read_text().splitlines()
        assert lines[0] == "n,k,g6,g6_complement,mvx_g,mvx_gbar,sum,lower_bound,upper_bound,verdict"
        assert len(lines) == 1 + len(records)
        assert lines[1].endswith("na,na,pass")

    def test_grade(self):
        assert SurveyRecord.grade(8, 8, 10) == "pass"
        assert SurveyRecord.grade(7, 8, None) == "fail"
        assert SurveyRecord.grade(11, 8, 10) == "fail"
        assert SurveyRecord.grade(3, None, None) == "pass"

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_matches_two_profile_oracle(self, n):
        assert survey_bounds(n) == oracles.survey_by_two_profiles(n)

    def test_kernel_searches_only_non_empty_windows(self, monkeypatch):
        # each graph and complement is routed by tau and gamma_c from k = 3:
        # of the 1,324 at n = 7, the search runs on the 76 whose window is
        # non-empty, and no witness is colored
        kernel, searched = mvx._least_excess, []

        def counted(*args):
            searched.append(args)
            return kernel(*args)

        def refuse(*args):
            raise AssertionError("a witness was colored")

        monkeypatch.setattr(mvx, "_least_excess", counted)
        monkeypatch.setattr(mvx, "_block_colors", refuse)
        survey_bounds(7)
        assert len(searched) == 76

    def test_cube_and_wagner_match_the_two_profile_oracle(self, monkeypatch):
        # the cube Q3 and the Wagner graph are both 3-regular and triangle-free
        # on 8 vertices, yet their profiles differ; each side of each pair is
        # routed on its own and must give the oracle's records
        cube, wagner = CUBE_AND_WAGNER[:2]
        assert [r.value for r in mvx_profile(cube)] == [6, 5, 5, 5, 5, 5, 5]
        assert [r.value for r in mvx_profile(wagner)] == [8, 6, 6, 6, 6, 6, 6]
        monkeypatch.setattr(survey, "enumerate_coconnected", lambda n: iter(CUBE_AND_WAGNER))
        records = survey_bounds(8)
        assert len(records) == 4 * 6
        assert records == oracles.survey_by_two_profiles(8)

    def test_n8_runs_without_opt_in(self, capsys, monkeypatch):
        monkeypatch.setattr(survey, "enumerate_coconnected", lambda n: iter(CUBE_AND_WAGNER))
        assert main(["survey", "--n", "8"]) == 0
        out = io.StringIO()
        write_survey_csv(survey_bounds(8), out)
        assert capsys.readouterr().out == out.getvalue()
        assert len(out.getvalue().splitlines()) == 1 + 4 * 6

    def test_pair_identity_n6(self):
        # for co-connected pairs the k=n sum equals 2n+2 minus the
        # connected-domination sum of the pair
        from monoindex.graphs import parse_graph6

        records = [r for r in survey_bounds(6) if r.k == 6]
        for r in records:
            g = parse_graph6(r.g6)
            gbar = complement(g)
            total = connected_domination_number(g) + connected_domination_number(gbar)
            assert r.sum == 2 * 6 - total + 2
            assert r.sum >= 6 + 2


class TestNearCompleteBipartite:
    def test_2_2_is_p4(self):
        g = build_near_complete_bipartite(2, 2)
        assert canonical_code(g) == canonical_code(path_graph(4))

    def test_examples(self):
        g = build_near_complete_bipartite(2, 3)
        assert g.n == 5 and g.m == 5
        assert diameter(g) == 3 and diameter(complement(g)) == 3
        assert is_connected(g) and is_connected(complement(g))
        sums = [
            mvx_exact(g, k).value + mvx_exact(complement(g), k).value for k in (3, 4, 5)
        ]
        assert sums == [8, 8, 8]

    def test_domain(self):
        with pytest.raises(ValueError):
            build_near_complete_bipartite(1, 3)


class TestLocateF1:
    def test_exactly_one_complementary_pair(self):
        found = locate_F1()
        assert len(found) == 2
        a, b = found
        assert canonical_code(complement(a)) == canonical_code(b)
        for g in found:
            assert connected_domination_number(g) == 3
            assert connected_domination_number(complement(g)) == 3
            assert canonical_code(g) not in {
                canonical_code(cycle_graph(6)),
                canonical_code(path_graph(6)),
                canonical_code(complement(cycle_graph(6))),
                canonical_code(complement(path_graph(6))),
            }

    def test_attains_flat_bound(self):
        for g in locate_F1():
            gbar = complement(g)
            for k in range(3, 7):
                assert mvx_exact(g, k).value + mvx_exact(gbar, k).value == 8


def paley_graph(q: int):
    """Vertices Z_q, q a prime with q = 1 mod 4; u and v are adjacent when
    v - u is a nonzero square mod q. The graph is self-complementary."""
    squares = {x * x % q for x in range(1, q)}
    return from_edges(
        q, [(u, v) for u in range(q) for v in range(u + 1, q) if (v - u) % q in squares]
    )


class TestUpperBoundBelowItsThreshold:
    """The paper claims mvx_k(G) + mvx_k(complement) <= 2n - 2 only for
    k >= ceil(n/2), which is 7 at n = 13. Paley(13) exceeds it at k = 3:
    every 3-set lies in one closed neighbourhood on both sides, so the
    all-distinct coloring is valid and mvx_3 = n = 13 on each, a sum of
    26 > 24."""

    def pair(self):
        g = paley_graph(13)
        assert [v for v in range(13) if g.has_edge(0, v)] == [1, 3, 4, 9, 10, 12]
        return g, complement(g)

    def test_paley13_is_self_complementary_and_exceeds_at_k3(self):
        g, gbar = self.pair()
        assert canonical_code(g) == canonical_code(gbar)
        assert not upper_bound_applies(13, 3) and upper_bound_applies(13, 7)
        for h in (g, gbar):
            distinct = VertexColoring(h, tuple(range(13)))
            assert verify_mvx_coloring(distinct, 3)
            assert not verify_mvx_coloring(distinct, 4)

    def test_paley13_certificates_through_verify(self, tmp_path, capsys):
        for side, h in zip(("g", "gbar"), self.pair()):
            cert = tmp_path / f"{side}.txt"
            cert.write_text(write_coloring_certificate(VertexColoring(h, tuple(range(13)))))
            for k, code, verdict in ((3, 0, "valid"), (4, 1, "invalid")):
                assert main(["verify", "--coloring", str(cert), "--k", str(k)]) == code
                assert capsys.readouterr().out == verdict + "\n"
