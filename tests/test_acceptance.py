"""Acceptance suite: thirteen exhaustive criteria, one test per criterion.

Every assertion is exact integer equality (or an exact set comparison);
nothing is tolerance-calibrated. Each test prints one PASS line on the way
out, so `pytest tests/test_acceptance.py -v -s` reads as a checklist. The
slowest pieces are the n=7 sweeps; the whole module runs in about 15 s.
Criteria 8, 9 and 13 also reach the exact search's 12-vertex ceiling: the
12 cycles and paths with 7-12 vertices and all 25 near-complete bipartite
pairs with n1 + n2 <= 12 (each with its complement), and the reduction
gadgets of 8-12 vertices, at every k.
A last test pins the SHA-256 of the survey CSV text at n = 5, 6, 7, reusing
the survey records the criteria already compute.
"""

import hashlib
import io
import random

import pytest

from monoindex.coloring import (
    EdgeColoring,
    VertexColoring,
    verify_mvx_coloring,
    verify_mx_coloring,
    vertex_mono_tree_exists,
)
from monoindex.graphs import (
    canonical_code,
    complement,
    cut_vertices,
    cycle_graph,
    enumerate_connected_graphs,
    enumerate_graphs,
    path_graph,
    to_graph6,
)
from monoindex.mvx import (
    complement_cycle_mvx,
    connected_domination_number,
    mvx_exact,
    mvx_profile,
    mvx_via_cut_vertex,
)
from monoindex.mx import construct_extremal_mx, mx_exact_bruteforce
from monoindex.reduction import build_gadget, decide_ds_via_mvx, dominating_number
from monoindex.survey import (
    build_near_complete_bipartite,
    enumerate_coconnected,
    expected_lower_bound,
    locate_F1,
    survey_bounds,
    upper_bound_applies,
    write_survey_csv,
)

import oracles


def report(criterion: int, message: str) -> None:
    print(f"PASS criterion {criterion}: {message}")


@pytest.fixture(scope="module")
def survey_records():
    return {n: survey_bounds(n) for n in (5, 6, 7)}


@pytest.fixture(scope="module")
def f1_pair():
    return locate_F1()


def sharpness_family(n: int, f1_graphs) -> set[int]:
    """Cycles, paths, their complements, and (at n=6) the F1 pair."""
    fam = {
        canonical_code(cycle_graph(n)),
        canonical_code(complement(cycle_graph(n))),
        canonical_code(path_graph(n)),
        canonical_code(complement(path_graph(n))),
    }
    if n == 6:
        fam.update(canonical_code(g) for g in f1_graphs)
    return fam


def equality_family(n: int, f1_graphs) -> set[int]:
    """Graphs whose domination sum with the complement's reaches n exactly:
    paths from n=4, cycles from n=6, and the F1 pair at n=6."""
    fam = {
        canonical_code(path_graph(n)),
        canonical_code(complement(path_graph(n))),
    }
    if n >= 6:
        fam.add(canonical_code(cycle_graph(n)))
        fam.add(canonical_code(complement(cycle_graph(n))))
    if n == 6:
        fam.update(canonical_code(g) for g in f1_graphs)
    return fam


def test_c01_closed_form_equals_bruteforce():
    checked = 0
    for n in range(2, 6):
        for g in enumerate_connected_graphs(n):
            for k in range(3, n + 1):
                assert mx_exact_bruteforce(g, k).value == g.m - g.n + 2, (n, g.edges, k)
                checked += 1
    report(1, f"edge index equals m-n+2 on all connected n<=5 ({checked} cases)")


def test_c02_constructive_witness():
    checked = 0
    for n in range(2, 8):
        for g in enumerate_connected_graphs(n):
            ec = construct_extremal_mx(g)
            assert ec.num_colors == g.m - g.n + 2, (n, g.edges)
            for k in range(3, n + 1):
                assert verify_mx_coloring(ec, k), (n, g.edges, k)
                checked += 1
    report(2, f"spanning-tree witness valid at every k on all connected n<=7 ({checked} checks)")


def test_c03_leaf_duality_and_formula():
    leaf_counts = {}
    for n in range(3, 8):
        for g in enumerate_connected_graphs(n):
            leaves = oracles.max_leaf_by_array_union_find(g).leaf_count
            leaf_counts[(n, to_graph6(g))] = leaves
            assert leaves == n - connected_domination_number(g), (n, g.edges)
    for n in range(3, 7):
        for g in enumerate_connected_graphs(n):
            assert mvx_exact(g, n).value == leaf_counts[(n, to_graph6(g))] + 1, (n, g.edges)
    g7 = list(enumerate_connected_graphs(7))
    sample = random.Random(37).sample(g7, 100)
    for g in sample:
        assert mvx_exact(g, 7).value == leaf_counts[(7, to_graph6(g))] + 1, g.edges
    report(3, "leaf count equals n - domination on all n<=7; index formula exact "
              "(full n<=6, 100 seeded samples at n=7)")


def test_c04_cut_vertex_fast_path():
    checked = 0
    for n in range(3, 7):
        for g in enumerate_connected_graphs(n):
            if not cut_vertices(g):
                continue
            leaves = oracles.max_leaf_by_array_union_find(g).leaf_count
            for k in range(2, n + 1):
                assert mvx_exact(g, k).value == leaves + 1, (n, g.edges, k)
                assert mvx_via_cut_vertex(g, k).value == leaves + 1, (n, g.edges, k)
                checked += 1
    # n = 7, 385 graphs: the fast path at every k, each witness checked
    for g in enumerate_connected_graphs(7):
        if not cut_vertices(g):
            continue
        for k in range(2, 8):
            fast = mvx_via_cut_vertex(g, k)
            assert fast.value == mvx_exact(g, k).value, (7, g.edges, k)
            assert fast.witness.num_colors == fast.value, (7, g.edges, k)
            assert verify_mvx_coloring(fast.witness, k), (7, g.edges, k)
            checked += 1
    report(4, f"cut-vertex value l(T_max)+1 matches exact search at every k, n<=7 ({checked} cases)")


def test_c05_reduction_round_trip():
    checked = 0
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            gamma = dominating_number(g)
            gamma_c = connected_domination_number(build_gadget(g))
            assert gamma_c == gamma + 1, (n, g.edges)
            for K in range(1, n + 1):
                assert (gamma <= K) == (gamma_c <= K + 1), (n, g.edges, K)
                assert decide_ds_via_mvx(g, K) == (gamma <= K), (n, g.edges, K)
                checked += 1
    report(5, f"gadget round trip and threshold decision exact on all graphs n<=6 ({checked} cases)")


def test_c06_cycle_and_path_values():
    for n in (3, 4, 5):
        assert mvx_exact(cycle_graph(n), 2).value == n
    for n in (6, 7, 8):
        assert mvx_exact(cycle_graph(n), 2).value == 3
        # one graph at a time, every k: the profile cache holds one graph
        for g in (cycle_graph(n), path_graph(n)):
            for k in range(3, n + 1):
                assert mvx_exact(g, k).value == 3, (n, g.edges, k)
    report(6, "cycle index n for n<=5 then 3; cycles and paths sit at 3 for n in 6..8, all k")


def test_c07_complement_cycle_closed_form():
    for n in (6, 7, 8):
        cc = complement(cycle_graph(n))
        for k in range(3, n + 1):
            assert complement_cycle_mvx(n, k) == mvx_exact(cc, k).value, (n, k)
    report(7, "complement-of-cycle closed form matches exact search for n in 6..8, all k")


def test_c08_lower_bounds_and_sharpness(survey_records, f1_pair):
    for n in (5, 6, 7):
        records = survey_records[n]
        assert all(r.verdict == "pass" for r in records)
        fam = sharpness_family(n, f1_pair)
        for k in range(3, n + 1):
            ks = [r for r in records if r.k == k]
            bound = expected_lower_bound(n, k)
            assert all(r.sum >= bound for r in ks), (n, k)
            minimum = min(r.sum for r in ks)
            assert minimum == bound, (n, k, minimum)
            witness_codes = {
                canonical_code(_g6_graph(r.g6)) for r in ks if r.sum == minimum
            }
            assert witness_codes & fam, (n, k)
    # the k=n sums decompose through connected domination of the pair
    for n in (6, 7):
        for r in (rec for rec in survey_records[n] if rec.k == n):
            g = _g6_graph(r.g6)
            total = connected_domination_number(g) + connected_domination_number(complement(g))
            assert r.sum == 2 * n - total + 2 and r.sum >= n + 2, (n, r.g6)
    # sharpness up to the kernel's 12-vertex ceiling: C_n and P_n with their
    # complements sum to the lower bound at every k = 3..n
    for n in range(7, 13):
        for g in (cycle_graph(n), path_graph(n)):
            sums = [a.value + b.value for a, b in zip(mvx_profile(g), mvx_profile(complement(g)))]
            assert sums[1:] == [expected_lower_bound(n, k) for k in range(3, n + 1)], (n, g)
    report(8, "lower bounds hold with zero violations for n in 5..7, are attained "
              "by the cycle/path/F1 families, and C_n, P_n attain them for n in 7..12")


def test_c09_upper_bounds_and_attainment(survey_records):
    for n in (5, 6, 7):
        for r in survey_records[n]:
            if upper_bound_applies(n, r.k):
                assert r.sum <= 2 * n - 2, (n, r.k, r.g6)
    # sharpness up to the kernel's 12-vertex ceiling: every pair with
    # 2 <= n1 <= n2 and n1 + n2 <= 12 sums to 2n - 2 at every k = 2..n
    pairs = [(n1, n2) for n1 in range(2, 7) for n2 in range(n1, 13 - n1)]
    assert len(pairs) == 25
    for n1, n2 in pairs:
        g = build_near_complete_bipartite(n1, n2)
        n = g.n
        sums = [a.value + b.value for a, b in zip(mvx_profile(g), mvx_profile(complement(g)))]
        assert sums == [2 * n - 2] * (n - 1), (n1, n2, sums)
    report(9, "upper bound 2n-2 holds for k >= ceil(n/2), n in 5..7, and all 25 "
              "near-complete bipartite pairs with n1+n2 <= 12 attain it at every k")


def test_c10_f1_recovery_and_classification(f1_pair):
    assert len(f1_pair) == 2
    a, b = f1_pair
    assert canonical_code(complement(a)) == canonical_code(b)
    excluded = {
        canonical_code(cycle_graph(6)),
        canonical_code(path_graph(6)),
        canonical_code(complement(cycle_graph(6))),
        canonical_code(complement(path_graph(6))),
    }
    for g in f1_pair:
        assert connected_domination_number(g) == 3
        assert connected_domination_number(complement(g)) == 3
        assert canonical_code(g) not in excluded
    for n in (5, 6, 7):
        at_n_plus_1 = set()
        at_n = set()
        for g in enumerate_coconnected(n):
            total = connected_domination_number(g) + connected_domination_number(complement(g))
            assert total <= n + 1, (n, to_graph6(g))
            if total == n + 1:
                at_n_plus_1.add(canonical_code(g))
            elif total == n:
                at_n.add(canonical_code(g))
        if n == 5:
            assert at_n_plus_1 == {canonical_code(cycle_graph(5))}
        else:
            assert at_n_plus_1 == set()
        assert at_n == equality_family(n, f1_pair), n
    report(10, "F1 recovered as exactly one complementary pair; the domination-sum "
               "classification is reproduced for n in 5..7")


def test_c11_property_suites():
    pool = [g for n in range(2, 7) for g in enumerate_connected_graphs(n)]

    rng = random.Random(0xC0105)
    for _ in range(500):
        g = rng.choice(pool)
        k = rng.randint(2, g.n)
        colors = [rng.randrange(g.m) for _ in range(g.m)]
        ec = EdgeColoring(g, tuple(colors)).renumbered()
        while not verify_mx_coloring(ec, k):
            ids = sorted(set(ec.colors))
            a, b = rng.sample(ids, 2)
            ec = ec.merged(a, b)
        if ec.num_colors >= 2:
            ids = sorted(set(ec.colors))
            a, b = rng.sample(ids, 2)
            assert verify_mx_coloring(ec.merged(a, b), k), (g.edges, ec.colors, k)

    rng = random.Random(0xC0106)
    for _ in range(500):
        g = rng.choice(pool)
        k = rng.randint(2, g.n)
        colors = [rng.randrange(g.n) for _ in range(g.n)]
        vc = VertexColoring(g, tuple(colors)).renumbered()
        while not verify_mvx_coloring(vc, k):
            ids = sorted(set(vc.colors))
            a, b = rng.sample(ids, 2)
            vc = vc.merged(a, b)
        if vc.num_colors >= 2:
            ids = sorted(set(vc.colors))
            a, b = rng.sample(ids, 2)
            assert verify_mvx_coloring(vc.merged(a, b), k), (g.edges, vc.colors, k)

    rng = random.Random(0xC0107)
    disagreements = 0
    for n in range(2, 7):
        for g in enumerate_connected_graphs(n):
            catalog = oracles.subtree_catalog(g)
            for _ in range(50):
                colors = tuple(rng.randrange(rng.randint(1, n)) for _ in range(n))
                vc = VertexColoring(g, colors)
                for s in range(1, 1 << n):
                    if s.bit_count() < 2:
                        continue
                    if vertex_mono_tree_exists(vc, s) != oracles.vertex_mono_tree_oracle(
                        catalog, colors, s
                    ):
                        disagreements += 1
    assert disagreements == 0

    for n in range(2, 6):
        for g in enumerate_connected_graphs(n):
            vals = [mx_exact_bruteforce(g, k).value for k in range(2, n + 1)]
            assert all(vals[i + 1] <= vals[i] for i in range(len(vals) - 1)), (n, g.edges)
    for n in range(2, 7):
        for g in enumerate_connected_graphs(n):
            vals = [mvx_exact(g, k).value for k in range(2, n + 1)]
            assert all(vals[i + 1] <= vals[i] for i in range(len(vals) - 1)), (n, g.edges)

    report(11, "merge monotonicity (2x500 seeded trials), subtree-oracle agreement "
               "(n<=6 x 50 partitions), and both index chains hold")


def test_c12_main_theorem_exhaustive():
    # mx_3 = m - n + 2 on every connected graph with n <= 7. Validity at
    # k + 1 implies validity at k, and the spanning-tree witness is valid at
    # every k, so this settles every k >= 3.
    checked = 0
    for n in range(3, 7):
        for g in enumerate_connected_graphs(n):
            assert mx_exact_bruteforce(g, 3).value == g.m - g.n + 2, (n, g.edges)
            checked += 1
    seven = 0
    for g in enumerate_connected_graphs(7):
        assert mx_exact_bruteforce(g, 3).value == g.m - g.n + 2, (7, g.edges)
        seven += 1
    assert seven == 853
    # k = 2 is outside the theorem: mc = mx_2 exceeds m - n + 2 on 23 of the
    # 112 connected six-vertex graphs
    six = list(enumerate_connected_graphs(6))
    above = [g for g in six if mx_exact_bruteforce(g, 2).value > g.m - g.n + 2]
    assert (len(six), len(above)) == (112, 23)
    report(12, f"edge index equals m-n+2 at every k >= 3 on all connected n<=6 "
               f"({checked} graphs) and on all {seven} at n=7; "
               f"mx_2 exceeds it on 23 of 112 at n=6")


def test_c13_gadget_index_by_exact_search():
    # the gadget's index at every k, by the cut-vertex formula and by exact
    # search, for every source graph with 3 <= n <= 5 (gadgets of 8-12 vertices)
    sources = checked = 0
    for n in range(3, 6):
        for g in enumerate_graphs(n):
            sources += 1
            gadget = build_gadget(g)
            profile = mvx_profile(gadget)
            for k in range(2, gadget.n + 1):
                assert profile[k - 2].value == mvx_via_cut_vertex(gadget, k).value, (n, g.edges, k)
                checked += 1
    assert sources == 49
    report(13, f"reduction gadget's index l(T_max)+1 matches exact search at every k, "
               f"all 49 sources with 3<=n<=5 ({checked} cases)")


SURVEY_CSV_SHA256 = {
    5: "13a94fc859cb628c86048367a21dd2dae65c579c35fa29be8c5efd6c1a507817",
    6: "215038ef452fb0f0cec8d40bf7699cf3cdad734562e5d89f95bcdda782017c4a",
    7: "fec4e365bae998e4c0aee9df2ec5182e18a8b49f6f0ec0e3e2d0b82659e0c49b",
}


def test_survey_csv_golden(survey_records):
    got = {}
    for n, records in survey_records.items():
        buf = io.StringIO()
        write_survey_csv(records, buf)
        got[n] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert got == SURVEY_CSV_SHA256


def _g6_graph(g6: str):
    from monoindex.graphs import parse_graph6

    return parse_graph6(g6)
