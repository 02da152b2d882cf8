import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from monoindex.coloring import (
    MAX_KERNEL_VERTICES,
    EdgeColoring,
    color_classes,
    verify_mx_coloring,
)
from monoindex.graphs import (
    BudgetError,
    complete_graph,
    cycle_graph,
    enumerate_connected_graphs,
    from_edges,
    is_connected,
    parse_graph6,
    path_graph,
)
from monoindex.mx import (
    construct_extremal_mx,
    mx_exact_bruteforce,
    mx_k_formula,
    simplify_coloring,
)

import oracles


def is_simple(ec: EdgeColoring) -> bool:
    classes = [c for c in color_classes(ec) if not c.trivial]
    return all(
        (a.vertices & b.vertices).bit_count() <= 1
        for i, a in enumerate(classes)
        for b in classes[i + 1 :]
    )


class TestFormula:
    def test_examples(self):
        assert mx_k_formula(path_graph(4), 3) == 1
        assert mx_k_formula(cycle_graph(5), 3) == 2
        assert mx_k_formula(complete_graph(4), 3) == 4

    def test_domain(self):
        with pytest.raises(ValueError, match="k=2"):
            mx_k_formula(complete_graph(4), 2)
        with pytest.raises(ValueError):
            mx_k_formula(complete_graph(4), 5)
        with pytest.raises(ValueError):
            mx_k_formula(from_edges(4, [(0, 1), (2, 3)]), 3)


class TestConstruction:
    def test_tree_single_color(self):
        ec = construct_extremal_mx(path_graph(4))
        assert ec.num_colors == 1 and set(ec.colors) == {0}

    def test_c5(self):
        ec = construct_extremal_mx(cycle_graph(5))
        assert ec.num_colors == 2
        assert verify_mx_coloring(ec, 3)

    def test_k4(self):
        ec = construct_extremal_mx(complete_graph(4))
        assert ec.num_colors == 4
        assert verify_mx_coloring(ec, 3) and verify_mx_coloring(ec, 4)

    def test_output_is_simple_forest(self):
        for n in range(2, 6):
            for g in enumerate_connected_graphs(n):
                ec = construct_extremal_mx(g)
                assert all(c.is_tree for c in color_classes(ec))
                assert is_simple(ec)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            construct_extremal_mx(from_edges(4, [(0, 1), (2, 3)]))


class TestSimplify:
    def test_already_simple_unchanged(self):
        ec = construct_extremal_mx(cycle_graph(5)).renumbered()
        assert simplify_coloring(ec, 3).colors == ec.colors

    def test_two_vertex_overlap_keeps_count_adds_trivial(self):
        k4 = complete_graph(4)
        # nontrivial trees {01,12} and {02,23} share vertices {0,2}; valid at k=2
        ec = EdgeColoring.from_map(
            k4, {(0, 1): 0, (1, 2): 0, (0, 2): 1, (2, 3): 1, (0, 3): 2, (1, 3): 3}
        )
        assert verify_mx_coloring(ec, 2)
        out = simplify_coloring(ec, 2)
        assert out.num_colors == ec.num_colors
        trivial_before = sum(1 for c in color_classes(ec) if c.trivial)
        trivial_after = sum(1 for c in color_classes(out) if c.trivial)
        assert trivial_after == trivial_before + 1
        assert is_simple(out)
        assert verify_mx_coloring(out, 2)

    def test_three_vertex_overlap_gains_colors(self):
        k4 = complete_graph(4)
        # trees {01,12} and {03,13,23} share 3 vertices; valid at k=3
        ec = EdgeColoring.from_map(
            k4, {(0, 1): 0, (1, 2): 0, (0, 3): 1, (1, 3): 1, (2, 3): 1, (0, 2): 2}
        )
        assert verify_mx_coloring(ec, 3)
        out = simplify_coloring(ec, 3)
        assert out.num_colors > ec.num_colors
        assert is_simple(out)
        assert verify_mx_coloring(out, 3)

    def test_rejects_non_forest(self):
        c4 = cycle_graph(4)
        with pytest.raises(ValueError, match="normalize"):
            simplify_coloring(EdgeColoring(c4, (0, 0, 0, 0)), 3)


class TestBruteforce:
    def test_examples(self):
        assert mx_exact_bruteforce(cycle_graph(5), 3).value == 2
        assert mx_exact_bruteforce(path_graph(5), 4).value == 1
        assert mx_exact_bruteforce(cycle_graph(4), 2).value >= 2

    def test_witness_checks(self):
        res = mx_exact_bruteforce(complete_graph(4), 3)
        assert res.value == 4
        assert res.witness.num_colors == 4
        assert verify_mx_coloring(res.witness, 3)

    def test_matches_formula_small(self):
        for n in (3, 4):
            for g in enumerate_connected_graphs(n):
                for k in range(3, n + 1):
                    assert mx_exact_bruteforce(g, k).value == mx_k_formula(g, k)

    def test_budget(self):
        with pytest.raises(BudgetError):
            mx_exact_bruteforce(complete_graph(5), 3, max_edges=9)

    def test_complete_graph_mc(self):
        # every pair is adjacent, so all-distinct is fine at k=2
        assert mx_exact_bruteforce(complete_graph(4), 2).value == 6

    def test_kernel_ceiling_overrides_max_edges(self):
        g = cycle_graph(MAX_KERNEL_VERTICES + 1)
        with pytest.raises(BudgetError, match=f"budget of {MAX_KERNEL_VERTICES}"):
            mx_exact_bruteforce(g, 2, max_edges=g.m)

    def test_budget_admits_k6(self):
        assert mx_exact_bruteforce(complete_graph(6), 2).value == 15
        assert mx_exact_bruteforce(complete_graph(6), 3).value == 11


class TestAgainstPartitionSearch:
    """The subtree-family search against the old search over every edge
    partition, kept as ``oracles.mx_by_rgs_search``."""

    def test_agrees_exhaustively(self):
        # every connected graph with n <= 6 and m <= 8, every k: equal values,
        # and a witness with exactly that many colors that is valid at k
        cases = 0
        for n in range(2, 7):
            for g in enumerate_connected_graphs(n):
                if g.m > 8:
                    continue
                for k in range(2, n + 1):
                    res = mx_exact_bruteforce(g, k)
                    assert res.value == oracles.mx_by_rgs_search(g, k)[0], (n, g.edges, k)
                    assert res.witness.num_colors == res.value
                    assert verify_mx_coloring(res.witness, k), (n, g.edges, k)
                    cases += 1
        assert cases == 399

    def test_last_tree_may_spend_exactly_the_least_excess(self):
        # mx_2 = 8 here needs a family whose last tree has the least excess a
        # tree holding a target can have; a prune off by one misses it
        g = parse_graph6("EL~o")
        res = mx_exact_bruteforce(g, 2)
        assert res.value == oracles.mx_by_rgs_search(g, 2)[0] == 8
        assert res.witness.num_colors == 8 and verify_mx_coloring(res.witness, 2)

    @given(st.integers(5, 7), st.integers(9, 10), st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=12, deadline=None)
    def test_agrees_at_nine_and_ten_edges(self, n, m, seed, data):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        assume(m <= len(pairs))
        g = from_edges(n, random.Random(seed).sample(pairs, m))
        assume(is_connected(g))
        k = data.draw(st.integers(2, n))
        res = mx_exact_bruteforce(g, k)
        assert res.value == oracles.mx_by_rgs_search(g, k)[0], (g.edges, k)
        assert res.witness.num_colors == res.value and verify_mx_coloring(res.witness, k)
