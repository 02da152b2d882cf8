import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from monoindex import coloring, mx
from monoindex.coloring import (
    MAX_KERNEL_VERTICES,
    EdgeColoring,
    normalize_to_forest,
    verify_mx_coloring,
)
from monoindex.graphs import (
    BudgetError,
    Graph,
    complete_graph,
    cycle_graph,
    enumerate_connected_graphs,
    from_edges,
    is_connected,
    mask_from,
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
    spans = [
        mask_from(v for e in edges for v in e)
        for edges in oracles.edges_by_color(ec).values()
        if len(edges) >= 2
    ]
    return all((a & b).bit_count() <= 1 for i, a in enumerate(spans) for b in spans[i + 1 :])


def one_edge_classes(ec: EdgeColoring) -> int:
    return sum(len(edges) == 1 for edges in oracles.edges_by_color(ec).values())


class TestFormula:
    def test_examples(self):
        assert mx_k_formula(path_graph(4), 3) == 1
        assert mx_k_formula(cycle_graph(5), 3) == 2
        assert mx_k_formula(complete_graph(4), 3) == 4

    def test_domain(self):
        with pytest.raises(ValueError, match="k=2"):
            mx_k_formula(complete_graph(4), 2)
        # at n = 2 the index arguments force k = 2
        with pytest.raises(ValueError, match="covers 3 <= k <= n only"):
            mx_k_formula(path_graph(2), 2)
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
                assert oracles.all_classes_trees(ec)
                assert is_simple(ec)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            construct_extremal_mx(from_edges(4, [(0, 1), (2, 3)]))

    def test_one_vertex_has_no_colors(self):
        assert construct_extremal_mx(Graph(1, (0,))).colors == ()


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
        assert one_edge_classes(out) == one_edge_classes(ec) + 1
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

    def test_rejects_invalid_input(self):
        with pytest.raises(ValueError, match="input coloring is not valid at k=3"):
            simplify_coloring(EdgeColoring(path_graph(3), (0, 1)), 3)

    def test_rejects_non_forest(self):
        c4 = cycle_graph(4)
        with pytest.raises(ValueError, match="normalize"):
            simplify_coloring(EdgeColoring(c4, (0, 0, 0, 0)), 3)

    @pytest.mark.parametrize("recolor", [normalize_to_forest, simplify_coloring])
    def test_checks_validity_twice(self, monkeypatch, recolor):
        # once on the input and once on the output; merged classes only grow
        # monochromatic components, so simplification checks nothing between
        k4 = complete_graph(4)
        ec = EdgeColoring.from_map(
            k4, {(0, 1): 0, (1, 2): 0, (0, 3): 1, (1, 3): 1, (2, 3): 1, (0, 2): 2}
        )
        verify, checked = coloring.verify_mx_coloring, []

        def counting(checked_ec, k):
            checked.append(checked_ec.colors)
            return verify(checked_ec, k)

        monkeypatch.setattr(coloring, "verify_mx_coloring", counting)
        monkeypatch.setattr(mx, "verify_mx_coloring", counting)
        out = recolor(ec, 3)
        assert checked == [ec.colors, out.colors]


class TestAgainstFreshColorRecolorings:
    """``normalize_to_forest`` and ``simplify_coloring`` against the
    recolorings they replaced, kept as ``oracles.normalize_by_fresh_colors``
    and ``oracles.simplify_by_pairs``."""

    @staticmethod
    def valid_colorings(g, rng):
        # random partitions kept when valid at a random k, then a witness of
        # the exact search with pairs of its colors merged, valid at its k
        for _ in range(6):
            k, c = rng.randint(2, g.n), rng.randint(1, max(1, g.m // 2))
            ec = EdgeColoring(g, tuple(rng.randrange(c) for _ in range(g.m)))
            if verify_mx_coloring(ec, k):
                yield ec, k
        k = rng.randint(2, g.n)
        ec = mx_exact_bruteforce(g, k).witness
        for _ in range(3):
            if ec.num_colors < 2:
                break
            ec = ec.merged(*rng.sample(sorted(set(ec.colors)), 2))
            yield ec, k

    def test_same_colors_on_seeded_colorings(self):
        # every connected graph with n <= 6 and a sample of 40 at n = 7
        graphs = [g for n in range(2, 7) for g in enumerate_connected_graphs(n)]
        graphs += random.Random(7).sample(list(enumerate_connected_graphs(7)), 40)
        cases = normalized = simplified = reordered = 0
        for g in graphs:
            for ec, k in self.valid_colorings(g, random.Random(str(g.edges))):
                forest = normalize_to_forest(ec, k)
                assert forest.colors == oracles.normalize_by_fresh_colors(ec, k).colors, (
                    g.edges, ec.colors, k)
                simple = simplify_coloring(forest, k)
                assert simple.colors == oracles.simplify_by_pairs(forest, k).colors, (
                    g.edges, forest.colors, k)
                assert is_simple(simple) and simple.num_colors >= forest.num_colors
                # the same forest with its ids reversed: classes now first
                # appear in descending id, and the result must not change
                top = max(forest.colors)
                reversed_ids = EdgeColoring(g, tuple(top - c for c in forest.colors))
                assert simplify_coloring(reversed_ids, k).colors == simple.colors, (
                    g.edges, reversed_ids.colors, k)
                assert oracles.simplify_by_pairs(reversed_ids, k).colors == simple.colors, (
                    g.edges, reversed_ids.colors, k)
                cases += 1
                normalized += forest.colors != ec.renumbered().colors
                simplified += simple.colors != forest.colors
                reordered += top >= 1
        # the counts follow the exact witness fed in
        assert (cases, normalized, simplified) == (951, 767, 309)
        assert reordered == 900  # cases with two or more colors, whose order the reversal changes


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
        # only MAX_KERNEL_VERTICES bounds the search: K9, with more subtrees
        # than a subtree list could hold, and K12 answer, each with a witness
        for n, k, value in ((9, 2, 36), (9, 3, 29), (MAX_KERNEL_VERTICES, 3, 56)):
            res = mx_exact_bruteforce(complete_graph(n), k)
            assert res.value == value
            assert res.witness.num_colors == value and verify_mx_coloring(res.witness, k)
        assert mx_exact_bruteforce(complete_graph(7), 3).value == 16

    def test_complete_graph_mc(self):
        # every pair is adjacent, so all-distinct is fine at k=2
        assert mx_exact_bruteforce(complete_graph(4), 2).value == 6

    def test_kernel_ceiling_overrides_max_edges(self):
        # no budget parameter is left to override the ceiling
        g = cycle_graph(MAX_KERNEL_VERTICES + 1)
        with pytest.raises(TypeError):
            mx_exact_bruteforce(g, 2, max_edges=g.m)
        with pytest.raises(BudgetError, match=f"budget of {MAX_KERNEL_VERTICES}"):
            mx_exact_bruteforce(g, 2)

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

    def test_same_value_as_eager_kernel_and_a_valid_witness(self):
        # one tree per connected vertex set, blocks listed on demand, against
        # every subtree, blocks listed for every excess up to e: equal values,
        # and a witness with that many colors valid at k, on every connected
        # graph with n <= 7 at k = 2 and 3
        cases = 0
        for n in range(2, 8):
            for g in enumerate_connected_graphs(n):
                for k in range(2, min(n, 3) + 1):
                    res = mx_exact_bruteforce(g, k)
                    assert res.value == oracles.mx_by_eager_kernel(g, k)[0], (n, g.edges, k)
                    assert res.witness.num_colors == res.value
                    assert verify_mx_coloring(res.witness, k), (n, g.edges, k)
                    cases += 1
        assert cases == 1989

    def test_blocks_asked_for_on_demand(self, monkeypatch):
        # the kernel asks for the trees of excess x holding target s at most
        # once, never below the least excess of a tree holding a k-set nor at
        # the spanning tree's n - 2, and only for what the eager kernel asked
        # for too, with the same result
        kernel, totals = mx._least_excess, [0, 0]

        def spy(n, cover, holding, targets, low, least, ceiling):
            lazy, eager = [], []
            found = kernel(n, cover, lambda s, x: lazy.append((s, x)) or holding(s, x),
                           targets, low, least, ceiling)
            assert found == oracles.least_excess_eager(
                n, cover, lambda s, x: eager.append((s, x)) or holding(s, x),
                targets, low, least, ceiling)
            assert len(lazy) == len(set(lazy)) and set(lazy) <= set(eager)
            assert ceiling[0] == n - 2 and all(least <= x < n - 2 for _, x in lazy)
            totals[0] += len(lazy)
            totals[1] += len(eager)
            return found

        monkeypatch.setattr(mx, "_least_excess", spy)
        for g in enumerate_connected_graphs(6):
            for k in (2, 4, 6):
                mx_exact_bruteforce(g, k)
        assert totals[0] < totals[1]

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
