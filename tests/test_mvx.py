import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoindex.coloring import VertexColoring, verify_mvx_coloring
from monoindex.graphs import (
    BudgetError,
    Graph,
    complement,
    complete_graph,
    cut_vertices,
    cycle_graph,
    enumerate_connected_graphs,
    from_edges,
    is_connected,
    iter_bits,
    path_graph,
    star_graph,
)
from monoindex.mvx import (
    MAX_KERNEL_VERTICES,
    complement_cycle_mvx,
    connected_domination_number,
    cycle_mvc_formula,
    diameter_upper_bound,
    extract_mono_spanning_tree,
    max_leaf_heuristic,
    max_leaf_spanning_tree,
    mvx_exact,
    mvx_n_formula,
    mvx_via_cut_vertex,
)
from monoindex.partitions import set_partitions_with_blocks

import oracles


def bowtie() -> Graph:
    return from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def prism() -> Graph:
    return complement(cycle_graph(6))


class TestMaxLeaf:
    def test_examples(self):
        assert max_leaf_spanning_tree(star_graph(5)).leaf_count == 4
        assert max_leaf_spanning_tree(path_graph(5)).leaf_count == 2
        assert max_leaf_spanning_tree(prism()).leaf_count == 4

    def test_result_is_spanning_tree(self):
        res = max_leaf_spanning_tree(prism())
        assert len(res.edges) == 5
        g = from_edges(6, res.edges)
        from monoindex.graphs import is_connected

        assert is_connected(g)

    def test_budget(self):
        with pytest.raises(BudgetError, match="heuristic"):
            max_leaf_spanning_tree(complete_graph(8), max_subsets=10)

    def test_heuristic_examples(self):
        assert max_leaf_heuristic(star_graph(5)).leaf_count == 4
        assert max_leaf_heuristic(path_graph(5)).leaf_count == 2

    def test_heuristic_never_beats_exact(self):
        for n in range(2, 8):
            for g in enumerate_connected_graphs(n):
                assert (
                    max_leaf_heuristic(g).leaf_count
                    <= max_leaf_spanning_tree(g).leaf_count
                )


class TestConnectedDomination:
    def test_examples(self):
        assert connected_domination_number(cycle_graph(6)) == 4
        assert connected_domination_number(prism()) == 2
        assert connected_domination_number(star_graph(5)) == 1
        assert connected_domination_number(Graph(1, (0,))) == 0
        assert connected_domination_number(path_graph(2)) == 1

    def test_budget_and_domain(self):
        with pytest.raises(ValueError):
            connected_domination_number(from_edges(4, [(0, 1), (2, 3)]))


class TestFormulas:
    def test_mvx_n_formula(self):
        assert mvx_n_formula(path_graph(5)) == 3
        assert mvx_n_formula(star_graph(5)) == 5
        assert mvx_n_formula(cycle_graph(6)) == 3

    def test_cycle_mvc(self):
        assert cycle_mvc_formula(5) == 5
        assert cycle_mvc_formula(6) == 3
        assert cycle_mvc_formula(100) == 3
        with pytest.raises(ValueError):
            cycle_mvc_formula(2)

    def test_complement_cycle(self):
        assert complement_cycle_mvx(7, 3) == 7
        assert complement_cycle_mvx(7, 4) == 6
        assert complement_cycle_mvx(8, 3) == 8
        assert complement_cycle_mvx(8, 4) == 7
        assert complement_cycle_mvx(10, 5) == 10
        assert complement_cycle_mvx(10, 6) == 9
        with pytest.raises(ValueError):
            complement_cycle_mvx(5, 3)

    def test_diameter_bound(self):
        assert diameter_upper_bound(complete_graph(4)) == 5
        assert diameter_upper_bound(path_graph(5)) == 3
        assert diameter_upper_bound(cycle_graph(6)) == 5

    def test_diameter_bound_dominates_exact(self):
        for n in range(2, 6):
            for g in enumerate_connected_graphs(n):
                bound = diameter_upper_bound(g)
                for k in range(2, n + 1):
                    assert mvx_exact(g, k).value <= bound

    def test_cycle_mvc_agrees_with_exact(self):
        for n in range(3, 9):
            assert cycle_mvc_formula(n) == mvx_exact(cycle_graph(n), 2).value


class TestCutVertexRoute:
    def test_examples(self):
        assert mvx_via_cut_vertex(path_graph(5), 2).value == 3
        assert mvx_via_cut_vertex(bowtie(), 3).value == 5
        assert mvx_via_cut_vertex(path_graph(4), 4).value == 3

    def test_witness_is_valid_extremal(self):
        for g in (path_graph(5), bowtie(), star_graph(6)):
            for k in range(2, g.n + 1):
                res = mvx_via_cut_vertex(g, k)
                assert res.method == "cut-vertex"
                assert res.witness.num_colors == res.value
                assert verify_mvx_coloring(res.witness, k)

    def test_not_applicable(self):
        with pytest.raises(ValueError, match="cut vertex"):
            mvx_via_cut_vertex(cycle_graph(5), 3)


class TestExactSearch:
    def test_examples(self):
        assert mvx_exact(complete_graph(4), 3).value == 4
        assert mvx_exact(cycle_graph(5), 2).value == 5
        assert mvx_exact(cycle_graph(6), 3).value == 3
        assert mvx_exact(complement(cycle_graph(8)), 3).value == 8

    def test_witness_checks(self):
        res = mvx_exact(prism(), 4)
        assert res.value == 5
        assert res.method == "exact-search"
        assert res.witness.num_colors == 5
        assert verify_mvx_coloring(res.witness, 4)

    def test_k2_convention(self):
        assert mvx_exact(path_graph(2), 2).value == 2

    def test_budget(self):
        with pytest.raises(BudgetError):
            mvx_exact(complete_graph(8), 3, max_vertices=7)

    def test_cached_profile_never_bypasses_the_budget(self):
        g = complete_graph(8)
        assert mvx_exact(g, 3).value == 8
        with pytest.raises(BudgetError):
            mvx_exact(g, 3, max_vertices=g.n - 1)

    def test_kernel_ceiling_overrides_max_vertices(self):
        g = cycle_graph(MAX_KERNEL_VERTICES + 1)
        with pytest.raises(BudgetError, match=f"budget of {MAX_KERNEL_VERTICES}"):
            mvx_exact(g, 3, max_vertices=g.n)

    def test_agrees_with_rgs_oracle_exhaustively(self):
        # every connected graph with n <= 7, every k: the value of the old
        # search over all set partitions, and a witness with exactly that
        # many colors that is valid at k
        cases = 0
        for n in range(2, 8):
            for g in enumerate_connected_graphs(n):
                for k in range(2, n + 1):
                    res = mvx_exact(g, k)
                    assert res.value == oracles.mvx_by_rgs_search(g, k)[0], (n, g.edges, k)
                    assert res.witness.num_colors == res.value
                    assert verify_mvx_coloring(res.witness, k), (n, g.edges, k)
                    cases += 1
        assert cases == 5785

    @given(st.integers(0, 2**28 - 1))
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_rgs_oracle_at_n8(self, mask):
        pairs = [(u, v) for u in range(8) for v in range(u + 1, 8)]
        g = from_edges(8, [p for i, p in enumerate(pairs) if mask >> i & 1])
        if not is_connected(g):
            g = complement(g)  # the complement of a disconnected graph is connected
        for k in (2, 3, 5, 8):
            res = mvx_exact(g, k)
            assert res.value == oracles.mvx_by_rgs_search(g, k)[0], (g.edges, k)
            assert res.witness.num_colors == res.value and verify_mvx_coloring(res.witness, k)

    @pytest.mark.parametrize("n", [9, 10])
    def test_cycles_paths_and_their_complements_beyond_n8(self, n):
        cc = complement(cycle_graph(n))
        for k in range(3, n + 1):
            assert mvx_exact(cycle_graph(n), k).value == 3, (n, k)
            assert mvx_exact(path_graph(n), k).value == 3, (n, k)
            assert mvx_exact(cc, k).value == complement_cycle_mvx(n, k), (n, k)
        assert mvx_exact(cycle_graph(n), 2).value == mvx_exact(path_graph(n), 2).value == 3


class TestExtraction:
    def test_star(self):
        star = star_graph(5)
        vc = VertexColoring(star, (0, 1, 2, 3, 4))
        res = extract_mono_spanning_tree(vc, 0)
        assert set(res.edges) == set(star.edges)
        assert res.leaf_count == 4

    def test_path_stays_itself(self):
        p4 = path_graph(4)
        vc = VertexColoring(p4, (1, 0, 0, 2))
        res = extract_mono_spanning_tree(vc, 1)
        assert set(res.edges) == set(p4.edges)

    def test_bowtie_spanning_star(self):
        vc = VertexColoring(bowtie(), (0, 1, 2, 3, 4))
        res = extract_mono_spanning_tree(vc, 2)
        deg = {}
        for u, v in res.edges:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        internal = {v for v, d in deg.items() if d >= 2}
        assert internal == {2}

    def test_requires_cut_vertex_and_validity(self):
        with pytest.raises(ValueError):
            extract_mono_spanning_tree(VertexColoring(cycle_graph(5), (0,) * 5), 0)
        p6 = path_graph(6)
        with pytest.raises(ValueError):
            extract_mono_spanning_tree(VertexColoring(p6, tuple(range(6))), 2)

    def test_every_valid_coloring_small_graphs(self):
        # every connected graph with n <= 6, every coloring valid at k=2 and
        # every cut vertex: a spanning tree of g whose internal vertices wear
        # v0's color, so every vertex of another color is a leaf
        cases = 0
        for n in range(3, 7):
            partitions = [
                colors for t in range(1, n + 1) for colors in set_partitions_with_blocks(n, t)
            ]
            for g in enumerate_connected_graphs(n):
                cuts = cut_vertices(g)
                if not cuts:
                    continue
                for colors in partitions:
                    vc = VertexColoring(g, colors)
                    if not verify_mvx_coloring(vc, 2):
                        continue
                    for v0 in iter_bits(cuts):
                        cases += 1
                        res = extract_mono_spanning_tree(vc, v0)
                        assert len(res.edges) == n - 1 and set(res.edges) <= set(g.edges)
                        adj = oracles.adjacency_dict(from_edges(n, res.edges))
                        assert oracles.reachable(adj, 0, set(range(n))) == set(range(n))
                        deg = [sum(v in e for e in res.edges) for v in range(n)]
                        c = colors[v0]
                        assert all(colors[v] == c for v in range(n) if deg[v] >= 2)
                        assert res.leaf_count == deg.count(1)
                        assert res.leaf_count >= sum(1 for x in colors if x != c)
        assert cases == 6622

    def test_extremal_coloring_reaches_max_leaves(self):
        # on every small cut-vertex graph, extraction from an extremal
        # k=2 coloring matches the best possible leaf count
        from monoindex.graphs import cut_vertices, iter_bits

        for n in range(3, 7):
            for g in enumerate_connected_graphs(n):
                cuts = cut_vertices(g)
                if not cuts:
                    continue
                best = max_leaf_spanning_tree(g).leaf_count
                vc = mvx_exact(g, 2).witness
                for v0 in iter_bits(cuts):
                    res = extract_mono_spanning_tree(vc, v0)
                    assert res.leaf_count == best, (n, g.edges, v0)
