import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monoindex
from monoindex import mvx
from monoindex.coloring import (
    MAX_KERNEL_VERTICES,
    VertexColoring,
    _down_sets,
    verify_mvx_coloring,
    verify_mx_coloring,
)
from monoindex.graphs import (
    BudgetError,
    Graph,
    closed_neighborhood,
    complement,
    complete_graph,
    connected_components,
    cut_vertices,
    cycle_graph,
    diameter,
    edge_forest,
    enumerate_connected_graphs,
    enumerate_graphs,
    from_edges,
    is_connected,
    iter_bits,
    mask_from,
    parse_graph6,
    path_graph,
    star_graph,
)
from monoindex.mvx import (
    _mod4_threshold,
    complement_cycle_mvx,
    connected_domination_number,
    cycle_mvc_formula,
    diameter_upper_bound,
    extract_mono_spanning_tree,
    max_leaf_spanning_tree,
    minimum_connected_dominating_set,
    mvx_exact,
    mvx_n_formula,
    mvx_via_cut_vertex,
)
from monoindex.mx import mx_exact_bruteforce
from monoindex.partitions import set_partitions_with_blocks
from monoindex.reduction import build_gadget, decide_ds_via_mvx

import oracles


def bowtie() -> Graph:
    return from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def prism() -> Graph:
    return complement(cycle_graph(6))


def assert_max_leaf_tree(g: Graph, leaves: int) -> None:
    # max_leaf_spanning_tree gives n - 1 edges of g, which edge_forest keeps
    # whole, with the given leaf count
    res = max_leaf_spanning_tree(g)
    assert len(res.edges) == g.n - 1 and set(res.edges) <= set(g.edges), g.edges
    assert all(edge_forest(res.edges)[0]), g.edges
    assert res.leaf_count == leaves, g.edges


class TestMaxLeaf:
    def test_examples(self):
        assert max_leaf_spanning_tree(star_graph(5)).leaf_count == 4
        assert max_leaf_spanning_tree(path_graph(5)).leaf_count == 2
        assert max_leaf_spanning_tree(prism()).leaf_count == 4

    def test_domain(self):
        with pytest.raises(ValueError, match="spanning trees need a connected graph on >= 2"):
            max_leaf_spanning_tree(from_edges(4, [(0, 1), (2, 3)]))

    def test_result_is_spanning_tree(self):
        res = max_leaf_spanning_tree(prism())
        assert len(res.edges) == 5
        g = from_edges(6, res.edges)
        from monoindex.graphs import is_connected

        assert is_connected(g)

    def test_scan_matches_array_union_find(self):
        # every connected graph with n <= 7
        for n in range(2, 8):
            for g in enumerate_connected_graphs(n):
                assert_max_leaf_tree(g, oracles.max_leaf_by_array_union_find(g).leaf_count)

    def test_sparse_graphs_match_array_union_find(self):
        # seeded trees plus 0-3 edges, n = 8..60, with shuffled labels: the
        # oracle scans at most C(n + 2, n - 1) edge sets on each
        rng = random.Random(33)
        for n in range(8, 61):
            label = rng.sample(range(n), n)
            edges = {tuple(sorted((label[rng.randrange(v)], label[v]))) for v in range(1, n)}
            while len(edges) < n - 1 + (n % 4):
                u, v = rng.sample(range(n), 2)
                edges.add((min(u, v), max(u, v)))
            g = from_edges(n, sorted(edges))
            assert_max_leaf_tree(g, oracles.max_leaf_by_array_union_find(g).leaf_count)

    def test_budget(self):
        # past the oracle's MAX_TREE_SUBSETS: C(36, 8) = 30,260,340 edge sets
        # of K9 and C(32, 15) = 565,722,720 of the 4-cube Q4
        q4 = from_edges(16, [(u, u | 1 << b) for u in range(16) for b in range(4) if not u >> b & 1])
        assert_max_leaf_tree(complete_graph(9), 8)
        assert_max_leaf_tree(q4, 10)


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
        # load-bearing: the scan route would give 3 on P2, but mvx_2(P2) = 2
        with pytest.raises(ValueError, match="the spanning-tree formula needs n >= 3"):
            mvx_n_formula(path_graph(2))

    def test_mvx_n_formula_builds_no_tree(self, monkeypatch):
        # the formula reads n - gamma_c + 1 off connected domination and
        # builds no spanning tree
        def refuse(*args, **kwargs):
            raise AssertionError("max_leaf_spanning_tree was called")

        monkeypatch.setattr(mvx, "max_leaf_spanning_tree", refuse)
        assert mvx_n_formula(complete_graph(8)) == 8

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
        with pytest.raises(ValueError, match=r"^k=2 out of range 3\.\.8$"):
            complement_cycle_mvx(8, 2)

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
                assert res.witness.num_colors == res.value
                assert verify_mvx_coloring(res.witness, k)

    def test_not_applicable(self):
        with pytest.raises(ValueError, match="cut vertex"):
            mvx_via_cut_vertex(cycle_graph(5), 3)

    @pytest.mark.parametrize("source", [path_graph(4), star_graph(4)])
    def test_dense_gadget_builds_no_tree(self, monkeypatch, source):
        # the decision reads gamma_c off connected domination on the 10-vertex
        # gadget and builds no spanning tree
        calls = []

        def recording(g, *args, **kwargs):
            calls.append(g)
            return max_leaf_spanning_tree(g, *args, **kwargs)

        monkeypatch.setattr(mvx, "max_leaf_spanning_tree", recording)
        assert decide_ds_via_mvx(source, 2)
        assert calls == []

    def test_long_tree_past_the_domination_cap(self):
        # 30 vertices, past the 20-vertex cap the domination search once had:
        # grown one inner boundary vertex at a time, P30's search visits 29 sets
        p30 = path_graph(30)
        for k in (2, 3, 30):
            res = mvx_via_cut_vertex(p30, k)
            assert res.value == 3
            assert verify_mvx_coloring(res.witness, k)

    def test_trees_within_the_real_budget(self):
        # a tree's minimum connected dominating set is its non-leaves. Spiders
        # of 20 legs with two and three edges, numbered by BFS, and seeded
        # trees of up to 60 vertices with shuffled labels: a search that grew
        # into leaves, or past a barred vertex that cuts off part of the tree,
        # would visit far more than MAX_SEARCH_NODES sets on these
        trees = [
            from_edges(1 + 20 * legs, [(max(v - 20, 0), v) for v in range(1, 1 + 20 * legs)])
            for legs in (2, 3)
        ]
        rng = random.Random(32)
        for n in range(3, 61):
            label = rng.sample(range(n), n)
            trees.append(from_edges(n, [(label[rng.randrange(v)], label[v]) for v in range(1, n)]))
        for t in trees:
            core = minimum_connected_dominating_set(t)
            leaves = oracles.max_leaf_by_array_union_find(t).leaf_count
            assert core == sum(1 << v for v in range(t.n) if t.degree(v) > 1), t.edges
            assert t.n - core.bit_count() == leaves
            res = mvx_via_cut_vertex(t, 2)
            assert res.value == leaves + 1 and verify_mvx_coloring(res.witness, 2)

    def test_connected_domination_finds_the_most_leaves(self):
        # the minimum connected dominating set leaves the most leaves,
        # n - |core|, and is connected and dominating
        checked = 0
        for n in range(3, 8):
            for g in enumerate_connected_graphs(n):
                if cut_vertices(g):
                    core = minimum_connected_dominating_set(g)
                    leaves = oracles.max_leaf_by_array_union_find(g).leaf_count
                    assert n - core.bit_count() == leaves, g.edges
                    assert connected_components(g, core) == [core]
                    assert closed_neighborhood(g, core) == g.full_mask
                    checked += 1
        assert checked == 1 + 3 + 11 + 56 + 385

    def test_domination_route_builds_no_tree(self, monkeypatch):
        # the value and witness are read off the core, on a gadget and on
        # K8, without building a spanning tree (each one is built by BFS)
        def refuse(*args, **kwargs):
            raise AssertionError("bfs_tree called")

        monkeypatch.setattr(mvx, "bfs_tree", refuse)
        res = mvx_via_cut_vertex(build_gadget(path_graph(4)), 2)
        assert res.value == 10 - 3 + 1 and verify_mvx_coloring(res.witness, 2)
        assert mvx_n_formula(complete_graph(8)) == 8


class TestExactSearch:
    def test_examples(self):
        assert mvx_exact(complete_graph(4), 3).value == 4
        assert mvx_exact(cycle_graph(5), 2).value == 5
        assert mvx_exact(cycle_graph(6), 3).value == 3
        assert mvx_exact(complement(cycle_graph(8)), 3).value == 8

    def test_witness_checks(self):
        res = mvx_exact(prism(), 4)
        assert res.value == 5
        assert res.witness.num_colors == 5
        assert verify_mvx_coloring(res.witness, 4)

    def test_k2_convention(self):
        assert mvx_exact(path_graph(2), 2).value == 2

    def test_budget(self):
        # the kernel ceiling is the one limit: n = 12 answers, n = 13 is refused
        assert mvx_exact(cycle_graph(MAX_KERNEL_VERTICES), 3).value == 3
        with pytest.raises(BudgetError):
            mvx_exact(complete_graph(MAX_KERNEL_VERTICES + 1), 3)

    def test_cached_profile_never_bypasses_the_budget(self):
        # refused also right after a cached answer for the graph below the ceiling
        assert mvx_exact(cycle_graph(MAX_KERNEL_VERTICES), 3).value == 3
        with pytest.raises(BudgetError):
            mvx_exact(cycle_graph(MAX_KERNEL_VERTICES + 1), 3)

    def test_kernel_ceiling_overrides_max_vertices(self):
        # no budget parameter is left to override the ceiling
        g = cycle_graph(MAX_KERNEL_VERTICES + 1)
        with pytest.raises(TypeError):
            mvx_exact(g, 3, max_vertices=g.n)
        with pytest.raises(BudgetError, match=f"budget of {MAX_KERNEL_VERTICES}"):
            mvx_exact(g, 3)

    def test_argument_errors_keep_type_and_message(self):
        # mvx_exact checks only k itself; the profile checks the graph
        disconnected = from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected graphs only"):
            mvx_exact(disconnected, 1)
        with pytest.raises(ValueError, match="connected graphs only"):
            mvx_exact(disconnected, 2)
        with pytest.raises(ValueError, match=r"^k=1 out of range 2\.\.13$"):
            mvx_exact(cycle_graph(13), 1)
        with pytest.raises(BudgetError, match="13 vertices exceeds the budget of 12"):
            mvx_exact(cycle_graph(13), 3)
        with pytest.raises(ValueError, match=r"^k=9 out of range 2\.\.4$"):
            mvx_exact(path_graph(4), 9)

    def test_one_graph_check_for_every_k(self, monkeypatch):
        check, calls = mvx._check_index_args, []
        monkeypatch.setattr(mvx, "_check_index_args", lambda g, k: calls.append(k) or check(g, k))
        mvx.mvx_profile.cache_clear()
        g = prism()
        assert [mvx_exact(g, k).value for k in range(2, 7)] == [6, 6, 5, 5, 5]
        assert calls == [2]  # the profile's own check, on its one miss

    def test_results_built_once_per_profile(self):
        # every k reads the profile's own results: a repeated call returns the
        # same object, and distinct colorings get distinct witnesses, one
        # each; after the profile cache is cleared the results are built again
        g = prism()
        first = [mvx_exact(g, k) for k in range(2, 7)]
        assert [mvx_exact(g, k) for k in range(2, 7)] == first
        assert all(mvx_exact(g, k) is r is mvx.mvx_profile(g)[k - 2] for k, r in enumerate(first, 2))
        assert len({id(r.witness) for r in first}) == len({r.witness.colors for r in first})
        mvx.mvx_profile.cache_clear()
        again = mvx_exact(g, 4)
        assert again == first[2] and again is not first[2]

    def test_profile_agrees_with_mask_scan_oracle(self):
        # values of the route and the bit-parallel tables against the mask
        # loop that searches every k, and a witness with exactly that many
        # colors that is valid at k: every connected graph with n <= 7, the
        # 49 reduction gadgets (8-12 vertices), C12, P12, the complement of
        # C12 and 100 seeded graphs with 9-12 vertices
        graphs = [g for n in range(2, 8) for g in enumerate_connected_graphs(n)]
        assert len(graphs) == 995
        graphs += [build_gadget(g) for n in range(3, 6) for g in enumerate_graphs(n)]
        graphs += [cycle_graph(12), path_graph(12), complement(cycle_graph(12))]
        rng = random.Random(13)
        while len(graphs) < 995 + 49 + 3 + 100:
            n = rng.randint(9, 12)
            p = rng.uniform(0.15, 0.6)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            g = from_edges(n, pairs)
            graphs.append(g if is_connected(g) else complement(g))
        for g in graphs:
            found = mvx.mvx_profile(g)
            values = [v for v, _ in oracles.mvx_profile_by_mask_scan(g)]
            assert [r.value for r in found] == values, g.edges
            for k, (value, witness) in enumerate(found, 2):
                assert witness.num_colors == value and verify_mvx_coloring(witness, k), (g.edges, k)

    def test_blocks_asked_for_on_demand(self, monkeypatch):
        # the kernel asks for the blocks of excess x holding target s at most
        # once, never at excess 0 nor at the core's excess gamma_c - 1, and
        # only for what the eager kernel asked for too, with the same result:
        # over every connected graph with n <= 7 it asks for fewer; each
        # block it is handed carries the vertex sets inside N[A]. No family
        # has excess below diam - 2 (mvx_k <= n - diam + 2), so the eager
        # kernel started there returns the same too
        kernel, totals = mvx._least_excess, [0, 0]

        def spy(holding, targets, least, ceiling):
            lazy, eager, down = [], [], _down_sets(g.n)

            def logged(log):
                def listed(s, x):
                    log.append((s, x))
                    pairs = holding(s, x)
                    assert all(inside == down[closed_neighborhood(g, a)] for a, inside in pairs)
                    return pairs

                return listed

            found = kernel(logged(lazy), targets, least, ceiling)
            assert found == oracles.least_excess_eager(logged(eager), targets, 0, least, ceiling)
            assert found == oracles.least_excess_eager(
                holding, targets, max(diameter(g) - 2, 0), least, ceiling)
            assert len(lazy) == len(set(lazy)) and set(lazy) <= set(eager)
            assert least == 1 and all(least <= x < ceiling[0] for _, x in lazy)
            totals[0] += len(lazy)
            totals[1] += len(eager)
            return found

        monkeypatch.setattr(mvx, "_least_excess", spy)
        for n in range(2, 8):
            for g in enumerate_connected_graphs(n):
                mvx.mvx_profile.cache_clear()
                mvx.mvx_profile(g)
        assert totals[0] < totals[1]

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

    @pytest.mark.parametrize("n", [9, 10, 11, 12])
    def test_cycles_paths_and_their_complements_beyond_n8(self, n):
        # one graph at a time, every k: the profile cache holds one graph
        for g in (cycle_graph(n), path_graph(n)):
            for k in range(2, n + 1):
                assert mvx_exact(g, k).value == 3, (n, g.edges, k)
        cc = complement(cycle_graph(n))
        for k in range(3, n + 1):
            assert mvx_exact(cc, k).value == complement_cycle_mvx(n, k), (n, k)


class TestTauAndConnectedDominationRoute:
    """mvx_k = n below tau, n - gamma_c + 1 from max(3, tau + gamma_c - 2)
    on, and searched in between (module docstring)."""

    def test_window_pair_above_the_core(self):
        # the one 8-vertex window pair above n - gamma_c + 1: k = 3 on GBYlug
        g = parse_graph6("GBYlug")
        assert connected_domination_number(g) == 3
        profile = mvx.mvx_profile(g)
        assert [r.value for r in profile] == [8, 7, 6, 6, 6, 6, 6]
        for k, (value, witness) in enumerate(profile, 2):
            assert witness.num_colors == value and verify_mvx_coloring(witness, k)

    def test_core_is_a_minimum_connected_dominating_set(self):
        # at k = n the witness gives a connected dominating class, the core
        # (a lone vertex when one dominates), one color and every other vertex
        # its own, and that class has gamma_c vertices
        for n in range(2, 8):
            for g in enumerate_connected_graphs(n):
                colors = mvx_exact(g, n).witness.colors
                classes = [mask_from(v for v in range(n) if colors[v] == c) for c in set(colors)]
                core = next(a for a in classes if closed_neighborhood(g, a) == g.full_mask)
                assert core.bit_count() == connected_domination_number(g), g.edges
                assert len(classes) == n - core.bit_count() + 1
                assert connected_components(g, core) == [core]

    @pytest.mark.parametrize("n", range(6, 13))
    def test_complement_cycle_threshold_is_tau_minus_one(self, n):
        # a set lies in no closed neighbourhood of the complement of C_n iff
        # it is a vertex cover of "two apart on C_n" (see _mod4_threshold)
        g = complement(cycle_graph(n))
        distinct = VertexColoring(g, tuple(range(n)))
        tau = next(k for k in range(2, n + 1) if not verify_mvx_coloring(distinct, k))
        assert tau - 1 == _mod4_threshold(n)
        profile = mvx.mvx_profile(g)
        assert [r.value for r in profile[1:]] == [complement_cycle_mvx(n, k) for k in range(3, n + 1)]


def test_every_exact_route_returns_value_and_witness():
    # the edge search, the vertex search and the cut-vertex route share one
    # result type, which unpacks as (value, witness) and carries nothing else
    assert not hasattr(monoindex, "MxResult") and not hasattr(monoindex, "MvxResult")
    g = bowtie()
    for route, verify in (
        (mx_exact_bruteforce, verify_mx_coloring),
        (mvx_exact, verify_mvx_coloring),
        (mvx_via_cut_vertex, verify_mvx_coloring),
    ):
        res = route(g, 3)
        assert type(res) is monoindex.IndexResult and res._fields == ("value", "witness")
        value, witness = res
        assert (value, witness) == (res.value, res.witness)
        assert witness.num_colors == value and verify(witness, 3)


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
        for v0 in (-1, 6):
            with pytest.raises(ValueError, match=f"vertex {v0} out of range 0..5"):
                extract_mono_spanning_tree(VertexColoring(p6, (0, 0, 0, 0, 0, 1)), v0)

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
                best = oracles.max_leaf_by_array_union_find(g).leaf_count
                vc = mvx_exact(g, 2).witness
                for v0 in iter_bits(cuts):
                    res = extract_mono_spanning_tree(vc, v0)
                    assert res.leaf_count == best, (n, g.edges, v0)
