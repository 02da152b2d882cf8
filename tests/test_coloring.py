import random

import pytest

from monoindex import graphs
from monoindex.coloring import (
    EdgeColoring,
    VertexColoring,
    _connected_sets,
    mono_stree_exists,
    normalize_to_forest,
    parse_coloring_certificate,
    verify_mvx_coloring,
    verify_mx_coloring,
    vertex_mono_tree_exists,
    write_coloring_certificate,
)
from monoindex.graphs import (
    BudgetError,
    closed_neighborhood,
    complement,
    complete_bipartite_graph,
    complete_graph,
    connected_components,
    cycle_graph,
    enumerate_connected_graphs,
    from_edges,
    iter_bits,
    mask_from,
    path_graph,
)
from monoindex.mvx import mvx_profile
from monoindex.mx import construct_extremal_mx, mx_exact_bruteforce

import oracles


def all_distinct_edges(g) -> EdgeColoring:
    return EdgeColoring(g, tuple(range(g.m)))


def all_distinct_vertices(g) -> VertexColoring:
    return VertexColoring(g, tuple(range(g.n)))


def spanning_path_coloring_c5() -> EdgeColoring:
    # 4-edge spanning path of C5 in color 0, the leftover edge in color 1
    c5 = cycle_graph(5)
    colors = [0] * 5
    colors[c5.edges.index((0, 4))] = 1
    return EdgeColoring(c5, tuple(colors))


class TestColoringTypes:
    def test_totality_enforced(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            EdgeColoring(g, (0,))
        with pytest.raises(ValueError):
            VertexColoring(g, (0, 1))
        with pytest.raises(ValueError):
            EdgeColoring.from_map(g, {(0, 1): 0})

    def test_renumbering(self):
        g = path_graph(4)
        ec = EdgeColoring(g, (7, 3, 7))
        assert ec.renumbered().colors == (0, 1, 0)
        assert ec.num_colors == 2

    def test_merge(self):
        g = path_graph(4)
        ec = EdgeColoring(g, (0, 1, 2)).merged(0, 2)
        assert ec.colors == (0, 1, 0)
        vc = VertexColoring(g, (0, 1, 2, 3)).merged(1, 3)
        assert vc.colors == (0, 1, 2, 1)
        with pytest.raises(ValueError, match="merge needs two distinct color ids"):
            EdgeColoring(path_graph(3), (0, 1)).merged(1, 1)


    def test_kinds_stay_apart(self):
        c4 = cycle_graph(4)  # four edges and four vertices
        ec = EdgeColoring(c4, (0, 1, 0, 2))
        vc = VertexColoring(c4, (0, 1, 0, 2))
        assert ec != vc
        assert type(ec.renumbered()) is EdgeColoring
        assert type(vc.merged(1, 2)) is VertexColoring
        with pytest.raises(ValueError, match="vertices"):
            VertexColoring(path_graph(3), (0, 1))
        with pytest.raises(ValueError, match="edges"):
            EdgeColoring(path_graph(3), (0,))


class TestMonoSTree:
    def test_spanning_tree_covers_everything(self):
        ec = spanning_path_coloring_c5()
        for s in (0b00111, 0b10101, 0b11111):
            assert mono_stree_exists(ec, s)

    def test_all_distinct_cycle_fails(self):
        ec = all_distinct_edges(cycle_graph(5))
        assert not mono_stree_exists(ec, 0b00111)

    def test_single_edge_is_a_tree(self):
        ec = all_distinct_edges(complete_graph(4))
        assert mono_stree_exists(ec, 0b0011)

    def test_small_sets_trivial(self):
        ec = all_distinct_edges(cycle_graph(5))
        assert mono_stree_exists(ec, 0)
        assert mono_stree_exists(ec, 0b100)


class TestVertexMonoTree:
    def test_adjacent_pair(self):
        vc = all_distinct_vertices(cycle_graph(6))
        assert vertex_mono_tree_exists(vc, mask_from([0, 1]))

    def test_prism_star(self):
        prism = complement(cycle_graph(6))
        vc = all_distinct_vertices(prism)
        assert vertex_mono_tree_exists(vc, mask_from([0, 1, 2]))

    def test_prism_four_set_fails(self):
        prism = complement(cycle_graph(6))
        vc = all_distinct_vertices(prism)
        assert not vertex_mono_tree_exists(vc, mask_from([0, 1, 2, 3]))

    def test_agrees_with_subtree_oracle(self):
        rng = random.Random(2024)
        for n in range(2, 6):
            for g in enumerate_connected_graphs(n):
                catalog = oracles.subtree_catalog(g)
                for _ in range(12):
                    colors = tuple(rng.randrange(rng.randint(1, n)) for _ in range(n))
                    vc = VertexColoring(g, colors)
                    for s in range(1, 1 << n):
                        if s.bit_count() < 2:
                            continue
                        assert vertex_mono_tree_exists(vc, s) == oracles.vertex_mono_tree_oracle(
                            catalog, colors, s
                        ), (n, colors, s)


class TestVerifiers:
    def test_mx_examples(self):
        assert verify_mx_coloring(spanning_path_coloring_c5(), 3)
        assert not verify_mx_coloring(all_distinct_edges(cycle_graph(5)), 3)
        g = complete_graph(4)
        assert verify_mx_coloring(EdgeColoring(g, (0,) * g.m), 4)

    def test_mvx_examples(self):
        assert verify_mvx_coloring(all_distinct_vertices(complete_graph(4)), 3)
        assert not verify_mvx_coloring(all_distinct_vertices(cycle_graph(6)), 3)
        p4 = path_graph(4)
        assert verify_mvx_coloring(VertexColoring(p4, (1, 0, 0, 2)), 4)

    def test_k_range_checked(self):
        ec = all_distinct_edges(complete_graph(4))
        with pytest.raises(ValueError):
            verify_mx_coloring(ec, 1)
        with pytest.raises(ValueError):
            verify_mx_coloring(ec, 5)

    def test_subset_budget(self, monkeypatch):
        # the search for a 3-set in no cover visits 3 sets on C5 with every
        # edge its own color (it stops at the first, {0, 2}) and 5 on K2,3
        # with every vertex its own color (it finds none): refused below that
        # budget, answered at it. A cover that is V needs no search at all
        ec = all_distinct_edges(cycle_graph(5))
        vc = all_distinct_vertices(complete_bipartite_graph(2, 3))
        cases = ((verify_mx_coloring, ec, 3, False), (verify_mvx_coloring, vc, 5, True))
        for verify, c, visits, valid in cases:
            monkeypatch.setattr(graphs, "MAX_SEARCH_NODES", visits - 1)
            with pytest.raises(BudgetError, match=f"budget of {visits - 1} sets"):
                verify(c, 3)
            monkeypatch.setattr(graphs, "MAX_SEARCH_NODES", visits)
            assert verify(c, 3) is valid
        monkeypatch.setattr(graphs, "MAX_SEARCH_NODES", 0)
        assert verify_mx_coloring(spanning_path_coloring_c5(), 3)
        assert verify_mvx_coloring(all_distinct_vertices(complete_graph(5)), 3)

    def test_agrees_with_cover_scan(self):
        # seeded colorings of every connected graph with n <= 6; the examples
        # above; each exact witness at its k, which is valid, and the same
        # witness with one element split off into a new color, which is not
        rng = random.Random(27)
        g4, c6, p4 = complete_graph(4), cycle_graph(6), path_graph(4)
        cases = [(c, k, None) for c in (
            spanning_path_coloring_c5(), all_distinct_edges(cycle_graph(5)),
            EdgeColoring(g4, (0,) * g4.m), all_distinct_vertices(g4),
            all_distinct_vertices(c6), VertexColoring(p4, (1, 0, 0, 2)),
        ) for k in range(2, c.graph.n + 1)]
        for n in range(2, 7):
            for g in enumerate_connected_graphs(n):
                for _ in range(3):
                    for kind, size in ((EdgeColoring, g.m), (VertexColoring, n)):
                        colors = tuple(rng.randrange(rng.randint(1, size)) for _ in range(size))
                        cases += [(kind(g, colors), k, None) for k in range(2, n + 1)]
                witnesses = [(r.witness, k) for k, r in enumerate(mvx_profile(g), 2)]
                if n <= 5:
                    witnesses.append((mx_exact_bruteforce(g, 2).witness, 2))
                witnesses += [(construct_extremal_mx(g), k) for k in range(3, n + 1)]
                for w, k in witnesses:
                    cases.append((w, k, True))
                    i = next((i for i, c in enumerate(w.colors) if w.colors.count(c) > 1), None)
                    if i is not None:
                        split = list(w.colors)
                        split[i] = max(split) + 1
                        cases.append((type(w)(g, tuple(split)), k, False))
        verdicts = {}
        for c, k, expected in cases:
            verify = verify_mx_coloring if isinstance(c, EdgeColoring) else verify_mvx_coloring
            got = verify(c, k)
            assert got == oracles.verify_by_cover_scan(c, k) and expected in (None, got), (c, k)
            verdicts[c._kind, got] = verdicts.get((c._kind, got), 0) + 1
        assert len(verdicts) == 4, verdicts

    def test_merge_monotone_smoke(self):
        # detailed randomized sweep lives in the acceptance suite
        ec = spanning_path_coloring_c5()
        assert verify_mx_coloring(ec, 3)
        assert verify_mx_coloring(ec.merged(0, 1), 3)


class TestConnectedSets:
    def test_lists_each_connected_set_with_its_cover(self):
        # every connected graph with n <= 6, closed rows and singletons: for
        # each target set of at most two vertices and V, and each x < n, the
        # connected sets of x + 1 vertices meeting hit[t] for every t in the
        # target set, in mask order, each with the family of the vertex sets
        # inside its cover, the OR of hit over it
        calls = 0
        for n in range(1, 7):
            down = [sum(1 << t for t in range(1 << n) if t & c == t) for c in range(1 << n)]
            for g in enumerate_connected_graphs(n):
                connected = [a for a in range(1, 1 << n) if connected_components(g, a) == [a]]
                closed = [g.adj[v] | 1 << v for v in range(n)]
                targets = [0, g.full_mask] + [1 << u | 1 << v for v in range(n)
                                              for u in range(v + 1)]
                for hit in (closed, [1 << v for v in range(n)]):
                    holding = _connected_sets(g, hit)
                    for s in targets:
                        for x in range(n):
                            pairs = holding(s, x)
                            assert [a for a, _ in pairs] == [
                                a for a in connected if a.bit_count() == x + 1
                                and all(a & hit[t] for t in iter_bits(s))], (g.edges, s, x)
                            for a, inside in pairs:
                                cover = mask_from(w for v in iter_bits(a) for w in iter_bits(hit[v]))
                                assert inside == down[cover]
                                assert hit is not closed or cover == closed_neighborhood(g, a)
                            calls += 1
        assert calls == 2 * sum(
            (2 + n * (n + 1) // 2) * n * count
            for n, count in zip(range(1, 7), (1, 1, 2, 6, 21, 112)))


class TestNormalizeToForest:
    def test_cycle_broken(self):
        c4 = cycle_graph(4)
        out = normalize_to_forest(EdgeColoring(c4, (0, 0, 0, 0)), 3)
        assert out.num_colors == 2
        assert oracles.all_classes_trees(out)
        # highest-indexed cycle edge moved out: the spanning path survives
        assert out.colors == (0, 0, 0, 1)

    def test_idempotent(self):
        c4 = cycle_graph(4)
        once = normalize_to_forest(EdgeColoring(c4, (0, 0, 0, 0)), 3)
        assert normalize_to_forest(once, 3).colors == once.colors

    def test_disconnected_class_split(self):
        # 6-cycle plus chord (1,4): spanning path in color 0 keeps the
        # coloring valid, the far-apart edges (0,5) and (1,4) share color 1
        g = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)])
        ec = EdgeColoring.from_map(
            g,
            {(0, 1): 0, (1, 2): 0, (2, 3): 0, (3, 4): 0, (4, 5): 0, (0, 5): 1, (1, 4): 1},
        )
        assert verify_mx_coloring(ec, 3)
        out = normalize_to_forest(ec, 3)
        assert out.num_colors == ec.num_colors + 1
        assert oracles.all_classes_trees(out)
        assert verify_mx_coloring(out, 3)

    def test_invalid_input_rejected(self):
        with pytest.raises(ValueError):
            normalize_to_forest(all_distinct_edges(cycle_graph(5)), 3)


class TestCertificates:
    def test_edge_round_trip(self):
        ec = spanning_path_coloring_c5()
        text = write_coloring_certificate(ec)
        back = parse_coloring_certificate(text)
        assert isinstance(back, EdgeColoring)
        assert back.graph.adj == ec.graph.adj and back.colors == ec.colors

    def test_vertex_round_trip(self):
        vc = VertexColoring(path_graph(4), (1, 0, 0, 2))
        back = parse_coloring_certificate(write_coloring_certificate(vc))
        assert isinstance(back, VertexColoring)
        assert back.colors == vc.colors

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_coloring_certificate("type: edge\n0 1 -> 0\n")  # no graph
        with pytest.raises(ValueError):
            parse_coloring_certificate("type: banana\ngraph6: Ch\n")
        with pytest.raises(ValueError):
            parse_coloring_certificate("type: vertex\ngraph6: Ch\n0 -> 0\n")  # partial

    @pytest.mark.parametrize("line", ["-1 -> 1", "7 -> 1"])
    def test_vertex_outside_graph(self, line):
        # Bw is the triangle; vertices are 0, 1 and 2
        text = f"type: vertex\ngraph6: Bw\n0 -> 0\n1 -> 0\n2 -> 0\n{line}\n"
        with pytest.raises(ValueError, match="names no vertex"):
            parse_coloring_certificate(text)

    @pytest.mark.parametrize(
        "line, message",
        [("0 1 -> x", "line 3: color 'x' is not an integer"),
         ("a 1 -> 0", "line 3: vertex 'a' is not an integer")],
    )
    def test_token_not_an_integer(self, line, message):
        text = f"type: edge\ngraph6: Bw\n{line}\n0 2 -> 0\n1 2 -> 0\n"
        with pytest.raises(ValueError, match=message):
            parse_coloring_certificate(text)

    def test_element_named_twice(self):
        text = "type: edge\ngraph6: Bw\n0 1 -> 0\n0 2 -> 0\n1 2 -> 0\n1 0 -> 1\n"
        with pytest.raises(ValueError, match="line 6"):
            parse_coloring_certificate(text)

    @pytest.mark.parametrize(
        "text, message",
        [("type: edge\ngraph6: Bw\ntype: vertex\n0 -> 0\n1 -> 1\n2 -> 2\n", "line 3: a second 'type:'"),
         ("type: vertex\ngraph6: Bw\n0 -> 0\n1 -> 1\n2 -> 2\ngraph6: BW\n", "line 6: a second 'graph6:'")],
    )
    def test_header_named_twice(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_coloring_certificate(text)
