import pytest

from monoindex import graphs
from monoindex.graphs import (
    BudgetError,
    Graph,
    complete_graph,
    connected_components,
    cut_vertices,
    cycle_graph,
    enumerate_connected_graphs,
    enumerate_graphs,
    from_edges,
    is_connected,
    mask_from,
    path_graph,
)
from monoindex.mvx import connected_domination_number, minimum_connected_dominating_set
from monoindex.reduction import (
    build_gadget,
    decide_ds_via_mvx,
    dominating_number,
    is_dominating,
    lift_dominating_set,
    minimum_dominating_set,
    project_cds,
)

import oracles


def is_cds(g: Graph, mask: int) -> bool:
    return is_dominating(g, mask) and connected_components(g, mask) == [mask]


class TestGadget:
    def test_sizes(self):
        for g, nn, mm in (
            (complete_graph(3), 8, 16),
            (path_graph(3), 8, 13),
            (Graph(1, (0,)), 4, 3),
        ):
            gadget = build_gadget(g)
            assert gadget.n == nn and gadget.m == mm

    def test_layout(self):
        g = path_graph(3)
        gadget = build_gadget(g)
        # shadow u_i sees the closed neighborhood of v_i; x = 6 sees every
        # shadow and the pendant y = 7
        assert gadget.adj[3] >> 0 & 1 and gadget.adj[3] >> 1 & 1
        assert not gadget.adj[3] >> 2 & 1
        assert gadget.adj[6] == mask_from([3, 4, 5, 7]) and gadget.adj[7] == mask_from([6])

    def test_connected_with_cut_vertex_x(self):
        disconnected = from_edges(4, [(0, 1)])
        gadget = build_gadget(disconnected)
        assert is_connected(gadget)
        assert cut_vertices(gadget) >> 2 * disconnected.n & 1

    def test_pendant_forces_x_in_minimum(self):
        for n in range(1, 5):
            for g in enumerate_graphs(n):
                cds = minimum_connected_dominating_set(build_gadget(g))
                assert cds >> 2 * n & 1

    def test_pendant_forces_x_in_every_cds(self):
        # exhaustive over all vertex subsets of the smallest gadgets
        for n in (1, 2):
            for g in enumerate_graphs(n):
                gadget = build_gadget(g)
                for mask in range(1, 1 << gadget.n):
                    if is_cds(gadget, mask):
                        assert mask >> 2 * n & 1


class TestDominatingNumber:
    def test_examples(self):
        assert dominating_number(complete_graph(3)) == 1
        assert dominating_number(cycle_graph(4)) == 2
        assert dominating_number(path_graph(3)) == 1

    def test_works_disconnected(self):
        assert dominating_number(from_edges(4, [(0, 1), (2, 3)])) == 2
        assert dominating_number(Graph(2, (0, 0))) == 2


class TestCertificates:
    def test_checker(self):
        c4 = cycle_graph(4)
        assert is_dominating(c4, mask_from([0, 2]))
        assert not is_dominating(c4, mask_from([0]))
        assert not is_cds(c4, mask_from([0, 2]))
        assert is_cds(c4, mask_from([0, 1]))

    def test_bits_past_the_graph_rejected(self):
        c4 = cycle_graph(4)
        assert not is_dominating(c4, mask_from([0, 2, 4]))
        assert not is_dominating(c4, -1)
        assert is_dominating(c4, c4.full_mask)


class TestLiftProject:
    def test_lift_k3(self):
        lifted = lift_dominating_set(complete_graph(3), mask_from([0]))
        assert lifted == mask_from([3, 6])
        assert is_cds(build_gadget(complete_graph(3)), lifted)

    def test_lift_p3(self):
        assert lift_dominating_set(path_graph(3), mask_from([1])) == mask_from([4, 6])

    def test_lift_everything(self):
        g = cycle_graph(4)
        assert lift_dominating_set(g, g.full_mask).bit_count() == 5

    def test_lift_rejects_invalid(self):
        with pytest.raises(ValueError):
            lift_dominating_set(cycle_graph(4), mask_from([0]))
        with pytest.raises(ValueError):
            lift_dominating_set(cycle_graph(4), mask_from([0, 2, 4]))

    def test_project_k3(self):
        assert project_cds(complete_graph(3), mask_from([3, 6])) == mask_from([0])

    def test_project_dedupes_shadow_pairs(self):
        assert project_cds(complete_graph(3), mask_from([0, 3, 6])) == mask_from([0])

    def test_project_rejects_invalid(self):
        with pytest.raises(ValueError):  # dominating but not connected
            project_cds(complete_graph(3), mask_from([0, 7]))
        with pytest.raises(ValueError):  # a bit past the gadget
            project_cds(complete_graph(3), mask_from([3, 6, 8]))

    def test_project_shrinks(self):
        for g in (cycle_graph(4), path_graph(4), complete_graph(4)):
            cds = minimum_connected_dominating_set(build_gadget(g))
            assert project_cds(g, cds).bit_count() <= cds.bit_count() - 1

    def test_lift_then_project_every_dominating_set(self):
        for n in range(1, 5):
            for g in enumerate_graphs(n):
                gadget = build_gadget(g)
                for d in range(1, 1 << n):
                    if not is_dominating(g, d):
                        continue
                    lifted = lift_dominating_set(g, d)
                    assert is_cds(gadget, lifted) and lifted.bit_count() == d.bit_count() + 1
                    assert project_cds(g, lifted) == d

    def test_project_every_cds_of_small_gadgets(self):
        projected = 0
        for n in range(1, 4):
            for g in enumerate_graphs(n):
                gadget = build_gadget(g)
                for d_prime in range(1, 1 << gadget.n):
                    if is_cds(gadget, d_prime):
                        d = project_cds(g, d_prime)
                        assert is_dominating(g, d) and d.bit_count() <= d_prime.bit_count() - 1
                        projected += 1
        assert projected > 0


class TestDecision:
    def test_examples(self):
        assert decide_ds_via_mvx(complete_graph(3), 1) is True
        assert decide_ds_via_mvx(cycle_graph(4), 1) is False
        for g in (cycle_graph(5), path_graph(4)):
            assert decide_ds_via_mvx(g, g.n) is True

    def test_round_trip_small(self):
        # the full n <= 6 sweep lives in the acceptance suite
        for n in range(1, 5):
            for g in enumerate_graphs(n):
                gamma = dominating_number(g)
                gamma_c = connected_domination_number(build_gadget(g))
                assert gamma_c == gamma + 1
                for K in range(1, n + 1):
                    assert (gamma <= K) == (gamma_c <= K + 1)
                    assert decide_ds_via_mvx(g, K) == (gamma <= K)

    def test_k_range(self):
        with pytest.raises(ValueError):
            decide_ds_via_mvx(complete_graph(3), 0)

    def test_minimum_dominating_set_is_minimal_and_valid(self):
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                d = minimum_dominating_set(g)
                assert is_dominating(g, d)
                assert d.bit_count() == dominating_number(g)
                smaller = (s for s in range(1 << n) if s.bit_count() < d.bit_count())
                assert not any(is_dominating(g, s) for s in smaller)


class TestLeastSetSearch:
    """Both domination searches against the combinations scan they replaced:
    the same sets, not just the same sizes."""

    @staticmethod
    def check(g: Graph) -> None:
        assert minimum_dominating_set(g) == next(oracles.dominating_sets_by_combinations(g)), g.edges
        if is_connected(g):
            cds = minimum_connected_dominating_set(g)
            assert cds == (oracles.first_connected_dominating_set(g) if g.n > 1 else 0), g.edges

    def test_matches_combinations_scan(self):
        # every graph with n <= 6 and every connected graph with n = 7
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                self.check(g)
        for g in enumerate_connected_graphs(7):
            self.check(g)

    def test_matches_combinations_scan_on_gadgets(self):
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                self.check(build_gadget(g))

    def test_long_path(self):
        # past the 20-vertex cap the domination searches once had. P20's
        # 42-vertex gadget took the whole budget before the search counted
        # the undominated vertices it still must reach (36,636 sets now)
        p = path_graph(1000)
        assert minimum_connected_dominating_set(p) == p.full_mask & ~(1 | 1 << 999)
        assert minimum_dominating_set(path_graph(30)) == sum(1 << v for v in range(1, 30, 3))
        assert connected_domination_number(build_gadget(path_graph(20))) == 7 + 1
        assert decide_ds_via_mvx(path_graph(20), 7) and not decide_ds_via_mvx(path_graph(20), 6)

    def test_budget(self, monkeypatch):
        # the connected domination search on C6 visits 19 sets
        monkeypatch.setattr(graphs, "MAX_SEARCH_NODES", 18)
        with pytest.raises(BudgetError, match="budget of 18 sets"):
            minimum_connected_dominating_set(cycle_graph(6))
        monkeypatch.setattr(graphs, "MAX_SEARCH_NODES", 19)
        assert minimum_connected_dominating_set(cycle_graph(6)) == 0b1111
        with pytest.raises(BudgetError, match="budget of 19 sets"):
            minimum_dominating_set(cycle_graph(6))  # visits 20
