import pytest

from monoindex.graphs import (
    Graph,
    complete_graph,
    cut_vertices,
    cycle_graph,
    enumerate_graphs,
    from_edges,
    is_connected,
    path_graph,
)
from monoindex.mvx import connected_domination_number, minimum_connected_dominating_set
from monoindex.reduction import (
    DominationCertificate,
    build_gadget,
    check_certificate,
    decide_ds_via_mvx,
    dominating_number,
    lift_dominating_set,
    minimum_dominating_set,
    project_cds,
)


class TestGadget:
    def test_sizes(self):
        for g, nn, mm in (
            (complete_graph(3), 8, 16),
            (path_graph(3), 8, 13),
            (Graph(1, (0,)), 4, 3),
        ):
            gm = build_gadget(g)
            assert gm.gadget.n == nn and gm.gadget.m == mm

    def test_layout(self):
        g = path_graph(3)
        gm = build_gadget(g)
        assert gm.x == 6 and gm.y == 7
        # shadow u_i sees the closed neighborhood of v_i
        assert gm.gadget.adj[3] >> 0 & 1 and gm.gadget.adj[3] >> 1 & 1
        assert not gm.gadget.adj[3] >> 2 & 1

    def test_connected_with_cut_vertex_x(self):
        disconnected = from_edges(4, [(0, 1)])
        gm = build_gadget(disconnected)
        assert is_connected(gm.gadget)
        assert cut_vertices(gm.gadget) >> gm.x & 1

    def test_pendant_forces_x_in_minimum(self):
        for n in range(1, 5):
            for g in enumerate_graphs(n):
                gm = build_gadget(g)
                cds = minimum_connected_dominating_set(gm.gadget)
                assert cds >> gm.x & 1

    def test_pendant_forces_x_in_every_cds(self):
        # exhaustive over all vertex subsets of the smallest gadgets
        for n in (1, 2):
            for g in enumerate_graphs(n):
                gm = build_gadget(g)
                N = gm.gadget.n
                for mask in range(1, 1 << N):
                    cert = DominationCertificate(
                        frozenset(v for v in range(N) if mask >> v & 1),
                        "connected-dominating",
                    )
                    if check_certificate(gm.gadget, cert):
                        assert mask >> gm.x & 1


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
        assert check_certificate(c4, DominationCertificate(frozenset({0, 2}), "dominating"))
        assert not check_certificate(c4, DominationCertificate(frozenset({0}), "dominating"))
        assert not check_certificate(
            c4, DominationCertificate(frozenset({0, 2}), "connected-dominating")
        )
        assert check_certificate(
            c4, DominationCertificate(frozenset({0, 1}), "connected-dominating")
        )

    def test_kind_validated(self):
        with pytest.raises(ValueError):
            DominationCertificate(frozenset(), "both")


class TestLiftProject:
    def test_lift_k3(self):
        gm = build_gadget(complete_graph(3))
        lifted = lift_dominating_set(gm, DominationCertificate(frozenset({0}), "dominating"))
        assert lifted.vertices == {3, 6}
        assert check_certificate(gm.gadget, lifted)

    def test_lift_p3(self):
        gm = build_gadget(path_graph(3))
        lifted = lift_dominating_set(gm, DominationCertificate(frozenset({1}), "dominating"))
        assert lifted.vertices == {4, 6}

    def test_lift_everything(self):
        g = cycle_graph(4)
        gm = build_gadget(g)
        lifted = lift_dominating_set(
            gm, DominationCertificate(frozenset(range(4)), "dominating")
        )
        assert len(lifted.vertices) == 5

    def test_lift_rejects_invalid(self):
        gm = build_gadget(cycle_graph(4))
        with pytest.raises(ValueError):
            lift_dominating_set(gm, DominationCertificate(frozenset({0}), "dominating"))

    def test_project_k3(self):
        gm = build_gadget(complete_graph(3))
        projected = project_cds(
            gm, DominationCertificate(frozenset({3, 6}), "connected-dominating")
        )
        assert projected.vertices == {0}

    def test_project_dedupes_shadow_pairs(self):
        gm = build_gadget(complete_graph(3))
        projected = project_cds(
            gm, DominationCertificate(frozenset({0, 3, 6}), "connected-dominating")
        )
        assert projected.vertices == {0}

    def test_project_shrinks(self):
        for g in (cycle_graph(4), path_graph(4), complete_graph(4)):
            gm = build_gadget(g)
            cds = DominationCertificate(
                frozenset(
                    v for v in range(gm.gadget.n)
                    if minimum_connected_dominating_set(gm.gadget) >> v & 1
                ),
                "connected-dominating",
            )
            projected = project_cds(gm, cds)
            assert len(projected.vertices) <= len(cds.vertices) - 1


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
                gm = build_gadget(g)
                gamma = dominating_number(g)
                gamma_c = connected_domination_number(gm.gadget)
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
                assert check_certificate(g, DominationCertificate(d, "dominating"))
                assert len(d) == dominating_number(g)
