import itertools
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoindex import graphs
from monoindex.graphs import (
    BudgetError,
    Graph,
    Graph6Error,
    canonical_code,
    canonical_form,
    complement,
    complete_bipartite_graph,
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
    k_subsets,
    mask_from,
    parse_edge_list,
    parse_graph,
    parse_graph6,
    path_graph,
    star_graph,
    to_edge_list,
    to_graph6,
)

import oracles


def random_graph(n: int, edge_mask: int) -> Graph:
    pairs = list(itertools.combinations(range(n), 2))
    return from_edges(n, [pairs[i] for i in range(len(pairs)) if edge_mask >> i & 1])


def is_automorphism(g: Graph, perm) -> bool:
    """perm (vertex i -> perm[i]) is a bijection that maps edges onto edges."""
    return sorted(perm) == list(range(g.n)) and all(
        mask_from(perm[w] for w in range(g.n) if g.adj[u] >> w & 1) == g.adj[perm[u]]
        for u in range(g.n)
    )


def spy_canonical(monkeypatch) -> list[tuple[int, ...]]:
    """The rows of every graph enumeration canonicalizes from now on, in
    order; the enumeration cache is cleared, so every level runs cold."""
    children = []
    canonical = graphs._canonical

    def spy(adj):
        children.append(adj)
        return canonical(adj)

    monkeypatch.setattr(graphs, "_canonical", spy)
    graphs._classes.cache_clear()  # every level's representatives live in this cache
    return children


def count_canonical_calls(monkeypatch, n: int) -> tuple[int, int]:
    """(classes, canonical searches) of a cold enumeration of every level up to n."""
    children = spy_canonical(monkeypatch)
    return len(graphs._classes(n)), len(children)


@lru_cache(maxsize=None)
def class_codes(n: int) -> frozenset[int]:
    return frozenset(canonical_code(g) for g, _ in graphs._classes(n))


@lru_cache(maxsize=None)
def all_class_codes(n: int) -> frozenset[int]:
    return frozenset(canonical_code(g) for g in enumerate_graphs(n))


class TestGraphBasics:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            Graph(0, ())
        with pytest.raises(ValueError, match="row count"):
            Graph(2, (0,))
        with pytest.raises(ValueError, match="mentions vertices >= 2"):
            Graph(2, (4, 0))
        with pytest.raises(ValueError, match="edge 0-1 is not symmetric"):
            Graph(2, (2, 0))
        with pytest.raises(ValueError, match="loop at vertex 1"):
            Graph(2, (0, 2))
        with pytest.raises(ValueError, match="loop at vertex 0"):
            from_edges(2, [(0, 0)])
        with pytest.raises(ValueError, match="cycles need at least 3 vertices"):
            cycle_graph(2)

    def test_edges_sorted(self):
        g = complete_graph(4)
        assert g.edges == tuple(itertools.combinations(range(4), 2))
        assert g.m == 6

    def test_degree_and_has_edge(self):
        g = star_graph(5)
        assert g.degree(0) == 4
        assert all(g.degree(v) == 1 for v in range(1, 5))
        assert g.has_edge(0, 3) and not g.has_edge(1, 2)


class TestGraph6:
    def test_known_encodings(self):
        assert to_graph6(complete_graph(4)) == "C~"
        assert to_graph6(path_graph(4)) == "Ch"
        assert to_graph6(Graph(1, (0,))) == "@"

    def test_known_decodings(self):
        assert parse_graph6("C~").adj == complete_graph(4).adj
        assert parse_graph6("Ch").adj == path_graph(4).adj
        assert parse_graph6(">>graph6<<Ch").adj == path_graph(4).adj

    def test_errors(self):
        with pytest.raises(Graph6Error):
            parse_graph6("")
        with pytest.raises(Graph6Error, match="byte 0"):
            parse_graph6("\x1aabc")
        with pytest.raises(Graph6Error, match="trailing"):
            parse_graph6("C~~")
        with pytest.raises(Graph6Error, match="truncated"):
            parse_graph6("C")
        with pytest.raises(Graph6Error, match="multi-byte"):
            parse_graph6("~??")
        with pytest.raises(Graph6Error):
            to_graph6(from_edges(63, [(0, 1)]))

    def test_round_trip_enumeration(self):
        for n in range(1, 8):
            for g in enumerate_connected_graphs(n):
                assert parse_graph6(to_graph6(g)).adj == g.adj

    def test_against_independent_codec(self):
        for n in range(2, 7):
            for g in enumerate_connected_graphs(n):
                assert to_graph6(g) == oracles.g6_encode(n, set(g.edges))
                dn, dedges = oracles.g6_decode(to_graph6(g))
                assert dn == n and dedges == set(g.edges)

    @given(st.integers(1, 10), st.integers(0, 2**45 - 1))
    @settings(max_examples=200)
    def test_round_trip_random(self, n, mask):
        g = random_graph(n, mask & ((1 << (n * (n - 1) // 2)) - 1))
        assert parse_graph6(to_graph6(g)).adj == g.adj

    @staticmethod
    def outcome(parse, text):
        try:
            return parse(text).adj
        except Graph6Error as exc:
            return str(exc)

    def test_chunk_decoder_matches_bit_list_oracle(self):
        rng = random.Random(2016)
        texts = [to_graph6(g) for n in range(1, 8) for g in enumerate_graphs(n)]
        assert len(texts) == 1252
        texts += [
            to_graph6(random_graph(n, rng.getrandbits(n * (n - 1) // 2)))
            for n in range(8, 63) for _ in range(4)
        ]
        for text in texts:
            assert self.outcome(parse_graph6, text) == oracles.parse_graph6_by_bit_list(text).adj, text

    def test_chunk_decoder_errors_match_bit_list_oracle(self):
        # short, exact and long payloads for n = 2..6 from bytes that are out of
        # range, zero, set only in the padding, or full; plus the header cases
        chars = "\x3e?@A_`x~\x7f"
        texts = ["", " ", "?", "@", "@?", "~??", "\x7f", ">>graph6<<", ">>graph6<<C~", "\x1aabc"]
        for n in range(2, 7):
            need = (n * (n - 1) // 2 + 5) // 6
            for length in (need - 1, need, need + 1):
                texts += [chr(63 + n) + "".join(p) for p in itertools.product(chars, repeat=length)]
        errors = 0
        for text in texts:
            want = self.outcome(oracles.parse_graph6_by_bit_list, text)
            assert self.outcome(parse_graph6, text) == want, repr(text)
            errors += isinstance(want, str)
        assert errors > len(texts) // 2


class TestComplement:
    def test_c5_self_complementary(self):
        c5 = cycle_graph(5)
        assert canonical_code(complement(c5)) == canonical_code(c5)

    def test_k4(self):
        assert complement(complete_graph(4)).m == 0

    def test_c6_prism(self):
        prism = complement(cycle_graph(6))
        assert prism.m == 9
        assert all(prism.degree(v) == 3 for v in range(6))
        assert prism.edges == tuple(
            (i, j) for i in range(6) for j in range(i + 1, 6) if j - i in (2, 3, 4)
        )

    @given(st.integers(1, 9), st.integers(0, 2**36 - 1))
    @settings(max_examples=200)
    def test_involution(self, n, mask):
        g = random_graph(n, mask & ((1 << (n * (n - 1) // 2)) - 1))
        assert complement(complement(g)).adj == g.adj


class TestConnectivity:
    def test_examples(self):
        assert is_connected(path_graph(4))
        assert not is_connected(from_edges(4, [(0, 1), (2, 3)]))
        assert is_connected(Graph(1, (0,)))

    def test_components(self):
        g = from_edges(5, [(0, 1), (2, 3)])
        assert connected_components(g) == [0b00011, 0b01100, 0b10000]
        assert connected_components(g, within=0b01110) == [0b00010, 0b01100]

    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda e: e[0] != e[1]),
                    max_size=16))
    @settings(max_examples=200)
    def test_edge_forest_against_reachability(self, edges):
        kept, comps = edge_forest(edges)
        adj = {v: set() for v in range(8)}
        for (u, v), tree_edge in zip(edges, kept):
            assert tree_edge == (v not in oracles.reachable(adj, u, set(adj)))
            adj[u].add(v)
            adj[v].add(u)
        touched = {x for e in edges for x in e}
        want = {mask_from(oracles.reachable(adj, v, touched)) for v in touched}
        assert len(kept) == len(edges)
        assert sorted(comps) == sorted(want)


class TestCutVertices:
    def test_examples(self):
        assert cut_vertices(path_graph(4)) == mask_from([1, 2])
        assert cut_vertices(cycle_graph(5)) == 0
        bowtie = from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        assert cut_vertices(bowtie) == mask_from([2])

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            cut_vertices(from_edges(4, [(0, 1), (2, 3)]))

    def test_against_deletion_oracle(self):
        for n in range(2, 7):
            for g in enumerate_connected_graphs(n):
                assert cut_vertices(g) == mask_from(oracles.cut_vertices_by_deletion(g))


class TestDiameter:
    def test_examples(self):
        assert diameter(complete_graph(4)) == 1
        assert diameter(path_graph(5)) == 4
        k23 = complete_bipartite_graph(2, 3)
        rows = list(k23.adj)
        rows[0] &= ~(1 << 2)
        rows[2] &= ~1
        assert diameter(Graph(5, tuple(rows))) == 3

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            diameter(from_edges(3, [(0, 1)]))

    def test_agrees_with_bfs_oracle(self):
        # the oracle is the closure walk: each step expands every vertex reached
        graphs = [g for n in range(1, 8) for g in enumerate_connected_graphs(n)]
        assert len(graphs) == 996
        for g in graphs:
            assert diameter(g) == oracles.diameter_by_closure(g), g.edges


class TestCanonicalForm:
    @staticmethod
    def check_against_oracle(g: Graph) -> None:
        code, auts = graphs._canonical(g.adj)
        canon = canonical_form(g)
        assert (code, canon, auts) == oracles.canonical_with_automorphisms(g), g.edges
        assert (code, canon) == oracles.canonical_by_columns(g), g.edges
        assert canonical_code(g) == code, g.edges
        assert all(is_automorphism(canon, perm) for perm in auts), g.edges

    def test_matches_column_oracle_on_every_labelled_graph(self):
        for n in range(1, 6):
            for mask in range(1 << (n * (n - 1) // 2)):
                self.check_against_oracle(random_graph(n, mask))

    def test_matches_column_oracle_on_named_families(self):
        for n in range(1, 10):
            family = [complete_graph(n), Graph(n, (0,) * n), star_graph(n), path_graph(n)]
            if n >= 3:
                family.append(cycle_graph(n))
            for g in family:
                self.check_against_oracle(g)

    @given(st.integers(6, 9), st.integers(0, 2**36 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_column_oracle_on_random_graphs(self, n, mask):
        self.check_against_oracle(random_graph(n, mask & ((1 << (n * (n - 1) // 2)) - 1)))


class TestEnumeration:
    def test_counts(self):
        expected = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
        for n, want in expected.items():
            assert len(list(enumerate_connected_graphs(n))) == want

    def test_all_graph_counts(self):
        expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
        for n, want in expected.items():
            assert len(list(enumerate_graphs(n))) == want

    def test_against_bruteforce_classes(self):
        for n in range(1, 6):
            assert (
                len(list(enumerate_connected_graphs(n)))
                == oracles.count_connected_classes_bruteforce(n)
            )

    def test_representatives_are_canonical_and_sorted(self):
        for enumerate_fn in (enumerate_connected_graphs, enumerate_graphs):
            for n in (4, 5, 6):
                graphs = list(enumerate_fn(n))
                codes = [canonical_code(g) for g in graphs]
                assert codes == sorted(codes)
                assert all(canonical_form(g).adj == g.adj for g in graphs)
        for n in range(1, 7):
            connected = [g.adj for g in enumerate_connected_graphs(n)]
            assert connected == [g.adj for g in enumerate_graphs(n) if is_connected(g)]

    def test_budget(self):
        with pytest.raises(BudgetError):
            next(enumerate_connected_graphs(9))

    @pytest.mark.parametrize("connected", [True, False])
    def test_filter_matches_full_extension(self, connected):
        # the filter only skips candidates: same classes, same order, same
        # labels; every graph is a connected class or a complement of one
        for n in range(1, 7):
            reps = tuple(enumerate_connected_graphs(n) if connected else enumerate_graphs(n))
            assert reps == oracles.reps_by_full_extension(n, connected)

    @given(st.integers(1, 7), st.integers(0, 2**21 - 1), st.permutations(range(7)))
    @settings(max_examples=150, deadline=None)
    def test_relabeled_graph_has_its_class_enumerated(self, n, mask, perm):
        g = random_graph(n, mask & ((1 << (n * (n - 1) // 2)) - 1))
        perm = [p for p in perm if p < n]
        relabeled = from_edges(n, [(perm[u], perm[v]) for u, v in g.edges])
        code = canonical_code(relabeled)
        assert code in all_class_codes(n)
        assert (code in class_codes(n)) == is_connected(g)

    def test_filter_canonicalizes_about_one_candidate_per_class(self, monkeypatch):
        classes, calls = count_canonical_calls(monkeypatch, 7)
        assert classes == 853
        # full extension canonicalizes 7,815 candidates for these 853 classes;
        # each class needs at least one call, so a warm cache cannot pass
        assert 853 <= calls <= 2000

    def test_orbit_pruning_keeps_canonical_calls_under_1150(self, monkeypatch):
        # the invariant filter alone makes 1,701 calls here
        classes, calls = count_canonical_calls(monkeypatch, 7)
        assert classes == 853
        assert 853 <= calls <= 1150

    @pytest.mark.parametrize("connected", [True])
    def test_matches_invariant_filter_oracle(self, connected):
        # orbit pruning only skips candidates: same classes, same order, same labels
        for n in range(1, 8):
            reps = tuple(g for g, _ in graphs._classes(n))
            assert reps == oracles.reps_by_invariant_filter(n)

    @pytest.mark.parametrize("connected", [True])
    def test_classes_match_the_automorphism_search_oracle(self, monkeypatch, connected):
        # the children each level canonicalizes, run through the search that
        # relabeled and converted on every call, give the same representatives
        # with the same automorphism sets; level by level, so every level's
        # children and canonical calls are those of that search's enumerator
        children = spy_canonical(monkeypatch)
        for n in range(2, 8):
            children.clear()
            got = graphs._classes(n)
            want: dict[int, tuple[Graph, set]] = {}
            for adj in children:
                code, canon, auts = oracles.canonical_with_automorphisms(Graph(n, adj))
                want.setdefault(code, (canon, set()))[1].update(auts)
            assert got == tuple((g, frozenset(a)) for _, (g, a) in sorted(want.items())), n

    @pytest.mark.parametrize("connected", [True])
    def test_children_match_the_orbit_walk_oracle(self, monkeypatch, connected):
        # a mask no known automorphism maps lower is extended; at every level
        # that canonicalizes exactly the children the walk over each orbit
        # did, so the work is unchanged (n = 8 is pinned in CI)
        children = spy_canonical(monkeypatch)
        for n, want in zip(range(2, 8), [1, 2, 6, 21, 114, 905]):
            children.clear()
            graphs._classes(n)
            assert len(children) == want, n
            assert children == oracles.children_by_orbit_walk(n), n

    @pytest.mark.parametrize("connected", [True])
    def test_pruning_permutations_are_automorphisms(self, connected):
        used = 0
        for n in range(1, 8):
            for g, auts in graphs._classes(n):
                for perm in auts:
                    assert is_automorphism(g, perm), (n, g.edges, perm)
                    used += 1
        assert used > 0

    def test_canonical_code_permutation_invariant(self):
        g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
        for perm in itertools.permutations(range(5)):
            relabeled = from_edges(5, [(perm[u], perm[v]) for u, v in g.edges])
            assert canonical_code(relabeled) == canonical_code(g)


class TestKSubsets:
    def test_examples(self):
        assert list(k_subsets(3, 2)) == [0b011, 0b101, 0b110]
        assert list(k_subsets(4, 4)) == [0b1111]
        assert list(k_subsets(5, 0)) == [0]

    def test_errors(self):
        with pytest.raises(ValueError):
            list(k_subsets(3, 4))

    @given(st.integers(0, 10), st.integers(0, 10))
    def test_count(self, n, k):
        if k > n:
            return
        import math

        masks = list(k_subsets(n, k))
        assert len(masks) == math.comb(n, k)
        assert len(set(masks)) == len(masks)
        assert all(m.bit_count() == k for m in masks)


class TestTextFormats:
    def test_edge_list_round_trip(self):
        g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert parse_edge_list(to_edge_list(g)).adj == g.adj

    def test_edge_list_errors(self):
        with pytest.raises(ValueError, match=r"^edge list announces 2 edges but carries 1$"):
            parse_edge_list("3 2\n0 1\n")
        with pytest.raises(ValueError, match=r"^edge list announces 3 edges but carries 2$"):
            parse_edge_list("4 3\n0 1\n1 2\n")
        with pytest.raises(ValueError, match=r"^edge list ends in vertex id 2, which has no partner$"):
            parse_edge_list("4 3\n0 1\n1 2\n2\n")
        with pytest.raises(ValueError, match=r"^edge list announces -1 edges; the count cannot be negative$"):
            parse_edge_list("3 -1\n")
        with pytest.raises(ValueError, match="non-integer"):
            parse_edge_list("3 one\n")
        # a repeated pair, in either order, is named rather than collapsed
        with pytest.raises(ValueError, match=r"^edge list repeats the edge 1-0$"):
            parse_edge_list("4 4\n0 1\n1 2\n2 3\n1 0\n")
        with pytest.raises(ValueError, match=r"^edge list repeats the edge 2-3$"):
            parse_edge_list("4 4\n0 1\n2 3\n1 2\n2 3\n")
        with pytest.raises(ValueError, match="loop at vertex 0"):
            parse_edge_list("2 2\n0 0\n0 0\n")
        # library callers keep the collapsing constructor
        assert from_edges(4, [(0, 1), (1, 0)]).m == 1

    def test_auto_detect(self):
        g = path_graph(4)
        assert parse_graph(to_edge_list(g)).adj == g.adj
        assert parse_graph(to_graph6(g)).adj == g.adj
