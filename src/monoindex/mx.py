"""The edge index: closed form, extremal construction, simplification, exact search.

For any connected graph and any k >= 3 the maximum number of colors in a
valid edge coloring is m - n + 2, witnessed by coloring a spanning tree
with one color and every leftover edge with a fresh one. Simplification
merges color trees that overlap in two or more vertices, then splits them
with normalization's Kruskal pass; it checks validity on its input and on
its output only.
The exact search below is the independent check of that closed form (and
the only exact route for k = 2, where mx_2 = mc).

The exact search is ``coloring._least_excess`` over the edges, and its
blocks are one tree per connected vertex set. That loses no optimum.
``normalize_to_forest`` shows that some optimal coloring has only tree
classes, and the merge of ``simplify_coloring`` that some optimal coloring
has nontrivial trees pairwise sharing at most one vertex: t merged trees
free at least t - 1 edges, so no color is lost. A one-edge class holds only
its own adjacent pair, which no target needs: adjacent pairs are dropped at
k = 2, and a k-set with k >= 3 does not fit in two vertices. So the classes
that matter are trees spanning connected sets A of three or more vertices,
excess |A| - 2, covering A. Sets pairwise sharing at most one vertex have
edge-disjoint spanning trees, as a shared edge is two shared vertices, so
the BFS tree of each A in place of its class keeps an optimal family in the
search space. The kernel gets each tree with the subsets of A. Every family
the search returns is a valid coloring, so the search cannot beat the
optimum either. A tree that holds a target has max(k, 3) vertices or more,
so no block of excess below max(k, 3) - 2 is asked for. The BFS spanning
tree, of excess n - 2, holds every k-set, so it is the search's ceiling:
mx_k >= m - n + 2 at every k, and no family of excess n - 2 or more is
searched for.
"""

from __future__ import annotations

from itertools import count

from .coloring import (
    EdgeColoring,
    IndexResult,
    _block_colors,
    _check_index_args,
    _connected_sets,
    _edges_by_color,
    _least_excess,
    _split_into_trees,
    _target_bits,
    verify_mx_coloring,
)
from .graphs import Graph, bfs_tree, edge_forest, is_connected


def mx_k_formula(g: Graph, k: int) -> int:
    """m - n + 2, valid for 3 <= k <= n on connected graphs with n >= 3."""
    _check_index_args(g, k)
    if k < 3:
        raise ValueError(
            "the closed form covers 3 <= k <= n only; for k=2 the index can "
            "exceed m-n+2, use mx_exact_bruteforce"
        )
    return g.m - g.n + 2


def construct_extremal_mx(g: Graph) -> EdgeColoring:
    """Spanning tree in color 0, every remaining edge a fresh color.

    Uses the BFS tree from vertex 0, so the witness is deterministic. The
    result uses m - n + 2 colors and is valid for every k in 3..n.
    """
    if not is_connected(g):
        raise ValueError("extremal construction needs a connected graph")
    tree_edges, fresh = set(bfs_tree(g, 0)), count(1)
    return EdgeColoring(g, tuple(0 if e in tree_edges else next(fresh) for e in g.edges))


def simplify_coloring(ec: EdgeColoring, k: int) -> EdgeColoring:
    """Merge overlapping nontrivial color trees until the coloring is simple.

    Simple means any two color classes with >= 2 edges share at most one
    vertex. Groups of classes whose vertex sets share two or more vertices
    merge, in any order (masks only grow, and every merge is forced), and
    take one color, which only grows monochromatic components, so the merged
    coloring needs no check. The Kruskal split of ``normalize_to_forest``
    keeps each group's Kruskal tree, the one pairwise merging reaches as
    MSF(A | B) = MSF(MSF(A) | B) under edge-index weights, and frees the rest
    as one-edge classes: t trees free at least t - 1, so no color is lost.
    Validity is checked on the input and on the output only.
    """
    if not verify_mx_coloring(ec, k):
        raise ValueError(f"input coloring is not valid at k={k}")
    groups: list[tuple[int, list[int]]] = []  # (vertex mask, colors), pairwise overlap <= 1
    for c, edges in _edges_by_color(ec.graph, ec.colors).items():
        kept, comps = edge_forest(edges)
        if len(comps) > 1 or not all(kept):
            raise ValueError("simplification expects tree classes; run normalize_to_forest first")
        if len(edges) == 1:
            continue
        mask, colors = comps[0], [c]
        while overlap := [grp for grp in groups if (grp[0] & mask).bit_count() >= 2]:
            for grp in overlap:
                groups.remove(grp)
                mask |= grp[0]
                colors += grp[1]
        groups.append((mask, colors))
    to = {c: colors[0] for _, colors in groups for c in colors}
    return _split_into_trees(EdgeColoring(ec.graph, tuple(to.get(c, c) for c in ec.colors)), k)


def mx_exact_bruteforce(g: Graph, k: int) -> IndexResult:
    """(value, witness): the maximum color count over all edge colorings
    valid at k and a coloring that uses it. The value is m - e, with e the
    least total excess of edge-disjoint trees, one per connected vertex set,
    that hold every target (module docstring), from ``coloring._least_excess``,
    each handed over with the subsets of its vertex set. The search is exact,
    not brute force; the name stays for the API and perfbench's tracer.
    Refuses more than MAX_KERNEL_VERTICES vertices at the down-set table,
    before anything of size m is built.
    """
    _check_index_args(g, k)
    sets = _connected_sets(g, [1 << v for v in range(g.n)])
    edge_bit = {e: 1 << i for i, e in enumerate(g.edges)}

    def tree(a: int) -> int:  # the edge mask of the BFS tree of vertex set a
        return sum(map(edge_bit.get, bfs_tree(g, (a & -a).bit_length() - 1, a)))

    [(e, chosen)] = _least_excess(
        lambda s, x: [(tree(a), inside) for a, inside in sets(s, x + 1)], [_target_bits(g, k)],
        max(k, 3) - 2, (g.n - 2, (tree(g.full_mask),)))
    return IndexResult(g.m - e, EdgeColoring(g, _block_colors(g.m, chosen)))
