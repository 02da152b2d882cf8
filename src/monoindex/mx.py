"""The edge index: closed form, extremal construction, simplification, exact search.

For any connected graph and any k >= 3 the maximum number of colors in a
valid edge coloring is m - n + 2, witnessed by coloring a spanning tree
with one color and every leftover edge with a fresh one. Simplification
merges color trees that overlap in two or more vertices, then splits them
with normalization's Kruskal pass; it checks validity on its input and on
its output only.
The exact search below is the independent check of that closed form (and
the only exact route for k = 2, where mx_2 = mc).

The exact search is ``coloring._least_excess`` over the edges.
``normalize_to_forest`` shows that some optimal coloring has only tree
classes. A one-edge class holds only its own adjacent pair, which no target
needs: adjacent pairs are dropped at k = 2, and a k-set with k >= 3 does
not fit in two vertices. So the blocks are the subtrees with two or more
edges, each covering its vertex set; a spanning tree, of excess n - 2,
holds every k-set. Their count, not m, sets the cost, and the budget.
"""

from __future__ import annotations

from itertools import count

from .coloring import (
    MAX_KERNEL_VERTICES,
    EdgeColoring,
    IndexResult,
    _check_index_args,
    _edges_by_color,
    _least_excess,
    _split_into_trees,
    _target_bits,
    verify_mx_coloring,
)
from .graphs import BudgetError, Graph, bfs_tree, edge_forest, is_connected

MAX_SUBTREES = 500_000  # K8 has 441,176 subtrees of two or more edges, K9 more


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


def _subtrees(g: Graph) -> dict[int, int]:
    """{edge mask: vertex mask} of every subtree with at least two edges.

    Each tree grows from its lowest edge by edges with one end in it (the
    XOR of its vertices' incidence masks); an edge one child takes is
    banned for the later children, so each tree is made exactly once.
    """
    ends = [1 << u | 1 << v for u, v in g.edges]
    inc = [sum(1 << i for i, pair in enumerate(ends) if pair >> v & 1) for v in range(g.n)]
    stack = [
        (1 << i, ends[i], inc[u] ^ inc[v], (2 << i) - 1) for i, (u, v) in enumerate(g.edges)
    ]
    out: dict[int, int] = {}
    while stack:
        emask, vmask, boundary, banned = stack.pop()
        if emask & emask - 1:
            out[emask] = vmask
            if len(out) > MAX_SUBTREES:
                raise BudgetError(f"subtree search exceeds the budget of {MAX_SUBTREES} subtrees")
        free = boundary & ~banned
        while free:
            f = free & -free
            w = (ends[f.bit_length() - 1] & ~vmask).bit_length() - 1
            stack.append((emask | f, vmask | 1 << w, boundary ^ inc[w], banned))
            banned |= f
            free ^= f
    return out


def mx_exact_bruteforce(g: Graph, k: int) -> IndexResult:
    """(value, witness): the maximum color count over all edge colorings
    valid at k and a coloring that uses it. The value is m - e, with e the
    least total excess of edge-disjoint subtrees that hold every target
    (module docstring), from ``coloring._least_excess``. The search is exact,
    not brute force; the name stays for the API and perfbench's tracer.
    Refuses more than MAX_KERNEL_VERTICES vertices, and then more than
    MAX_SUBTREES subtrees, before any table is built.
    """
    _check_index_args(g, k)
    if g.n > MAX_KERNEL_VERTICES:
        raise BudgetError(
            f"subtree search over {g.n} vertices exceeds the budget of {MAX_KERNEL_VERTICES}"
        )
    trees = _subtrees(g)
    levels: list[list[int]] = [[] for _ in range(g.m)]  # levels[x]: the trees of excess x
    for tree in trees:
        levels[tree.bit_count() - 1].append(tree)
    # a tree that holds a target has max(k, 3) vertices or more
    [(e, colors)] = _least_excess(
        g.n, g.m, trees, lambda s, x: [t for t in levels[x] if trees[t] & s == s],
        [_target_bits(g, k)], 0, max(k, 3) - 2,
    )
    return IndexResult(g.m - e, EdgeColoring(g, colors))
