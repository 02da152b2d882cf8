"""The edge index: closed form, extremal construction, simplification, exact search.

For any connected graph and any k >= 3 the maximum number of colors in a
valid edge coloring is m - n + 2, witnessed by coloring a spanning tree
with one color and every leftover edge with a fresh one. The exact search
below is the independent check of that closed form (and the only exact
route for k = 2, where the closed form does not apply and mx_2 = mc).

The exact search is ``coloring._least_excess`` over the edges.
``normalize_to_forest`` shows that some optimal coloring has only tree
classes. A one-edge class holds only its own adjacent pair, which no target
needs: adjacent pairs are dropped at k = 2, and a k-set with k >= 3 does
not fit in two vertices. So the blocks are the subtrees with two or more
edges, each covering its vertex set; a spanning tree, of excess n - 2,
holds every k-set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import (
    MAX_KERNEL_VERTICES,
    EdgeColoring,
    _check_index_args,
    _least_excess,
    _target_bits,
    color_classes,
    verify_mx_coloring,
)
from .graphs import BudgetError, Graph, bfs_tree, edge_forest, is_connected

MAX_BRUTEFORCE_EDGES = 15


@dataclass(frozen=True)
class MxResult:
    value: int
    witness: EdgeColoring
    k: int


def mx_k_formula(g: Graph, k: int) -> int:
    """m - n + 2, valid for 3 <= k <= n on connected graphs with n >= 3."""
    _check_index_args(g, k)
    if g.n < 3:
        raise ValueError("the closed form needs n >= 3")
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
    if g.n == 1:
        return EdgeColoring(g, ())
    tree_edges = set(bfs_tree(g, 0))
    colors = []
    fresh = 1
    for e in g.edges:
        if e in tree_edges:
            colors.append(0)
        else:
            colors.append(fresh)
            fresh += 1
    return EdgeColoring(g, tuple(colors))


def simplify_coloring(ec: EdgeColoring, k: int) -> EdgeColoring:
    """Merge overlapping nontrivial color trees until the coloring is simple.

    Simple means any two color classes with >= 2 edges share at most one
    vertex. Whenever classes c and d share p >= 2 vertices, their union H is
    connected with |V(H)| - 1 + (p - 1) edges: a spanning tree of H keeps
    color c and the p - 1 leftover edges get fresh colors. Each pass raises
    (num_colors, trivial-color count) lexicographically, so this terminates,
    and it never uses fewer colors than the input.
    """
    g = ec.graph
    if not verify_mx_coloring(ec, k):
        raise ValueError(f"input coloring is not valid at k={k}")
    if any(not cc.is_tree for cc in color_classes(ec)):
        raise ValueError("simplification expects tree classes; run normalize_to_forest first")
    colors = list(ec.colors)
    next_color = max(colors) + 1
    while True:
        classes = [cc for cc in color_classes(EdgeColoring(g, tuple(colors))) if not cc.trivial]
        pair = None
        for i in range(len(classes)):
            for j in range(i + 1, len(classes)):
                if (classes[i].vertices & classes[j].vertices).bit_count() >= 2:
                    pair = (classes[i], classes[j])
                    break
            if pair:
                break
        if pair is None:
            break
        keep = pair[0]
        union_idxs = sorted(g.edge_index[e] for cc in pair for e in cc.edges)
        # Kruskal over the union: tree edges take color c, the rest fresh ones
        kept, _ = edge_forest(g.edges[idx] for idx in union_idxs)
        for idx, tree_edge in zip(union_idxs, kept):
            if tree_edge:
                colors[idx] = keep.color
            else:
                colors[idx] = next_color
                next_color += 1
    out = EdgeColoring(g, tuple(colors)).renumbered()
    if not verify_mx_coloring(out, k):
        raise RuntimeError("simplification broke the coloring; this is a bug")
    return out


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
        free = boundary & ~banned
        while free:
            f = free & -free
            w = (ends[f.bit_length() - 1] & ~vmask).bit_length() - 1
            stack.append((emask | f, vmask | 1 << w, boundary ^ inc[w], banned))
            banned |= f
            free ^= f
    return out


def mx_exact_bruteforce(g: Graph, k: int) -> MxResult:
    """Maximum color count over all edge colorings valid at k: m - e, with e
    the least total excess of edge-disjoint subtrees that hold every target
    (module docstring), found by ``coloring._least_excess``. The search is
    exact, not brute force; the name stays for the API and perfbench's
    tracer. Refuses more than MAX_BRUTEFORCE_EDGES edges or
    MAX_KERNEL_VERTICES vertices before any table or subtree list is built.
    """
    _check_index_args(g, k)
    for size, cap, noun in ((g.n, MAX_KERNEL_VERTICES, "vertices"), (g.m, MAX_BRUTEFORCE_EDGES, "edges")):
        if size > cap:
            raise BudgetError(f"subtree search over {size} {noun} exceeds the budget of {cap}")
    trees = _subtrees(g)
    levels: list[list[int]] = [[] for _ in range(g.m)]  # levels[x]: the trees of excess x
    for tree in trees:
        levels[tree.bit_count() - 1].append(tree)
    # a tree that holds a target has max(k, 3) vertices or more
    [(e, colors)] = _least_excess(
        g.n, g.m, trees, lambda s, x: [t for t in levels[x] if trees[t] & s == s],
        [_target_bits(g, k)], 0, max(k, 3) - 2,
    )
    return MxResult(g.m - e, EdgeColoring(g, colors), k)
