"""The edge index: closed form, extremal construction, simplification, oracle.

For any connected graph and any k >= 3 the maximum number of colors in a
valid edge coloring is m - n + 2, witnessed by coloring a spanning tree
with one color and every leftover edge with a fresh one. The brute-force
searcher below is the independent check of that closed form (and the only
exact route for k = 2, where the closed form does not apply).
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import (
    EdgeColoring,
    _check_index_args,
    _max_valid_partition,
    color_classes,
    verify_mx_coloring,
)
from .graphs import BudgetError, Graph, bfs_tree, edge_forest, is_connected

MAX_BRUTEFORCE_EDGES = 10


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


def mx_exact_bruteforce(g: Graph, k: int, max_edges: int = MAX_BRUTEFORCE_EDGES) -> MxResult:
    """Maximum color count over all edge partitions that stay valid at k.

    The descending partition search starts from m colors.
    """
    _check_index_args(g, k)
    m = g.m
    if m > max_edges:
        raise BudgetError(
            f"partition search over {m} edges exceeds the budget of {max_edges}"
        )
    t, colors = _max_valid_partition(g, k)
    return MxResult(t, EdgeColoring(g, colors), k)
