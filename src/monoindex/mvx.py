"""The vertex index: spanning-tree and domination solvers plus closed forms.

Computing the vertex index at k = n is the max-leaf spanning tree problem
in disguise (value l(T_max) + 1), which in turn is connected domination in
disguise (l(T_max) = n - gamma_c for n >= 3): the internal vertices of a
spanning tree form a connected dominating set and any connected dominating
set spans a tree whose complement sits among the leaves. Both solvers are
implemented independently here precisely so the tests can play them against
each other. On a graph with a cut vertex the value l(T_max) + 1 is the
index for every k from 2 to n, which is the fast path the decision
reduction rides on.

The exact search is ``coloring._least_excess`` over the vertices.
Splitting a color class into its components keeps every cover N[A] (see
``coloring``) and adds colors, so some optimal coloring has connected
classes only: the blocks are the connected sets A of two or more vertices,
each covering N[A]. A lone vertex v holds the subsets of N[v], and so does
any block holding v, so those k-sets need no block at all.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .coloring import (
    MAX_KERNEL_VERTICES,
    VertexColoring,
    _check_index_args,
    _coverage_targets,
    _down_sets,
    _least_excess,
    verify_mvx_coloring,
)
from .graphs import (
    BudgetError,
    Graph,
    bfs_tree,
    closed_neighborhood,
    connected_components,
    cut_vertices,
    diameter,
    is_connected,
    iter_bits,
    mask_from,
)

MAX_TREE_SUBSETS = 10_000_000
MAX_DOMINATION_VERTICES = 20
MAX_EXACT_VERTICES = 10


@dataclass(frozen=True)
class SpanningTreeResult:
    edges: tuple[tuple[int, int], ...]
    leaf_count: int


@dataclass(frozen=True)
class MvxResult:
    value: int
    witness: VertexColoring | None
    k: int
    method: str  # "exact-search" | "cut-vertex" | "closed-form"


def _degrees(n: int, edges) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def max_leaf_spanning_tree(g: Graph, max_subsets: int = MAX_TREE_SUBSETS) -> SpanningTreeResult:
    """Exact maximum-leaf spanning tree by scanning all (n-1)-edge subsets.

    Deliberately oblivious to the domination duality so it can serve as its
    independent check. Refuses graphs where C(m, n-1) exceeds the budget.
    """
    if not is_connected(g) or g.n < 2:
        raise ValueError("spanning trees need a connected graph on >= 2 vertices")
    n, m = g.n, g.m
    if comb(m, n - 1) > max_subsets:
        raise BudgetError(
            f"C({m},{n - 1}) edge subsets exceed the budget of {max_subsets}; "
            "use max_leaf_heuristic for a witness"
        )
    edges = g.edges
    best_edges = None
    best_leaves = -1
    # An array union-find that stops at the first cycle. The shared
    # edge_forest finishes every subset, which doubled the time of this scan
    # (48,620 subsets for the reduction gadget of a 4-vertex tree).
    for combo in itertools.combinations(edges, n - 1):
        deg = [0] * n
        parent = list(range(n))
        ok = True
        for u, v in combo:
            deg[u] += 1
            deg[v] += 1
            while parent[u] != u:
                u = parent[u]
            while parent[v] != v:
                v = parent[v]
            if u == v:
                ok = False  # closes a cycle
                break
            parent[v] = u
        if not ok:
            continue
        # n-1 acyclic edges on n vertices always form a spanning tree
        leaves = sum(1 for d in deg if d == 1)
        if leaves > best_leaves:
            best_leaves = leaves
            best_edges = combo
    return SpanningTreeResult(best_edges, best_leaves)


def max_leaf_heuristic(g: Graph) -> SpanningTreeResult:
    """Greedy many-leaf spanning tree; a witness, not the optimum.

    Grows a connected core by repeatedly attaching the vertex that newly
    dominates the most vertices (ties to the lowest id), then hangs every
    non-core vertex off its lowest-id core neighbor.
    """
    if not is_connected(g) or g.n < 2:
        raise ValueError("spanning trees need a connected graph on >= 2 vertices")
    n = g.n
    full = g.full_mask
    closed = [g.adj[v] | 1 << v for v in range(n)]
    start = max(range(n), key=lambda v: (closed[v].bit_count(), -v))
    core = 1 << start
    dominated = closed[start]
    while dominated != full:
        best_v = -1
        best_gain = -1
        for v in iter_bits(dominated & ~core):
            if not g.adj[v] & core:
                continue
            gain = (closed[v] & ~dominated).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_v = v
        core |= 1 << best_v
        dominated |= closed[best_v]
    return _tree_from_core(g, core, start)


def _tree_from_core(g: Graph, core: int, root: int) -> SpanningTreeResult:
    """Spanning tree whose internal vertices lie in a connected dominating core:
    the BFS tree of the core from root, every other vertex hung as a leaf off
    its lowest-id core neighbor."""
    tree = bfs_tree(g, root, core)
    for v in iter_bits(g.full_mask & ~core):
        anchor = (g.adj[v] & core & -(g.adj[v] & core)).bit_length() - 1
        tree.append((anchor, v) if anchor < v else (v, anchor))
    tree.sort()
    return SpanningTreeResult(tuple(tree), _degrees(g.n, tree).count(1))


def _dominating_masks(g: Graph, max_vertices: int = MAX_DOMINATION_VERTICES):
    """Every dominating set of g as a mask, by ascending size, then in
    combinations order within a size. Refuses graphs above the budget."""
    n = g.n
    if n > max_vertices:
        raise BudgetError(f"subset search over {n} vertices exceeds the budget of {max_vertices}")
    full = g.full_mask
    closed = [g.adj[v] | 1 << v for v in range(n)]
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            cover = 0
            for v in combo:
                cover |= closed[v]
            if cover == full:
                yield mask_from(combo)


def minimum_connected_dominating_set(
    g: Graph, max_vertices: int = MAX_DOMINATION_VERTICES
) -> int:
    """Mask of a minimum connected dominating set (ascending-size search)."""
    if not is_connected(g):
        raise ValueError("connected domination needs a connected graph")
    if g.n == 1:
        return 0  # lone vertex: empty set by convention
    for mask in _dominating_masks(g, max_vertices):
        if connected_components(g, mask) == [mask]:
            return mask
    raise RuntimeError("unreachable: the full vertex set always dominates")


def connected_domination_number(g: Graph, max_vertices: int = MAX_DOMINATION_VERTICES) -> int:
    """Size of a minimum connected dominating set; 0 for the one-vertex graph."""
    return minimum_connected_dominating_set(g, max_vertices).bit_count()


def _max_leaf_tree(g: Graph) -> SpanningTreeResult:
    """Exact max-leaf tree by subset scan when cheap, else via a minimum
    connected dominating set (exact by the leaf/domination duality, which the
    test suite validates against the subset scan on every small graph)."""
    if comb(g.m, g.n - 1) <= 50_000:
        return max_leaf_spanning_tree(g)
    core = minimum_connected_dominating_set(g)
    return _tree_from_core(g, core, (core & -core).bit_length() - 1)


def mvx_n_formula(g: Graph) -> int:
    """l(T_max) + 1 from the exact spanning-tree solver; needs n >= 3."""
    if g.n < 3:
        raise ValueError("the spanning-tree formula needs n >= 3")
    return max_leaf_spanning_tree(g).leaf_count + 1


def mvx_via_cut_vertex(g: Graph, k: int) -> MvxResult:
    """On a graph with a cut vertex the index is l(T_max) + 1 for every k.

    The witness colors the internal vertices of a max-leaf spanning tree with
    one color and every leaf with a fresh one.
    """
    _check_index_args(g, k)
    if not cut_vertices(g):
        raise ValueError("not applicable: the graph has no cut vertex")
    tree = _max_leaf_tree(g)
    deg = _degrees(g.n, tree.edges)
    colors = [0] * g.n
    fresh = 1
    for v in range(g.n):
        if deg[v] == 1:
            colors[v] = fresh
            fresh += 1
    return MvxResult(tree.leaf_count + 1, VertexColoring(g, tuple(colors)), k, "cut-vertex")


def mvx_exact(g: Graph, k: int, max_vertices: int = MAX_EXACT_VERTICES) -> MvxResult:
    """Maximum color count over all vertex colorings valid at k, read off
    ``mvx_profile``; asking for k = 2..n in turn searches once."""
    _check_index_args(g, k)
    t, colors = mvx_profile(g, max_vertices)[k - 2]
    return MvxResult(t, VertexColoring(g, colors), k, "exact-search")


@lru_cache(maxsize=1)
def mvx_profile(g: Graph, max_vertices: int = MAX_EXACT_VERTICES):
    """(mvx_k, witness colors) for k = 2..n from one least-excess search
    (module docstring). It starts at e = diam - 2, as mvx_k <= n - diam + 2,
    and each k at the e of k - 1, as validity only shrinks as k grows.
    Refuses n above ``max_vertices``, or above MAX_KERNEL_VERTICES whatever
    it says, before any table is built. The cache keeps the last call's
    answer, keyed on both arguments, so a smaller budget is checked again.
    """
    _check_index_args(g, 2)
    cap = min(max_vertices, MAX_KERNEL_VERTICES)
    if g.n > cap:
        raise BudgetError(f"exact search over {g.n} vertices exceeds the budget of {cap}")
    n, adj = g.n, g.adj
    down = _down_sets(n)
    closed = [0] * (1 << n)
    base = 0
    blocks: dict[int, int] = {}  # connected mask of two or more vertices -> its cover
    for mask in range(1, 1 << n):
        low = mask & -mask
        closed[mask] = closed[mask ^ low] | adj[low.bit_length() - 1] | low
        if mask == low:
            base |= down[closed[mask]]
            continue
        reach = low
        while (grown := closed[reach] & mask) != reach:
            reach = grown
        if reach == mask:
            blocks[mask] = closed[mask]
    target_sets = [sum(1 << s for s in _coverage_targets(g, k)) & ~base for k in range(2, n + 1)]
    found = _least_excess(n, n, blocks, target_sets, max(diameter(g) - 2, 0), least=1)
    return tuple((n - e, colors) for e, colors in found)


def cycle_mvc_formula(n: int) -> int:
    """Monochromatic vertex-connection number of the n-cycle: n up to 5, then 3."""
    if n < 3:
        raise ValueError("cycles need n >= 3")
    return n if n <= 5 else 3


def complement_cycle_mvx(n: int, k: int) -> int:
    """Closed form for the index of the complement of an n-cycle, n >= 6.

    The value is n for small k and n - 1 beyond a threshold that depends on
    n mod 4: (n-1)/2 for odd n, n/2 - 1 when 4 | n, and n/2 otherwise.
    """
    if n < 6:
        raise ValueError("the closed form covers n >= 6 only")
    if not 3 <= k <= n:
        raise ValueError(f"k={k} out of range 3..{n}")
    return n if k <= _mod4_threshold(n) else n - 1


def _mod4_threshold(n: int) -> int:
    """The last k before the closed forms step down: (n-1)/2 for odd n,
    n/2 - 1 when 4 | n, and n/2 otherwise."""
    if n % 2 == 1:
        return (n - 1) // 2
    if n % 4 == 0:
        return n // 2 - 1
    return n // 2


def diameter_upper_bound(g: Graph) -> int:
    """n - diam(G) + 2, an upper bound for the vertex index at every k."""
    return g.n - diameter(g) + 2


def extract_mono_spanning_tree(vc: VertexColoring, v0: int) -> SpanningTreeResult:
    """A spanning tree whose internal vertices all wear v0's color c.

    Needs a cut vertex v0 and a coloring that is valid at k = 2. Each vertex
    pairs with a vertex in another component of G - v0, and every path
    between them runs through v0, so the certifying path's internal vertices
    lie in A, the component of color class c that holds v0. Hence A
    dominates G, and the tree is the BFS tree of A with every other vertex
    hung off it as a leaf.
    """
    g = vc.graph
    if not cut_vertices(g) >> v0 & 1:
        raise ValueError(f"vertex {v0} is not a cut vertex")
    if not verify_mvx_coloring(vc, 2):
        raise ValueError("the coloring is not valid at k=2")
    core = next(
        comp
        for comp in connected_components(g, vc.class_mask(vc.colors[v0]))
        if comp >> v0 & 1
    )
    if closed_neighborhood(g, core) != g.full_mask:
        raise RuntimeError("v0's color component does not dominate the graph; this is a bug")
    return _tree_from_core(g, core, v0)
