"""The vertex index: spanning-tree and domination solvers plus closed forms.

Computing the vertex index at k = n is the max-leaf spanning tree problem
in disguise (value l(T_max) + 1), which in turn is connected domination in
disguise (l(T_max) = n - gamma_c for n >= 3): the internal vertices of a
spanning tree form a connected dominating set and any connected dominating
set spans a tree whose complement sits among the leaves. The max-leaf tree
is read off a minimum connected dominating set here, and ``tests/oracles.py``
checks it against the scan of every (n-1)-edge subset. On a graph with a cut
vertex n - gamma_c + 1 is the index at every k from 2 to n, read with its
witness off that core: the fast path the decision reduction rides on.

The exact search is ``coloring._least_excess`` over the vertices.
Splitting a color class into its components keeps every cover N[A] (see
``coloring``) and adds colors, so some optimal coloring has connected
classes only: the blocks are the connected sets A of two or more vertices,
each covering N[A]. A lone vertex v holds the subsets of N[v], and so does
any block holding v, so those k-sets need no block at all. A block A holds
a target s iff A meets N[t] for every t in s: ``coloring._connected_sets``
lists them, each with the vertex sets inside N[A].

Two numbers settle most k without the search. tau is the least size of a
vertex set in no N[v] (none if some N[v] = V, and then mvx_k = n at every
k), and gamma_c - 1 the least excess of a block that dominates.
- Below tau every k-set lies in some N[v], so the all-distinct coloring is
  valid: mvx_k = n.
- At every k, k = 2 included, the core (a minimum connected dominating set)
  as one color and every other vertex its own is valid, as N[core] = V:
  mvx_k >= n - gamma_c + 1. So the search never needs excess gamma_c - 1.
- For k >= 3 and k >= tau + gamma_c - 2, mvx_k = n - gamma_c + 1. Take an
  optimal coloring with connected classes, of excess e. A dominating class
  has gamma_c vertices or more, so e >= gamma_c - 1. Otherwise pick a vertex
  outside N[A] for each class A of two or more vertices, at most e of them,
  and add a set of tau vertices in no N[v]. The union lies in no cover, and
  padded to k vertices, which k >= 3 keeps from being an adjacent pair, it
  is a k-set that the coloring leaves out, unless e + tau > k. Either way
  e >= gamma_c - 1.
The search runs at k = 2 when tau = 2 and in the window tau <= k < tau +
gamma_c - 2, with that core as its ceiling.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import or_
from typing import NamedTuple

from .coloring import (
    IndexResult,
    VertexColoring,
    _block_colors,
    _check_index_args,
    _connected_sets,
    _down_sets,
    _k_set_bits,
    _least_excess,
    verify_mvx_coloring,
)
from .graphs import (
    Graph,
    _least_set,
    bfs_tree,
    closed_neighborhood,
    connected_components,
    cut_vertices,
    diameter,
    is_connected,
    iter_bits,
    mask_from,
)


class SpanningTreeResult(NamedTuple):
    edges: tuple[tuple[int, int], ...]
    leaf_count: int


def max_leaf_spanning_tree(g: Graph) -> SpanningTreeResult:
    """A maximum-leaf spanning tree: ``_tree_on`` a minimum connected
    dominating set, from its lowest vertex. For n >= 3 the leaves are exactly
    the n - gamma_c vertices outside the core, as a core vertex of tree-degree
    1 could leave it, which would stay connected and dominating. On K2 the
    core is {0} and both vertices are leaves. Refused past MAX_SEARCH_NODES.
    """
    if not is_connected(g) or g.n < 2:
        raise ValueError("spanning trees need a connected graph on >= 2 vertices")
    core = minimum_connected_dominating_set(g)
    return _tree_on(g, (core & -core).bit_length() - 1, core)


def _tree_on(g: Graph, root: int, core: int) -> SpanningTreeResult:
    """The BFS tree of the connected dominating set core from root, with every
    other vertex hung off its lowest neighbour in core as a leaf; edges sorted."""
    tree = bfs_tree(g, root, core)
    for v in iter_bits(g.full_mask & ~core):
        anchor = (g.adj[v] & core & -(g.adj[v] & core)).bit_length() - 1
        tree.append((anchor, v) if anchor < v else (v, anchor))
    tree.sort()
    deg = [0] * g.n
    for edge in tree:
        for v in edge:
            deg[v] += 1
    return SpanningTreeResult(tuple(tree), deg.count(1))


def minimum_connected_dominating_set(g: Graph) -> int:
    """Mask of the first minimum connected dominating set in combinations
    order, grown from the least closed neighbourhood (every dominating set
    meets it) by its boundary, so it stays connected, and never by a leaf,
    which for n >= 3 no minimum one holds. A branch ends once d can grow to
    dominate only past its room or through barred vertices (see ``need``)."""
    if not is_connected(g):
        raise ValueError("connected domination needs a connected graph")
    if g.n < 3:
        return g.n - 1  # the empty set on one vertex, {0} on K2
    full, closed, live = g.full_mask, [g.adj[v] | 1 << v for v in range(g.n)], [-1, 0]
    inner = mask_from(v for v in range(g.n) if g.adj[v] & g.adj[v] - 1)
    start = min(closed, key=int.bit_count) & inner

    def need(d, r, barred, room):  # live: the last barred, a dominating connected set avoiding it
        if r == full or not d:
            return start if not d else 0
        # lb undominated t with pairwise disjoint N[t] & avail need lb vertices more
        avail, todo, used, lb = inner & ~barred, full & ~r, 0, 0
        while lb <= room < lb + todo.bit_count():
            t, todo = (todo & -todo).bit_length() - 1, todo & todo - 1
            if not closed[t] & avail & used:
                used, lb = used | closed[t] & avail, lb + 1
        if lb > room:
            return barred  # not 0: with nothing barred, limit is still n
        if barred != live[0] or not d & live[1]:
            reach, cover = d, r
            while cover != full:  # grow d within avail until it dominates or stops
                grow = cover & avail & ~reach
                if not grow:
                    return barred
                reach, cover = reach | grow, cover | closed_neighborhood(g, grow)
            live[:] = barred, reach
        return r & inner & ~d

    return [*_least_set(closed, need, g.n)][-1]


def connected_domination_number(g: Graph) -> int:
    """Size of a minimum connected dominating set; 0 for the one-vertex graph."""
    return minimum_connected_dominating_set(g).bit_count()


def mvx_n_formula(g: Graph) -> int:
    """l(T_max) + 1 = n - gamma_c + 1, read off connected domination; needs n >= 3."""
    if g.n < 3:
        raise ValueError("the spanning-tree formula needs n >= 3")
    return g.n - connected_domination_number(g) + 1


def mvx_via_cut_vertex(g: Graph, k: int) -> IndexResult:
    """(value, witness) on a graph with a cut vertex: l(T_max) + 1 at every k.

    The witness gives a minimum connected dominating set (the internal vertices
    of a max-leaf spanning tree) one color and every other vertex its own.
    """
    _check_index_args(g, k)
    if not cut_vertices(g):
        raise ValueError("not applicable: the graph has no cut vertex")
    core = minimum_connected_dominating_set(g)
    colors = [0] * g.n
    for fresh, v in enumerate(iter_bits(g.full_mask & ~core), 1):
        colors[v] = fresh
    return IndexResult(g.n - core.bit_count() + 1, VertexColoring(g, tuple(colors)))


def mvx_exact(g: Graph, k: int) -> IndexResult:
    """(value, witness): the maximum color count over all vertex colorings
    valid at k, and a coloring using it, read off ``mvx_profile`` (which
    checks g): k = 2..n share one search."""
    if not 2 <= k <= g.n:
        _check_index_args(g, k)
    return mvx_profile(g)[k - 2]


@lru_cache(maxsize=1)
def mvx_profile(g: Graph) -> tuple[IndexResult, ...]:
    """The (value, witness) results for k = 2..n, one witness per distinct
    coloring, from ``_excess_profile``.
    Refuses g if disconnected, then (in ``_down_sets``) if n > MAX_KERNEL_VERTICES.
    """
    _check_index_args(g, 2)
    found = _excess_profile(g, 2)
    colors = {blocks: _block_colors(g.n, blocks) for blocks in {blocks for _, blocks in found}}
    witness = {c: VertexColoring(g, c) for c in colors.values()}
    return tuple(IndexResult(g.n - e, witness[colors[blocks]]) for e, blocks in found)


def _excess_profile(g: Graph, first: int) -> list[tuple[int, tuple[int, ...]]]:
    """(e, blocks) for k = first..n on a connected g of at most
    MAX_KERNEL_VERTICES vertices: mvx_k = n - e, each block one color (module
    docstring). tau is the first k with a target, and gamma_c - 1 the least
    x with a block of excess x holding V, the first of which is the core.
    Blocks come with the vertex sets inside their covers N[A]. The search
    starts at e = 0 and each k at the e of k - 1, as validity only shrinks as
    k grows; the levels below diam - 2 hold no family, and fail cheaply.
    """
    n, full, down = g.n, g.full_mask, _down_sets(g.n)
    hit = [g.adj[v] | 1 << v for v in range(n)]
    base = reduce(or_, (down[h] for h in hit))  # the sets inside some N[v]
    target_sets = [_k_set_bits(n, k) & ~base for k in range(2, n + 1)]
    tau = next((k for k, targets in enumerate(target_sets, 2) if targets), n + 1)
    if tau > n:
        return [(0, ())] * (n + 1 - first)
    holding, top = _connected_sets(g, hit), 0
    while not (cores := holding(full, top)):
        top += 1
    ceiling = (top, (cores[0][0],))
    lo, hi = max(first, tau), min(max(3, tau + top - 1), n + 1)
    found = [] if lo >= hi else _least_excess(holding, target_sets[lo - 2 : hi - 2], 1, ceiling)
    return [(0, ())] * (lo - first) + found + [ceiling] * (n + 1 - max(lo, hi))


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
    n/2 - 1 when 4 | n, and n/2 otherwise.

    For the complement of C_n (n >= 6) it is tau - 1 (module docstring):
    there V - N[v] = {v - 1, v + 1}, so a set lies in no N[v] iff it is a
    vertex cover of the graph joining vertices two apart on C_n, which is
    C_n for odd n and two copies of C_{n/2} for even n. A cycle C_m needs
    ceil(m/2) cover vertices, so tau is (n+1)/2, n/2 or n/2 + 1 for n odd,
    n = 0 and n = 2 (mod 4). Two vertices three apart on C_n are adjacent and
    dominate, so gamma_c = 2, the window is empty and the index is n below
    tau and n - 1 from tau on: ``complement_cycle_mvx``.
    """
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
    if not 0 <= v0 < g.n:
        raise ValueError(f"vertex {v0} out of range 0..{g.n - 1}")
    if not cut_vertices(g) >> v0 & 1:
        raise ValueError(f"vertex {v0} is not a cut vertex")
    if not verify_mvx_coloring(vc, 2):
        raise ValueError("the coloring is not valid at k=2")
    same = mask_from(v for v, c in enumerate(vc.colors) if c == vc.colors[v0])
    core = next(comp for comp in connected_components(g, same) if comp >> v0 & 1)
    if closed_neighborhood(g, core) != g.full_mask:
        raise RuntimeError("v0's color component does not dominate the graph; this is a bug")
    return _tree_on(g, v0, core)
