"""Independent brute-force oracles used to cross-check the library.

Everything here is written from first principles (the graph6 codec straight
from the published format description) and deliberately avoids the
library's own code paths: dict adjacency instead of bitsets, permutation
minima instead of the pruned canonical search, explicit subtree enumeration
instead of the component-coverage reduction. The exceptions are
``mvx_by_rgs_search`` and ``mx_by_rgs_search``, the library's earlier exact
index searches over every set partition, kept as the slow paths the one
least-excess block search behind both indices is checked against.
"""

from __future__ import annotations

import itertools

from monoindex.coloring import _all_covered, _coverage_targets, _edge_covers, _vertex_covers
from monoindex.graphs import diameter
from monoindex.partitions import set_partitions_with_blocks


def g6_encode(n: int, edges: set[tuple[int, int]]) -> str:
    """graph6 from the format description: N(n) then the upper triangle
    column by column, packed big-endian into 6-bit chunks offset by 63."""
    assert 1 <= n <= 62
    bitstring = ""
    for col in range(1, n):
        for row in range(col):
            bitstring += "1" if (row, col) in edges or (col, row) in edges else "0"
    while len(bitstring) % 6:
        bitstring += "0"
    out = chr(n + 63)
    for i in range(0, len(bitstring), 6):
        out += chr(int(bitstring[i : i + 6], 2) + 63)
    return out


def g6_decode(text: str) -> tuple[int, set[tuple[int, int]]]:
    n = ord(text[0]) - 63
    bitstring = "".join(bin(ord(ch) - 63)[2:].zfill(6) for ch in text[1:])
    edges = set()
    idx = 0
    for col in range(1, n):
        for row in range(col):
            if bitstring[idx] == "1":
                edges.add((row, col))
            idx += 1
    return n, edges


def adjacency_dict(g) -> dict[int, set[int]]:
    return {v: {u for u in range(g.n) if g.adj[v] >> u & 1} for v in range(g.n)}


def reachable(adj: dict[int, set[int]], start: int, allowed: set[int]) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v in allowed and v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def cut_vertices_by_deletion(g) -> set[int]:
    """A vertex is a cut vertex iff deleting it disconnects the rest."""
    adj = adjacency_dict(g)
    out = set()
    for v in range(g.n):
        rest = set(range(g.n)) - {v}
        if not rest:
            continue
        start = min(rest)
        if reachable(adj, start, rest) != rest:
            out.add(v)
    return out


def count_connected_classes_bruteforce(n: int) -> int:
    """Connected isomorphism classes on n vertices, the slow way: every edge
    mask, connectivity by traversal, dedup by the minimum over all vertex
    permutations of the sorted relabeled edge tuple."""
    pairs = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(n)))
    seen = set()
    for mask in range(1 << len(pairs)):
        edges = {pairs[i] for i in range(len(pairs)) if mask >> i & 1}
        adj = {v: set() for v in range(n)}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        if reachable(adj, 0, set(range(n))) != set(range(n)):
            continue
        key = min(
            tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
            for p in perms
        )
        seen.add(key)
    return len(seen)


def subtree_catalog(g) -> list[tuple[int, int]]:
    """(vertex mask, internal-vertex mask) for every subtree with >= 1 edge.

    A subtree is any connected acyclic edge subset; internal vertices are
    those of degree >= 2 within the subtree.
    """
    edges = g.edges
    n = g.n
    out = []
    for size in range(1, n):
        for combo in itertools.combinations(edges, size):
            deg = {}
            for u, v in combo:
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
            if len(deg) != size + 1:
                continue  # not a tree: wrong vertex count for an acyclic set
            adj = {v: set() for v in deg}
            for u, v in combo:
                adj[u].add(v)
                adj[v].add(u)
            start = next(iter(deg))
            if reachable(adj, start, set(deg)) != set(deg):
                continue
            vmask = 0
            imask = 0
            for v, d in deg.items():
                vmask |= 1 << v
                if d >= 2:
                    imask |= 1 << v
            out.append((vmask, imask))
    return out


def vertex_mono_tree_oracle(catalog: list[tuple[int, int]], colors, s: int) -> bool:
    """Direct check against the full subtree catalog of the host graph."""
    if s.bit_count() <= 1:
        return True
    for vmask, imask in catalog:
        if vmask & s != s:
            continue
        internal_colors = {colors[v] for v in range(len(colors)) if imask >> v & 1}
        if len(internal_colors) <= 1:
            return True
    return False


def mvx_by_rgs_search(g, k: int) -> tuple[int, tuple[int, ...]]:
    """(mvx_k, witness colors) by scanning every set partition, as restricted
    growth strings, with t falling from min(n, n - diam + 2) and each k-set
    checked against the covers in turn. Merging two classes keeps a coloring
    valid, so the first feasible t is the maximum."""
    n = g.n
    subsets = tuple(_coverage_targets(g, k))
    for t in range(min(n, n - diameter(g) + 2), 0, -1):
        for colors in set_partitions_with_blocks(n, t):
            if _all_covered(subsets, _vertex_covers(g, colors)):
                return t, colors
    raise RuntimeError("unreachable: one color is always valid on a connected graph")


def mx_by_rgs_search(g, k: int):
    """The largest t, with its coloring, such that some partition of the
    edges into t classes is valid at k.

    Scans t downward from m: merging two classes of a valid coloring keeps
    it valid, so feasibility is downward closed in t and the first feasible
    t is the maximum. Partitions come as restricted growth strings, one per
    relabeling class. Callers check the arguments and their budget first.
    """
    subsets = tuple(_coverage_targets(g, k))
    for t in range(g.m, 0, -1):
        for colors in set_partitions_with_blocks(g.m, t):
            if _all_covered(subsets, _edge_covers(g, colors)):
                return t, colors
    raise RuntimeError("unreachable: one color is always valid on a connected graph")
