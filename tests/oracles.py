"""Independent brute-force oracles used to cross-check the library.

Everything here is written from first principles (the graph6 codec straight
from the published format description) and deliberately avoids the
library's own code paths: dict adjacency instead of bitsets, permutation
minima instead of the pruned canonical search, explicit subtree enumeration
instead of the component-coverage reduction. The exceptions are the
library's earlier code, kept as the slow paths its fast paths are checked
against:

- ``mvx_by_rgs_search`` and ``mx_by_rgs_search``, the exact index searches
  over every set partition, which the one least-excess block search behind
  both indices replaced;
- ``least_excess_eager``, that block search as it first built its block
  lists (every target's, for every excess up to e, whether the search
  reaches them or not), called by ``mvx_profile_by_mask_scan``, the table
  side of the vertex index before its blocks were grown as bit-parallel
  families and before tau and gamma_c answered most k (it searches every
  k, up to one block of every vertex), and by ``mx_by_eager_kernel``, the
  edge index over every subtree of two or more edges (``_subtrees``, up to
  its own limit of ``MAX_SUBTREES``), as the library searched it before it
  took one tree per connected vertex set; ``block_colors`` colors the
  blocks either one returns;
- ``parse_graph6_by_bit_list``, the graph6 decoder as it was before it
  folded the data bytes into one int: a list of bits, read by index;
- ``diameter_by_closure``, the diameter as it was before it walked only
  each new frontier: every step takes the closed neighborhood of all
  vertices reached so far;
- ``dominating_sets_by_combinations``, the domination search before one
  least-set search (``graphs._least_set``) replaced it: every vertex set by
  ascending size, in combinations order within a size, kept when its
  closed neighbourhood is everything; ``first_connected_dominating_set``
  takes the first connected one;
- ``max_leaf_by_array_union_find``, the max-leaf spanning-tree scan that
  the library's tree read off connected domination replaced: every
  (n-1)-edge subset, checked by an array union-find that stops at the first
  cycle, up to its own limit of ``MAX_TREE_SUBSETS`` subsets;
- the earlier canonical searches and enumerators: ``canonical_by_columns``
  builds every unplaced vertex's column bit by bit,
  ``canonical_with_automorphisms`` is the library's search before the
  canonical graph was decoded from its code (it relabels the graph by the
  canonical order, and it keeps each move once before converting the moves
  into permutations), ``reps_by_invariant_filter``
  extends a parent by every neighborhood that passes the invariant filter
  (with the column search), ``reps_by_full_extension`` canonicalizes
  every one-vertex extension of every parent, and ``children_by_orbit_walk``
  lists the children the enumerator canonicalized when it walked every
  orbit of a parent's known automorphisms and extended its least mask;
- ``survey_by_two_profiles``, the survey loop before it routed each graph
  by tau and gamma_c: two profiles per co-connected class, from
  ``mvx_profile_by_mask_scan``;
- ``normalize_by_fresh_colors`` and ``simplify_by_pairs``, the two edge
  recolorings before simplification became normalization of merged
  classes: each gives every edge it frees a fresh color id, and
  simplification runs one Kruskal pass per overlapping pair of trees;
- ``coverage_targets``, ``all_covered`` and ``verify_by_cover_scan``, the
  verifier before it asked the one-tree predicate about every k-set: the
  k-sets less the adjacent pairs at k = 2, each looked up in the covers.
"""

from __future__ import annotations

import itertools
from math import comb

from monoindex import survey
from monoindex.coloring import (
    EdgeColoring,
    _down_sets,
    _edge_covers,
    _renumber,
    _target_bits,
    _vertex_covers,
    verify_mx_coloring,
)
from monoindex.graphs import (
    ENUMERATION_MAX_VERTICES,
    GRAPH6_HEADER,
    BudgetError,
    Graph,
    Graph6Error,
    _classes,
    closed_neighborhood,
    complement,
    connected_components,
    diameter,
    edge_forest,
    is_connected,
    iter_bits,
    mask_from,
    to_graph6,
)
from monoindex.mvx import SpanningTreeResult
from monoindex.partitions import set_partitions_with_blocks

MAX_TREE_SUBSETS = 10_000_000  # the edge subsets max_leaf_by_array_union_find scans at most
MAX_SUBTREES = 500_000  # K8 has 441,176 subtrees of two or more edges, K9 more


def coverage_targets(g: Graph, k: int):
    """The k-sets a valid coloring must place in one cover, lazily.

    At k = 2 adjacent pairs are left out: the one-edge tree holds them with
    no internal vertex, and in an edge coloring the edge's own color does.
    """
    for combo in itertools.combinations(range(g.n), k):
        s = mask_from(combo)
        if k == 2 and g.adj[(s & -s).bit_length() - 1] & s:
            continue
        yield s


def all_covered(subsets, masks) -> bool:
    """Does every subset lie inside at least one of the masks?"""
    for s in subsets:
        if not any(mask & s == s for mask in masks):
            return False
    return True


def verify_by_cover_scan(coloring, k: int) -> bool:
    """``verify_mx_coloring`` / ``verify_mvx_coloring`` without their
    argument checks: every target k-set inside one of the coloring's covers."""
    return all_covered(coverage_targets(coloring.graph, k), coloring._cover_masks)


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


def parse_graph6_by_bit_list(text: str) -> Graph:
    """``parse_graph6`` as it first decoded: every data byte unpacked into a
    list of bits, the padding checked with ``any`` and the pairs read by
    index. Same checks, messages and byte offsets as the library."""
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise Graph6Error("byte 0: empty graph6 input")
    size = ord(s[0])
    if size == 126:
        raise Graph6Error("byte 0: multi-byte size form (n > 62) is unsupported")
    if not 63 <= size <= 125:
        raise Graph6Error(f"byte 0: size byte {size} outside printable graph6 range")
    n = size - 63
    if n == 0:
        raise Graph6Error("byte 0: zero-vertex graphs are unsupported")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(s) - 1 < need:
        raise Graph6Error(f"byte {len(s)}: truncated input, expected {need} data bytes")
    if len(s) - 1 > need:
        raise Graph6Error(f"byte {1 + need}: trailing garbage after {need} data bytes")
    bits = []
    for off, ch in enumerate(s[1:], start=1):
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise Graph6Error(f"byte {off}: data byte {ord(ch)} outside printable range")
        bits.extend((val >> shift & 1) for shift in range(5, -1, -1))
    used = n * (n - 1) // 2
    if any(bits[used:]):
        raise Graph6Error(f"byte {need}: nonzero padding bits")
    rows = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos += 1
    return Graph(n, tuple(rows))


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
    subsets = tuple(coverage_targets(g, k))
    for t in range(min(n, n - diameter(g) + 2), 0, -1):
        for colors in set_partitions_with_blocks(n, t):
            if all_covered(subsets, _vertex_covers(g, colors)):
                return t, colors
    raise RuntimeError("unreachable: one color is always valid on a connected graph")


def diameter_by_closure(g) -> int:
    """The largest eccentricity, each from a walk that replaces the reached
    set by its closed neighborhood until it holds every vertex. Callers
    check connectivity first."""
    best = 0
    for s in range(g.n):
        seen, dist = 1 << s, 0
        while seen != g.full_mask:
            seen, dist = closed_neighborhood(g, seen), dist + 1
        best = max(best, dist)
    return best


def least_excess_eager(
    n: int, cover, holding, target_sets: list[int], low: int, least: int, ceiling
) -> list[tuple[int, tuple[int, ...]]]:
    """``coloring._least_excess`` with eager block lists: a target's first
    visit asks ``holding`` for every excess from 0 up to the current e, and
    each rise of e below the ceiling asks it once more for every target seen
    so far. The search, its branching order, its ceiling and the blocks it
    returns are those of the library's kernel; only the calls to ``holding``
    differ."""
    down = _down_sets(n)
    held: dict[int, list[list[int]]] = {}  # target -> per excess up to e, its blocks

    def family(union: int, used: int, budget: int):
        rest = targets & ~union
        if not rest:
            return ()
        s = (rest & -rest).bit_length() - 1
        if s not in held:
            held[s] = [holding(s, x) for x in range(e + 1)]
        for excess, level in enumerate(held[s][: budget + 1]):
            for block in level:
                if block & used:
                    continue
                below = union | down[cover[block]]
                if budget - excess < least and targets & ~below:
                    continue
                found = family(below, used | block, budget - excess)
                if found is not None:
                    return (block,) + found
        return None

    out = []
    e, (top, fallback) = low, ceiling
    for targets in target_sets:
        chosen = None
        while e < top and (chosen := family(0, 0, e)) is None:
            e += 1
            if e < top:
                for s, hold in held.items():
                    hold.append(holding(s, e))
        out.append((e, fallback if chosen is None else chosen))
    return out


def block_colors(size: int, blocks) -> tuple[int, ...]:
    """Each block one color, every other element its own, renumbered."""
    labels = [next((b for b in blocks if b >> i & 1), 1 << i) for i in range(size)]
    return _renumber(labels)


def _subtrees(g: Graph) -> dict[int, int]:
    """{edge mask: vertex mask} of every subtree with at least two edges, up
    to ``MAX_SUBTREES`` of them.

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


def mx_by_eager_kernel(g, k: int) -> tuple[int, tuple[int, ...]]:
    """(mx_k, witness colors) from ``least_excess_eager`` over every subtree
    of two or more edges (``_subtrees``), the blocks the library searched
    before it took one tree per connected vertex set. Callers check the
    arguments first."""
    trees = _subtrees(g)
    levels: list[list[int]] = [[] for _ in range(g.m)]
    for tree in trees:
        levels[tree.bit_count() - 1].append(tree)
    every_edge = (1 << g.m) - 1  # one color on every edge, of excess m - 1, holds every k-set
    [(e, blocks)] = least_excess_eager(
        g.n, trees, lambda s, x: [t for t in levels[x] if trees[t] & s == s],
        [_target_bits(g, k)], 0, max(k, 3) - 2, (g.m - 1, (every_edge,)),
    )
    return g.m - e, block_colors(g.m, blocks)


def mvx_profile_by_mask_scan(g) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """``mvx_profile`` as the library first built its tables: one pass over
    every mask for the closed neighborhoods and for connectivity (a reach
    grown inside the mask), the blocks grouped by size from a dict in mask
    order, a closure-walk diameter and each k's targets from ``coverage_targets``,
    searched by ``least_excess_eager``. Callers check connectivity and the
    budget first."""
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
    levels: list[list[int]] = [[] for _ in range(n)]
    for b in blocks:
        levels[b.bit_count() - 1].append(b)
    target_sets = [sum(1 << s for s in coverage_targets(g, k)) & ~base for k in range(2, n + 1)]
    found = least_excess_eager(
        n,
        blocks,
        lambda s, x: [b for b in levels[x] if blocks[b] & s == s],
        target_sets,
        max(diameter_by_closure(g) - 2, 0),
        1,
        (n - 1, (g.full_mask,)),  # one color on every vertex, of excess n - 1, holds every k-set
    )
    return tuple((n - e, block_colors(n, chosen)) for e, chosen in found)


def mx_by_rgs_search(g, k: int):
    """The largest t, with its coloring, such that some partition of the
    edges into t classes is valid at k.

    Scans t downward from m: merging two classes of a valid coloring keeps
    it valid, so feasibility is downward closed in t and the first feasible
    t is the maximum. Partitions come as restricted growth strings, one per
    relabeling class. Callers check the arguments and their budget first.
    """
    subsets = tuple(coverage_targets(g, k))
    for t in range(g.m, 0, -1):
        for colors in set_partitions_with_blocks(g.m, t):
            if all_covered(subsets, _edge_covers(g, colors)):
                return t, colors
    raise RuntimeError("unreachable: one color is always valid on a connected graph")


def canonical_with_automorphisms(g: Graph) -> tuple[int, Graph, frozenset[tuple[int, ...]]]:
    """(code, canonical graph, automorphisms of the canonical graph that the
    search met on the way, each a tuple p sending vertex i to p[i]).

    The library's canonical search before it decoded the canonical graph
    from its code: it relabels the graph by the canonical order, and it
    turns each distinct move into a permutation once."""
    n = g.n
    if n == 1:
        return 0, g, frozenset()
    adj = g.adj
    full = (1 << n) - 1
    # Orderings are grown one position at a time; the frontier holds every
    # ordering prefix that still achieves the minimal bitstring.
    frontier = [((v,), 1 << v) for v in range(n)]
    code = 0
    # each move pairs up p[i] and q[i] for two orders p, q over one vertex set
    # with the same code and the same edges to the rest; p[i] -> q[i], fixing
    # every other vertex, is an automorphism of g
    moves = set()
    for pos in range(1, n):
        best = 1 << pos
        ext = []
        for order, placed in frontier:
            # the least column over the unplaced vertices, bit by bit, and
            # every vertex that has it
            cand = full & ~placed
            col = 0
            for u in order:
                zero = cand & ~adj[u]
                if zero:
                    cand = zero
                    col <<= 1
                else:
                    col = col << 1 | 1
            if col > best:
                continue
            if col < best:
                best = col
                ext = []
            ext.extend((order + (v,), placed | 1 << v) for v in iter_bits(cand))
        if len(ext) > n:
            # Prefixes of highly symmetric graphs tie in droves; two prefixes
            # over the same vertex set with identical edges to the unplaced
            # vertices have identical futures, so keep one of each.
            unique = {}
            for order, placed in ext:
                rest = full & ~placed
                key = (placed, tuple(adj[u] & rest for u in order))
                kept = unique.setdefault(key, (order, placed))[0]
                if kept is not order:
                    moves.add(frozenset(zip(order, kept)))
            ext = list(unique.values())
        frontier = ext
        code = code << pos | best
    order = frontier[0][0]
    at = {u: i for i, u in enumerate(order)}
    moves.update(frozenset(zip(other, order)) for other, _ in frontier[1:])
    auts = set()
    for move in moves:
        perm = list(range(n))
        for a, b in move:
            perm[at[a]] = at[b]
        auts.add(tuple(perm))
    rows = tuple(mask_from(at[w] for w in iter_bits(adj[u])) for u in order)
    return code, Graph(n, rows), frozenset(auts)


def reps_by_full_extension(n: int, connected: bool) -> tuple[Graph, ...]:
    """Canonical representatives on n vertices in ascending canonical code.

    Each (n-1)-vertex representative is extended by every neighborhood of a
    new last vertex. Connected graphs need only connected parents and a
    nonempty neighborhood: every connected graph has a non-cut vertex.
    """
    if not 1 <= n <= ENUMERATION_MAX_VERTICES:
        raise BudgetError(
            f"enumeration is supported for 1 <= n <= {ENUMERATION_MAX_VERTICES}, got n={n}"
        )
    if n == 1:
        return (Graph(1, (0,)),)
    found: dict[int, Graph] = {}
    for parent in reps_by_full_extension(n - 1, connected):
        for mask in range(int(connected), 1 << (n - 1)):
            adj = tuple(
                parent.adj[i] | ((mask >> i & 1) << (n - 1)) for i in range(n - 1)
            ) + (mask,)
            code, canon = canonical_with_automorphisms(Graph(n, adj))[:2]
            if code not in found:
                found[code] = canon
    return tuple(g for _, g in sorted(found.items()))


def canonical_by_columns(g: Graph) -> tuple[int, Graph]:
    """(lexicographically least adjacency code, canonical graph) by growing
    every ordering prefix that achieves the least code so far, one column
    per unplaced vertex; tied prefixes over one vertex set whose unplaced
    vertices have the same columns are merged."""
    n = g.n
    if n == 1:
        return 0, g
    adj = g.adj
    frontier = [((v,), 1 << v) for v in range(n)]
    code = 0
    full = (1 << n) - 1
    for pos in range(1, n):
        best = -1
        ext = []
        for order, placed in frontier:
            for v in range(n):
                if placed >> v & 1:
                    continue
                row = adj[v]
                col = 0
                for u in order:
                    col = col << 1 | (row >> u & 1)
                if best < 0 or col < best:
                    best = col
                    ext = [(order + (v,), placed | 1 << v)]
                elif col == best:
                    ext.append((order + (v,), placed | 1 << v))
        if len(ext) > n:
            unique = {}
            for order, placed in ext:
                sig = []
                for v in iter_bits(full & ~placed):
                    row = adj[v]
                    col = 0
                    for u in order:
                        col = col << 1 | (row >> u & 1)
                    sig.append(col)
                unique.setdefault((placed, tuple(sig)), (order, placed))
            ext = list(unique.values())
        frontier = ext
        code = code << pos | best
    order = frontier[0][0]
    rows = [0] * n
    for i, u in enumerate(order):
        for j, v in enumerate(order):
            if adj[u] >> v & 1:
                rows[i] |= 1 << j
    return code, Graph(n, tuple(rows))


def reps_by_invariant_filter(n: int) -> tuple[Graph, ...]:
    """Connected representatives on n vertices in ascending canonical code.

    Each parent is extended by every nonempty neighborhood of a new last
    vertex v, and a child is canonicalized (by ``canonical_by_columns``)
    only if no non-cut vertex u has f(u) > f(v), with f(u) = (deg u, sum of
    the degrees of u's neighbors).
    """
    if not 1 <= n <= ENUMERATION_MAX_VERTICES:
        raise BudgetError(
            f"enumeration is supported for 1 <= n <= {ENUMERATION_MAX_VERTICES}, got n={n}"
        )
    if n == 1:
        return (Graph(1, (0,)),)
    v = n - 1
    found: dict[int, Graph] = {}
    for parent in reps_by_invariant_filter(v):
        # u is a non-cut vertex of parent + v iff v meets every part of parent - u
        parts = [connected_components(parent, parent.full_mask & ~(1 << u)) for u in range(v)]
        for mask in range(1, 1 << v):
            adj = tuple(parent.adj[i] | (mask >> i & 1) << v for i in range(v)) + (mask,)
            deg = [row.bit_count() for row in adj]
            dv, sv = deg[v], sum(deg[w] for w in iter_bits(mask))
            if any(
                (deg[u] > dv or deg[u] == dv and sum(deg[w] for w in iter_bits(adj[u])) > sv)
                and all(part & mask for part in parts[u])
                for u in range(v)
            ):
                continue
            code, canon = canonical_by_columns(Graph(n, adj))
            if code not in found:
                found[code] = canon
    return tuple(g for _, g in sorted(found.items()))


def children_by_orbit_walk(n: int) -> list[tuple[int, ...]]:
    """The rows of the n-vertex children the orbit-walk enumerator
    canonicalized, in order.

    Each parent of ``_classes(n - 1)`` is extended by the least
    neighborhood in each orbit of its known automorphisms, found by walking
    the orbit through the automorphisms' image tables, and the child is
    listed if it passes the invariant filter of ``reps_by_invariant_filter``.
    """
    v = n - 1
    children = []
    for parent, perms in _classes(v):
        parts = [connected_components(parent, parent.full_mask & ~(1 << u)) for u in range(v)]
        images = []
        for perm in perms:
            image = [0] * (1 << v)
            for mask in range(1, 1 << v):
                low = mask & -mask
                image[mask] = image[mask ^ low] | 1 << perm[low.bit_length() - 1]
            images.append(image)
        seen = bytearray(1 << v)
        for mask in range(1, 1 << v):
            if seen[mask]:
                continue
            orbit = [mask]
            seen[mask] = 1
            for other in orbit:
                for image in images:
                    if not seen[image[other]]:
                        seen[image[other]] = 1
                        orbit.append(image[other])
            adj = tuple(parent.adj[i] | (mask >> i & 1) << v for i in range(v)) + (mask,)
            deg = [row.bit_count() for row in adj]
            dv, sv = deg[v], sum(deg[w] for w in iter_bits(mask))
            if not any(
                (deg[u] > dv or deg[u] == dv and sum(deg[w] for w in iter_bits(adj[u])) > sv)
                and all(part & mask for part in parts[u])
                for u in range(v)
            ):
                children.append(adj)
    return children


def dominating_sets_by_combinations(g: Graph):
    """Every dominating set of g as a mask, by ascending size, then in
    combinations order within a size."""
    full = g.full_mask
    closed = [g.adj[v] | 1 << v for v in range(g.n)]
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            cover = 0
            for v in combo:
                cover |= closed[v]
            if cover == full:
                yield mask_from(combo)


def first_connected_dominating_set(g: Graph) -> int:
    """The first connected set that ``dominating_sets_by_combinations`` yields."""
    return next(d for d in dominating_sets_by_combinations(g) if connected_components(g, d) == [d])


def max_leaf_by_array_union_find(g: Graph) -> SpanningTreeResult:
    """Exact maximum-leaf spanning tree by scanning all (n-1)-edge subsets.

    Deliberately oblivious to the domination duality so it can serve as its
    independent check. Refuses graphs where C(m, n-1) exceeds MAX_TREE_SUBSETS.
    """
    if not is_connected(g) or g.n < 2:
        raise ValueError("spanning trees need a connected graph on >= 2 vertices")
    n, m = g.n, g.m
    if comb(m, n - 1) > MAX_TREE_SUBSETS:
        raise BudgetError(
            f"C({m},{n - 1}) edge subsets exceed the budget of {MAX_TREE_SUBSETS}"
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


def survey_by_two_profiles(n: int) -> list[survey.SurveyRecord]:
    """The records of ``survey_bounds(n)`` from the index profile of every
    co-connected graph and of its complement, each searched at every k by
    ``mvx_profile_by_mask_scan``. The graphs come from
    ``survey.enumerate_coconnected``, looked up at call time, so a test
    that replaces it feeds this loop and the library the same graphs."""
    records = []
    for g in survey.enumerate_coconnected(n):
        gbar = complement(g)
        g6, g6bar = to_graph6(g), to_graph6(gbar)
        vals_g, vals_gbar = mvx_profile_by_mask_scan(g), mvx_profile_by_mask_scan(gbar)
        for k in range(3, n + 1):
            a, b = vals_g[k - 2][0], vals_gbar[k - 2][0]
            lower = survey.expected_lower_bound(n, k) if n >= 5 else None
            upper = 2 * n - 2 if survey.upper_bound_applies(n, k) else None
            records.append(
                survey.SurveyRecord(
                    n=n, k=k, g6=g6, g6_complement=g6bar,
                    mvx_g=a, mvx_gbar=b, sum=a + b,
                    lower_bound=lower, upper_bound=upper,
                    verdict=survey.SurveyRecord.grade(a + b, lower, upper),
                )
            )
    records.sort(key=lambda r: (r.n, r.g6, r.k))
    return records


def normalize_by_fresh_colors(ec: EdgeColoring, k: int) -> EdgeColoring:
    """Every color class made a tree: within each class, by ascending color,
    a Kruskal pass in edge order moves each edge that closes a cycle to a
    fresh color, and every forest component but the one holding the
    lowest-indexed edge to a fresh color too; then the colors are renumbered."""
    g = ec.graph
    if not verify_mx_coloring(ec, k):
        raise ValueError(f"input coloring is not valid at k={k}")
    colors = list(ec.colors)
    next_color = max(colors) + 1
    by_color: dict[int, list[int]] = {}
    for idx, c in enumerate(ec.colors):
        by_color.setdefault(c, []).append(idx)
    for c in sorted(by_color):
        idxs = by_color[c]
        kept, comps = edge_forest(g.edges[idx] for idx in idxs)
        groups: dict[int, list[int]] = {}
        for idx, tree_edge in zip(idxs, kept):
            if not tree_edge:
                colors[idx] = next_color
                next_color += 1
                continue
            u = g.edges[idx][0]
            groups.setdefault(next(comp for comp in comps if comp >> u & 1), []).append(idx)
        for _, group in sorted((min(grp), grp) for grp in groups.values())[1:]:
            for idx in group:
                colors[idx] = next_color
            next_color += 1
    out = EdgeColoring(g, tuple(colors)).renumbered()
    if not verify_mx_coloring(out, k):
        raise RuntimeError("normalization broke the coloring; this is a bug")
    return out


def edges_by_color(ec: EdgeColoring) -> dict[int, list[tuple[int, int]]]:
    """{color: its edges in edge order}, by ascending color."""
    groups: dict[int, list[tuple[int, int]]] = {c: [] for c in sorted(set(ec.colors))}
    for e, c in zip(ec.graph.edges, ec.colors):
        groups[c].append(e)
    return groups


def all_classes_trees(ec: EdgeColoring) -> bool:
    """Is every color class a tree: one component, and no edge closing a cycle?"""
    for edges in edges_by_color(ec).values():
        kept, comps = edge_forest(edges)
        if len(comps) > 1 or not all(kept):
            return False
    return True


def simplify_by_pairs(ec: EdgeColoring, k: int) -> EdgeColoring:
    """Tree classes merged pair by pair: while two nontrivial classes share
    two or more vertices, a Kruskal pass in edge order over their union keeps
    a spanning tree in the first class's color and gives every other edge a
    fresh color; then the colors are renumbered. Classes are visited by
    ascending color."""
    g = ec.graph
    if not verify_mx_coloring(ec, k):
        raise ValueError(f"input coloring is not valid at k={k}")
    if not all_classes_trees(ec):
        raise ValueError("simplification expects tree classes; run normalize_to_forest first")
    index = {e: i for i, e in enumerate(g.edges)}
    colors = list(ec.colors)
    next_color = max(colors) + 1
    while True:
        classes = [
            (c, edges, mask_from(v for e in edges for v in e))
            for c, edges in edges_by_color(EdgeColoring(g, tuple(colors))).items()
            if len(edges) >= 2
        ]
        pair = next(
            ((a, b) for i, a in enumerate(classes) for b in classes[i + 1:]
             if (a[2] & b[2]).bit_count() >= 2),
            None,
        )
        if pair is None:
            break
        union_idxs = sorted(index[e] for _, edges, _ in pair for e in edges)
        kept, _ = edge_forest(g.edges[idx] for idx in union_idxs)
        for idx, tree_edge in zip(union_idxs, kept):
            if tree_edge:
                colors[idx] = pair[0][0]
            else:
                colors[idx] = next_color
                next_color += 1
    out = EdgeColoring(g, tuple(colors)).renumbered()
    if not verify_mx_coloring(out, k):
        raise RuntimeError("simplification broke the coloring; this is a bug")
    return out
