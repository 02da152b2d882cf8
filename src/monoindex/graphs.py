"""Simple undirected graphs on vertex ids 0..n-1, stored as row bitsets.

One machine word per adjacency row keeps neighborhood arithmetic (BFS
fronts, domination checks, subset containment) at word speed for n <= 62,
and every hot loop in the package works directly on these masks. Vertex
subsets are plain ints throughout, with bit i standing for vertex i.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

GRAPH6_MAX_VERTICES = 62
GRAPH6_HEADER = ">>graph6<<"
ENUMERATION_MAX_VERTICES = 8
# largest n an edge-list header may announce; rows are n-bit ints, so a
# larger n costs memory and time before any edge is read
EDGE_LIST_MAX_VERTICES = 10_000


class Graph6Error(ValueError):
    """Malformed graph6 text; messages name the offending byte offset."""


class BudgetError(ValueError):
    """An exact search was asked to exceed its documented size budget."""


def iter_bits(mask: int):
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_from(vertices) -> int:
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph; ``adj[i]`` has bit j set iff ij is an edge."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        if len(self.adj) != self.n:
            raise ValueError("adjacency row count does not match vertex count")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"adjacency row {i} mentions vertices >= {self.n}")
            if row >> i & 1:
                raise ValueError(f"loop at vertex {i}")
            rest = row
            while rest:
                j = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if not self.adj[j] >> i & 1:
                    raise ValueError(f"edge {i}-{j} is not symmetric")

    @cached_property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges (u, v) with u < v, sorted lexicographically."""
        return tuple(
            (i, j) for i in range(self.n) for j in iter_bits(self.adj[i] >> (i + 1) << (i + 1))
        )

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()


def from_edges(n: int, edges) -> Graph:
    """Build a graph from an iterable of (u, v) pairs; duplicates collapse."""
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {u}-{v} out of range for n={n}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def path_graph(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return from_edges(n, itertools.combinations(range(n), 2))


def star_graph(n: int) -> Graph:
    """Star on n vertices: vertex 0 joined to all others."""
    return from_edges(n, [(0, i) for i in range(1, n)])


def complete_bipartite_graph(n1: int, n2: int) -> Graph:
    return from_edges(n1 + n2, [(a, n1 + b) for a in range(n1) for b in range(n2)])


def complement(g: Graph) -> Graph:
    full = g.full_mask
    return Graph(g.n, tuple((full & ~row) & ~(1 << i) for i, row in enumerate(g.adj)))


def closed_neighborhood(g: Graph, mask: int) -> int:
    """N[mask]: the vertices of mask and every neighbor of one of them."""
    out = mask
    for v in iter_bits(mask):
        out |= g.adj[v]
    return out


def is_connected(g: Graph) -> bool:
    seen = 1
    frontier = 1
    while frontier:
        frontier = closed_neighborhood(g, frontier) & ~seen
        seen |= frontier
    return seen == g.full_mask


def connected_components(g: Graph, within: int | None = None) -> list[int]:
    """Vertex masks of the components of the subgraph induced by ``within``.

    Components come out ordered by their lowest vertex.
    """
    remaining = g.full_mask if within is None else within
    comps = []
    while remaining:
        comp = remaining & -remaining
        frontier = comp
        while frontier:
            frontier = closed_neighborhood(g, frontier) & remaining & ~comp
            comp |= frontier
        comps.append(comp)
        remaining &= ~comp
    return comps


def edge_forest(edges) -> tuple[list[bool], list[int]]:
    """Kruskal over an edge sequence in input order, on vertex masks.

    ``kept[i]`` is False exactly when edge i joins two vertices that the
    edges before it already connect; ``comps`` holds the vertex masks of the
    components the edges span.
    """
    kept = []
    comps: list[int] = []
    for u, v in edges:
        ends = 1 << u | 1 << v
        merged = ends
        rest = []
        for comp in comps:
            if comp & ends:
                merged |= comp
            else:
                rest.append(comp)
        kept.append(merged not in comps)
        rest.append(merged)
        comps = rest
    return kept, comps


def bfs_tree(g: Graph, root: int, within: int | None = None) -> list[tuple[int, int]]:
    """Edges (u, v), u < v, of the BFS tree from root, in discovery order.

    With ``within`` the tree spans only the part of root's component in the
    subgraph induced by that mask. Neighbors are taken lowest id first.
    """
    allowed = g.full_mask if within is None else within
    tree = []
    seen = 1 << root
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for v in iter_bits(g.adj[u] & allowed & ~seen):
                seen |= 1 << v
                tree.append((u, v) if u < v else (v, u))
                nxt.append(v)
        frontier = nxt
    return tree


def cut_vertices(g: Graph) -> int:
    """Mask of the vertices whose removal disconnects g."""
    if not is_connected(g):
        raise ValueError("cut vertices are only computed for connected graphs")
    full = g.full_mask
    return mask_from(
        v for v in range(g.n) if len(connected_components(g, full & ~(1 << v))) > 1
    )


def diameter(g: Graph) -> int:
    """Largest shortest-path distance over all vertex pairs."""
    if not is_connected(g):
        raise ValueError("diameter is only defined for connected graphs")
    best = 0
    for s in range(g.n):
        seen = 1 << s
        frontier = seen
        dist = 0
        while True:
            nxt = closed_neighborhood(g, frontier) & ~seen
            if not nxt:
                break
            dist += 1
            seen |= nxt
            frontier = nxt
        best = max(best, dist)
    return best


def k_subsets(n: int, k: int):
    """All C(n, k) vertex subsets of {0..n-1} as masks, in combinations order."""
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    for combo in itertools.combinations(range(n), k):
        yield mask_from(combo)


# ---------------------------------------------------------------------------
# graph6 encoding (single-byte size form, n <= 62)

def to_graph6(g: Graph) -> str:
    if g.n > GRAPH6_MAX_VERTICES:
        raise Graph6Error(
            f"graph6 single-byte size form handles n <= {GRAPH6_MAX_VERTICES}, got n={g.n}"
        )
    out = [chr(63 + g.n)]
    acc = 0
    nbits = 0
    for j in range(1, g.n):
        for i in range(j):
            acc = acc << 1 | (g.adj[i] >> j & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        out.append(chr(63 + (acc << (6 - nbits))))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    """Decode one line of graph6; an optional ``>>graph6<<`` header is allowed."""
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


# ---------------------------------------------------------------------------
# edge-list text format and DOT export

def to_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    """Parse "n m" followed by m lines "u v" (0-indexed)."""
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("edge list needs a leading 'n m' line")
    try:
        numbers = [int(t) for t in tokens]
    except ValueError as exc:
        raise ValueError(f"edge list contains a non-integer token: {exc}") from None
    n, m = numbers[0], numbers[1]
    if n > EDGE_LIST_MAX_VERTICES:
        raise ValueError(f"edge list announces {n} vertices; the cap is {EDGE_LIST_MAX_VERTICES}")
    if len(numbers) != 2 + 2 * m:
        raise ValueError(f"edge list announces {m} edges but carries {(len(numbers) - 2) / 2}")
    pairs = list(zip(numbers[2::2], numbers[3::2]))
    return from_edges(n, pairs)


def parse_graph(text: str) -> Graph:
    """Auto-detect the input format: a leading digit means edge list, else graph6."""
    stripped = text.strip()
    if stripped and stripped[0].isdigit():
        return parse_edge_list(text)
    return parse_graph6(text)


def to_dot(g: Graph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    isolated = [v for v in range(g.n) if not g.adj[v]]
    lines.extend(f"  {v};" for v in isolated)
    lines.extend(f"  {u} -- {v};" for u, v in g.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# canonical form and exhaustive enumeration

def canonical_code(g: Graph) -> int:
    """Lexicographically minimal adjacency bitstring over all n! orderings.

    Bits are read in graph6 column order with earlier bits more significant,
    so comparing codes of equal-order graphs matches comparing their
    canonical graph6 strings.
    """
    return _canonical(g)[0]


def canonical_form(g: Graph) -> Graph:
    """The canonically relabeled copy of g (the enumeration representative)."""
    return _canonical(g)[1]


def _canonical(g: Graph) -> tuple[int, Graph]:
    n = g.n
    if n == 1:
        return 0, g
    adj = g.adj
    # Orderings are grown one position at a time; the frontier holds every
    # ordering prefix that still achieves the minimal bitstring.
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
            # Prefixes of highly symmetric graphs tie in droves; two prefixes
            # over the same vertex set with identical column patterns for all
            # unplaced vertices have identical futures, so keep one of each.
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


@lru_cache(maxsize=None)
def _reps(n: int, connected: bool) -> tuple[Graph, ...]:
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
    for parent in _reps(n - 1, connected):
        for mask in range(int(connected), 1 << (n - 1)):
            adj = tuple(
                parent.adj[i] | ((mask >> i & 1) << (n - 1)) for i in range(n - 1)
            ) + (mask,)
            code, canon = _canonical(Graph(n, adj))
            if code not in found:
                found[code] = canon
    return tuple(g for _, g in sorted(found.items()))


def enumerate_connected_graphs(n: int):
    """One canonical representative per isomorphism class of connected graphs.

    Representatives are canonically labeled and stream in ascending canonical
    code, so the order is reproducible byte for byte.
    """
    yield from _reps(n, True)


def enumerate_graphs(n: int):
    """Like enumerate_connected_graphs but without the connectivity filter."""
    yield from _reps(n, False)
