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
# cut_vertices and diameter walk once from each vertex, about n^3 bit operations
MAX_WALK_VERTICES = 1_000
# vertex sets one _least_set search may visit
MAX_SEARCH_NODES = 10_000_000


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
    return connected_components(g) == [g.full_mask]


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
    if g.n > MAX_WALK_VERTICES:
        raise BudgetError(f"walks from {g.n} vertices exceed the budget of {MAX_WALK_VERTICES}")
    if not is_connected(g):
        raise ValueError("cut vertices are only computed for connected graphs")
    full = g.full_mask
    return mask_from(
        v for v in range(g.n) if len(connected_components(g, full & ~(1 << v))) > 1
    )


def diameter(g: Graph) -> int:
    """Largest shortest-path distance over all vertex pairs."""
    if g.n > MAX_WALK_VERTICES:
        raise BudgetError(f"walks from {g.n} vertices exceed the budget of {MAX_WALK_VERTICES}")
    if not is_connected(g):
        raise ValueError("diameter is only defined for connected graphs")
    best = 0
    for s in range(g.n):
        seen = frontier = 1 << s
        dist = 0
        while frontier := closed_neighborhood(g, frontier) & ~seen:
            seen, dist = seen | frontier, dist + 1
        best = max(best, dist)
    return best


def _least_set(rows, need, limit: int):
    """Yield the vertex sets d of at most ``limit`` vertices with need(d, r,
    barred, room) == 0 (r: the OR of rows[v] over v in d; room: limit - |d|),
    each less than or before (in combinations order) the one before, so the
    last is the first least one. Any other need is a mask every solution
    holding d and no barred vertex meets, and one inside barred ends the
    branch; a list ``need`` gives the mask at the lowest bit r lacks. One
    depth-first pass grows d by each vertex of that mask in turn, barred from
    later branches, so it reaches each least solution once (the bounded
    search tree for hitting set). Refuses past MAX_SEARCH_NODES sets."""
    if isinstance(need, list):
        table = [*need, 0]
        need = lambda d, r, barred, room: table[(~r & r + 1).bit_length() - 1]
    best, nodes, stack = None, 0, [(0, 0, 0)]  # (d, r, barred vertices)
    while stack:
        d, r, barred = stack.pop()
        size = d.bit_count()
        if size > limit:
            continue
        nodes += 1
        if nodes > MAX_SEARCH_NODES:
            raise BudgetError(f"subset search exceeds the budget of {MAX_SEARCH_NODES} sets")
        branch = need(d, r, barred, limit - size)
        if not branch:
            # on a tie, d comes first iff the lowest vertex of d ^ best is in d
            if best is None or size < limit or (d ^ best) & -(d ^ best) & d:
                best, limit = d, size
                yield d
        elif size < limit:
            branch &= ~barred
            while branch:  # pushed high to low, so the lowest vertex grows first
                v = branch.bit_length() - 1
                branch ^= 1 << v
                stack.append((d | 1 << v, r | rows[v], barred | branch))


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
    data = 0
    for off, ch in enumerate(s[1:], start=1):
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise Graph6Error(f"byte {off}: data byte {ord(ch)} outside printable range")
        data = data << 6 | val
    padding = 6 * need - n * (n - 1) // 2
    if data & ((1 << padding) - 1):
        raise Graph6Error(f"byte {need}: nonzero padding bits")
    return _from_columns(n, data >> padding)


def _from_columns(n: int, bits: int) -> Graph:
    """The graph whose n(n-1)/2 adjacency bits, in graph6 column order with
    the first bit most significant, are ``bits``."""
    rows = [0] * n
    pos = n * (n - 1) // 2  # pair p is bit pos - 1 - p
    for j in range(1, n):
        for i in range(j):
            pos -= 1
            if bits >> pos & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(n, tuple(rows))


# ---------------------------------------------------------------------------
# edge-list text format

def to_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    """Parse "n m" followed by m lines "u v" (0-indexed), each pair once."""
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
    if m < 0:
        raise ValueError(f"edge list announces {m} edges; the count cannot be negative")
    if len(numbers) % 2:
        raise ValueError(f"edge list ends in vertex id {numbers[-1]}, which has no partner")
    pairs = list(zip(numbers[2::2], numbers[3::2]))
    if len(pairs) != m:
        raise ValueError(f"edge list announces {m} edges but carries {len(pairs)}")
    g = from_edges(n, pairs)
    if g.m < m:  # from_edges collapses a repeated pair
        seen = set()
        for u, v in pairs:
            if (v, u) in seen or (u, v) in seen:
                raise ValueError(f"edge list repeats the edge {u}-{v}")
            seen.add((u, v))
    return g


def parse_graph(text: str) -> Graph:
    """Auto-detect the input format: a leading digit means edge list, else graph6."""
    stripped = text.strip()
    if stripped and stripped[0].isdigit():
        return parse_edge_list(text)
    return parse_graph6(text)


# ---------------------------------------------------------------------------
# canonical form and exhaustive enumeration

def canonical_code(g: Graph) -> int:
    """Lexicographically minimal adjacency bitstring over all n! orderings.

    Bits are read in graph6 column order with earlier bits more significant,
    so comparing codes of equal-order graphs matches comparing their
    canonical graph6 strings.
    """
    return _canonical(g.adj)[0]


def canonical_form(g: Graph) -> Graph:
    """The canonically relabeled copy of g (the enumeration representative)."""
    return _from_columns(g.n, canonical_code(g))


def _canonical(adj: tuple[int, ...]) -> tuple[int, set[tuple[int, ...]]]:
    """(code, automorphisms of the canonical graph) for the graph with these
    rows; each automorphism is a tuple p sending vertex i to p[i].

    The search meets them as moves: pairs of orders p, q over one vertex set
    with the same code and the same edges to the rest, so p[i] -> q[i],
    fixing every other vertex, is an automorphism of the graph. The
    canonical graph puts vertex order[i] at i, and the tail relabels each
    move onto it.
    """
    n = len(adj)
    full = (1 << n) - 1
    # Orderings are grown one position at a time; the frontier holds every
    # ordering prefix that still achieves the minimal bitstring.
    frontier = [((v,), 1 << v) for v in range(n)]
    code = 0
    moves = []
    for pos in range(1, n):
        best = 1 << pos
        ext = []
        for order, placed in frontier:
            # the least column over the unplaced vertices, bit by bit, and
            # every vertex that has it
            cand = full ^ placed
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
            while cand:
                low = cand & -cand
                ext.append((order + (low.bit_length() - 1,), placed | low))
                cand ^= low
        if len(ext) > n:
            # Prefixes of highly symmetric graphs tie in droves; two prefixes
            # over the same vertex set with identical edges to the unplaced
            # vertices have identical futures, so keep one of each.
            unique = {}
            for prefix in ext:
                order, placed = prefix
                rest = full ^ placed
                kept = unique.setdefault((placed, *[adj[u] & rest for u in order]), prefix)
                if kept is not prefix:
                    moves.append((order, kept[0]))
            ext = list(unique.values())
        frontier = ext
        code = code << pos | best
    order = frontier[0][0]
    moves.extend((other, order) for other, _ in frontier[1:])
    at = {u: i for i, u in enumerate(order)}
    auts = set()
    for p, q in moves:
        perm = list(range(n))
        for a, b in zip(p, q):
            perm[at[a]] = at[b]
        auts.add(tuple(perm))
    return code, auts


@lru_cache(maxsize=None)
def _classes(n: int) -> tuple[tuple[Graph, frozenset], ...]:
    """Each connected representative with the automorphisms its searches found.

    Each (n-1)-vertex representative P is extended by every nonempty mask
    that no known automorphism of P maps lower, as the neighborhood of a new
    last vertex v = n - 1; the child is canonicalized unless a non-cut vertex
    u has f(u) > f(v), f(u) being (deg u, the degree sum of u's neighbors).

    No class is lost: let w maximize f over the non-cut vertices of a class
    G (a connected graph on two or more vertices has one). G - w is
    connected, so some parent P is its canonical copy, and that isomorphism
    with w -> v makes a child P + v isomorphic to G, in which v maximizes f
    because f and being a cut vertex are invariant. Automorphisms of P
    carry that mask over its orbit, each image giving an isomorphic child
    in which v still maximizes f, and the orbit's least mask has no image
    below it, so it is extended. Other masks that pass, and ties, give
    children isomorphic to ones already made: the dict keyed by canonical
    code drops them at the cost of a canonical search, so the output is
    what canonicalizing every child would give.
    """
    if not 1 <= n <= ENUMERATION_MAX_VERTICES:
        raise BudgetError(
            f"enumeration is supported for 1 <= n <= {ENUMERATION_MAX_VERTICES}, got n={n}"
        )
    if n == 1:
        return ((Graph(1, (0,)), frozenset()),)
    v = n - 1
    found: dict[int, tuple[Graph, set]] = {}
    for parent, perms in _classes(v):
        # u is a non-cut vertex of parent + v iff v meets every part of parent - u
        parts = [connected_components(parent, parent.full_mask & ~(1 << u)) for u in range(v)]
        images = []  # images[k][mask]: mask moved by the k-th automorphism
        for perm in perms:
            image = [0] * (1 << v)
            for mask in range(1, 1 << v):
                low = mask & -mask
                image[mask] = image[mask ^ low] | 1 << perm[low.bit_length() - 1]
            images.append(image)
        for mask in range(1, 1 << v):
            if any(image[mask] < mask for image in images):
                continue
            adj = tuple(parent.adj[i] | (mask >> i & 1) << v for i in range(v)) + (mask,)
            deg = [row.bit_count() for row in adj]
            dv, sv = deg[v], sum(deg[w] for w in iter_bits(mask))
            if any(
                # f(u) > f(v); u's neighbor sum is needed only on a degree tie
                (deg[u] > dv or deg[u] == dv and sum(deg[w] for w in iter_bits(adj[u])) > sv)
                and all(part & mask for part in parts[u])
                for u in range(v)
            ):
                continue
            code, auts = _canonical(adj)
            if code not in found:
                found[code] = (_from_columns(n, code), set())
            found[code][1].update(auts)
    return tuple((g, frozenset(a)) for _, (g, a) in sorted(found.items()))


def enumerate_connected_graphs(n: int):
    """One canonical representative per isomorphism class of connected graphs.

    Representatives are canonically labeled and stream in ascending canonical
    code, so the order is reproducible byte for byte.
    """
    yield from (g for g, _ in _classes(n))


def enumerate_graphs(n: int):
    """Every class: the connected ones and, as a graph or its complement is
    connected, the canonical forms of their disconnected complements, in
    graph6 order (ascending canonical code for a fixed n)."""
    connected = [g for g, _ in _classes(n)]
    others = [canonical_form(h) for h in map(complement, connected) if not is_connected(h)]
    yield from sorted(connected + others, key=to_graph6)
