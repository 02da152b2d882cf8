"""Graph primitives written from the definitions, independent of monoindex.

The benchmark generates its inputs and checks the program's outputs with
this module only, so a defect in the package cannot hide behind the same
defect in its checker. A graph is a list of adjacency rows: bit j of
``adj[i]`` is set iff ij is an edge. Vertex sets are int masks.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def edges(adj) -> list[tuple[int, int]]:
    return [(i, j) for i in range(len(adj)) for j in range(i + 1, len(adj)) if adj[i] >> j & 1]


def from_edges(n: int, pairs) -> list[int]:
    adj = [0] * n
    for u, v in pairs:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def complement(adj) -> list[int]:
    full = (1 << len(adj)) - 1
    return [full & ~row & ~(1 << i) for i, row in enumerate(adj)]


# ---------------------------------------------------------------------------
# graph6, straight from the format description (n <= 62, columns of the
# upper triangle in order, six bits per printable byte)

def to_graph6(adj) -> str:
    n = len(adj)
    bitlist = [adj[i] >> j & 1 for j in range(1, n) for i in range(j)]
    bitlist += [0] * (-len(bitlist) % 6)
    out = [chr(63 + n)]
    for pos in range(0, len(bitlist), 6):
        val = 0
        for b in bitlist[pos:pos + 6]:
            val = val << 1 | b
        out.append(chr(63 + val))
    return "".join(out)


def from_graph6(text: str) -> list[int]:
    s = text.strip()
    n = ord(s[0]) - 63
    if not 1 <= n <= 62:
        raise ValueError(f"graph6 size byte out of range in {text!r}")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(s) != 1 + need:
        raise ValueError(f"graph6 string {text!r} has the wrong length")
    bitlist = []
    for ch in s[1:]:
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise ValueError(f"graph6 data byte out of range in {text!r}")
        bitlist.extend(val >> shift & 1 for shift in range(5, -1, -1))
    adj = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bitlist[pos]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            pos += 1
    if any(bitlist[pos:]):
        raise ValueError(f"graph6 string {text!r} has nonzero padding")
    return adj


# ---------------------------------------------------------------------------
# connectivity, distance, domination

def reach(adj, within: int, start: int) -> int:
    """Vertices of ``within`` reachable from vertex ``start`` inside ``within``."""
    seen = 1 << start
    frontier = seen
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= adj[v]
        frontier = nxt & within & ~seen
        seen |= frontier
    return seen


def components(adj, within: int) -> list[int]:
    out = []
    while within:
        comp = reach(adj, within, (within & -within).bit_length() - 1)
        out.append(comp)
        within &= ~comp
    return out


def is_connected(adj) -> bool:
    full = (1 << len(adj)) - 1
    return reach(adj, full, 0) == full


def has_cut_vertex(adj) -> bool:
    full = (1 << len(adj)) - 1
    for v in range(len(adj)):
        rest = full & ~(1 << v)
        if rest and reach(adj, rest, (rest & -rest).bit_length() - 1) != rest:
            return True
    return False


def diameter(adj) -> int:
    n = len(adj)
    best = 0
    for s in range(n):
        seen = frontier = 1 << s
        dist = 0
        while True:
            nxt = 0
            for v in bits(frontier):
                nxt |= adj[v]
            frontier = nxt & ~seen
            if not frontier:
                break
            seen |= frontier
            dist += 1
        best = max(best, dist)
    return best


def dominates(adj, mask: int) -> bool:
    cover = mask
    for v in bits(mask):
        cover |= adj[v]
    return cover == (1 << len(adj)) - 1


def domination_number(adj, connected: bool = False) -> int:
    """Smallest size of a (connected) dominating set, by ascending subset search."""
    n = len(adj)
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            mask = sum(1 << v for v in combo)
            if dominates(adj, mask) and (not connected or reach(adj, mask, combo[0]) == mask):
                return size
    raise ValueError("a graph with no vertices has no dominating set")


# ---------------------------------------------------------------------------
# witness checks, from the definitions in monoindex.coloring's docstring

@lru_cache(maxsize=None)
def k_sets(n: int, k: int) -> tuple[int, ...]:
    return tuple(sum(1 << v for v in c) for c in itertools.combinations(range(n), k))


def vertex_coloring_valid(adj, colors, k: int) -> bool:
    """Every k-set lies in N[A] for a connected monochromatic component A,
    or is an adjacent pair when k = 2."""
    n = len(adj)
    classes: dict[int, int] = {}
    for v, c in enumerate(colors):
        classes[c] = classes.get(c, 0) | 1 << v
    covers = []
    for mask in classes.values():
        for comp in components(adj, mask):
            cover = comp
            for v in bits(comp):
                cover |= adj[v]
            covers.append(cover)
    for s in k_sets(n, k):
        if k == 2 and adj[(s & -s).bit_length() - 1] & s:
            continue
        if not any(cover & s == s for cover in covers):
            return False
    return True


def edge_coloring_valid(adj, coloring: dict[tuple[int, int], int], k: int) -> bool:
    """Every k-set lies inside one component of a single color's edges."""
    n = len(adj)
    by_color: dict[int, list[tuple[int, int]]] = {}
    for e, c in coloring.items():
        by_color.setdefault(c, []).append(e)
    covers = []
    for pairs in by_color.values():
        sub = from_edges(n, pairs)
        touched = 0
        for u, v in pairs:
            touched |= 1 << u | 1 << v
        covers.extend(components(sub, touched))
    return all(any(cover & s == s for cover in covers) for s in k_sets(n, k))
