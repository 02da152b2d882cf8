"""Dominating set reduced to connected dominating set on a cut-vertex graph.

Given any source graph on vertices v_0..v_{n-1}, the gadget doubles it with
shadow vertices u_0..u_{n-1} and appends an apex x and a pendant y:

    originals keep their ids 0..n-1, shadow u_i = n + i, x = 2n, y = 2n + 1
    edges: the original edges, u_i joined to the closed neighborhood of v_i,
    x joined to every u_i, and the pendant edge x-y.

The gadget is always connected with cut vertex x, has 2n + 2 vertices and
3m + 2n + 1 edges, and carries dominating sets of the source of size K to
connected dominating sets of size K + 1 and back. Since the vertex index of
a cut-vertex graph is |V| - gamma_c + 1, a threshold query against the
gadget's index answers the source's dominating-set question; that bridge is
``decide_ds_via_mvx``. The layout above is part of the file contract, and
vertex sets are masks, as everywhere in the package.
"""

from __future__ import annotations

from .graphs import Graph, _least_set, closed_neighborhood, connected_components, from_edges, iter_bits
from .mvx import mvx_via_cut_vertex


def is_dominating(g: Graph, mask: int) -> bool:
    """Is the vertex set ``mask`` a dominating set of g?"""
    return mask >> g.n == 0 and closed_neighborhood(g, mask) == g.full_mask


def build_gadget(g: Graph) -> Graph:
    """Construct the shadow/apex/pendant gadget for any source graph."""
    n = g.n
    edges = list(g.edges)
    for i in range(n):
        edges.append((i, n + i))
        for j in iter_bits(g.adj[i]):
            edges.append((j, n + i))
    x, y = 2 * n, 2 * n + 1
    edges.extend((x, n + i) for i in range(n))
    edges.append((x, y))
    return from_edges(2 * n + 2, edges)


def minimum_dominating_set(g: Graph) -> int:
    """Mask of the first minimum dominating set in combinations order."""
    closed = [g.adj[v] | 1 << v for v in range(g.n)]  # r = N[d] lacks t: need N[t]
    return [*_least_set(closed, closed, g.n)][-1]


def dominating_number(g: Graph) -> int:
    return minimum_dominating_set(g).bit_count()


def lift_dominating_set(g: Graph, d: int) -> int:
    """D -> {u_i : v_i in D} + {x}, a connected dominating set of the gadget."""
    if not is_dominating(g, d):
        raise ValueError("input is not a dominating set of the source")
    gadget = build_gadget(g)
    lifted = d << g.n | 1 << 2 * g.n
    if not (is_dominating(gadget, lifted) and connected_components(gadget, lifted) == [lifted]):
        raise RuntimeError("lifted set failed its own check; this is a bug")
    return lifted


def project_cds(g: Graph, d_prime: int) -> int:
    """D' -> {v_i : u_i in D' or v_i in D'}, a dominating set of the source."""
    gadget = build_gadget(g)
    if not (is_dominating(gadget, d_prime) and connected_components(gadget, d_prime) == [d_prime]):
        raise ValueError("input is not a connected dominating set of the gadget")
    projected = (d_prime | d_prime >> g.n) & g.full_mask
    if not is_dominating(g, projected):
        raise RuntimeError("projected set failed its own check; this is a bug")
    return projected


def decide_ds_via_mvx(g: Graph, K: int) -> bool:
    """Does g have a dominating set of size <= K? Answered through the gadget.

    The gadget has cut vertex x, so its vertex index is |V'| - gamma_c + 1 at
    every k; the source has a dominating set of size <= K iff the gadget has
    a connected dominating set of size <= K + 1, i.e. iff the index clears
    |V'| - (K + 1) + 1.
    """
    if not 1 <= K <= g.n:
        raise ValueError(f"K={K} out of range 1..{g.n}")
    gadget = build_gadget(g)
    return mvx_via_cut_vertex(gadget, 2).value >= gadget.n - (K + 1) + 1


def write_domination_certificates(dominating: int, connected_dominating: int) -> str:
    """A ``kind:`` and a ``vertices:`` line per set, blank-line separated."""
    return "\n".join(
        f"kind: {kind}\nvertices: {' '.join(map(str, iter_bits(mask)))}\n"
        for kind, mask in (("dominating", dominating), ("connected-dominating", connected_dominating))
    )
