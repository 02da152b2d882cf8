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
``decide_ds_via_mvx``. The certificate layout above is part of the file
contract, so lift/project results are plain vertex lists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    Graph,
    closed_neighborhood,
    connected_components,
    from_edges,
    iter_bits,
    mask_from,
)
from .mvx import MAX_DOMINATION_VERTICES, _dominating_masks, mvx_via_cut_vertex


@dataclass(frozen=True)
class GadgetMap:
    """The gadget graph together with the vertex bookkeeping."""

    source: Graph
    gadget: Graph
    v_index: dict[int, int]
    u_index: dict[int, int]
    x: int
    y: int


@dataclass(frozen=True)
class DominationCertificate:
    vertices: frozenset[int]
    kind: str  # "dominating" | "connected-dominating"

    def __post_init__(self):
        if self.kind not in ("dominating", "connected-dominating"):
            raise ValueError(f"unknown certificate kind {self.kind!r}")


def check_certificate(g: Graph, cert: DominationCertificate) -> bool:
    """Does the certificate's vertex set actually do what its kind claims?"""
    if any(not 0 <= v < g.n for v in cert.vertices):
        return False
    mask = mask_from(cert.vertices)
    if closed_neighborhood(g, mask) != g.full_mask:
        return False
    if cert.kind == "connected-dominating":
        return connected_components(g, mask) == [mask]
    return True


def build_gadget(g: Graph) -> GadgetMap:
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
    gadget = from_edges(2 * n + 2, edges)
    return GadgetMap(
        source=g,
        gadget=gadget,
        v_index={i: i for i in range(n)},
        u_index={i: n + i for i in range(n)},
        x=x,
        y=y,
    )


def minimum_dominating_set(g: Graph, max_vertices: int = MAX_DOMINATION_VERTICES) -> frozenset[int]:
    """A minimum dominating set by ascending-size subset search."""
    return frozenset(iter_bits(next(_dominating_masks(g, max_vertices))))


def dominating_number(g: Graph, max_vertices: int = MAX_DOMINATION_VERTICES) -> int:
    return len(minimum_dominating_set(g, max_vertices))


def lift_dominating_set(gm: GadgetMap, d: DominationCertificate) -> DominationCertificate:
    """D -> {u_i : v_i in D} + {x}, a connected dominating set of the gadget."""
    if d.kind != "dominating":
        raise ValueError("lift expects a plain dominating certificate")
    if not check_certificate(gm.source, d):
        raise ValueError("input certificate is not a dominating set of the source")
    lifted = DominationCertificate(
        frozenset(gm.u_index[v] for v in d.vertices) | {gm.x},
        "connected-dominating",
    )
    if not check_certificate(gm.gadget, lifted):
        raise RuntimeError("lifted certificate failed its own check; this is a bug")
    return lifted


def project_cds(gm: GadgetMap, d_prime: DominationCertificate) -> DominationCertificate:
    """D' -> {v_i : u_i in D' or v_i in D'}, a dominating set of the source."""
    if d_prime.kind != "connected-dominating":
        raise ValueError("projection expects a connected-dominating certificate")
    if not check_certificate(gm.gadget, d_prime):
        raise ValueError("input certificate is not a connected dominating set of the gadget")
    n = gm.source.n
    projected = DominationCertificate(
        frozenset(i for i in range(n) if i in d_prime.vertices or n + i in d_prime.vertices),
        "dominating",
    )
    if not check_certificate(gm.source, projected):
        raise RuntimeError("projected certificate failed its own check; this is a bug")
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
    gm = build_gadget(g)
    index = mvx_via_cut_vertex(gm.gadget, 2).value
    return index >= gm.gadget.n - (K + 1) + 1


# ---------------------------------------------------------------------------
# domination certificate files: one stanza per certificate

def write_domination_certificates(certs) -> str:
    """Stanzas of ``kind:`` plus ``vertices:`` lines, blank-line separated."""
    stanzas = []
    for cert in certs:
        vs = " ".join(str(v) for v in sorted(cert.vertices))
        stanzas.append(f"kind: {cert.kind}\nvertices: {vs}\n")
    return "\n".join(stanzas)


def parse_domination_certificates(text: str) -> list[DominationCertificate]:
    certs = []
    kind = None
    vertices: frozenset[int] | None = None

    def flush():
        nonlocal kind, vertices
        if kind is None and vertices is None:
            return
        if kind is None or vertices is None:
            raise ValueError("certificate stanza needs both 'kind:' and 'vertices:'")
        certs.append(DominationCertificate(vertices, kind))
        kind = None
        vertices = None

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            flush()
            continue
        if line.startswith("kind:"):
            kind = line.split(":", 1)[1].strip()
        elif line.startswith("vertices:"):
            vertices = frozenset(int(t) for t in line.split(":", 1)[1].split())
        else:
            raise ValueError(f"unrecognized certificate line {line!r}")
    flush()
    return certs
