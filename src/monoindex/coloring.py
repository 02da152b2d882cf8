"""Edge and vertex colorings plus the monochromatic-tree predicates.

The edge side is straightforward: a set S of vertices admits a tree whose
edges all carry color c exactly when S sits inside one connected component
of the subgraph formed by the color-c edges.

The vertex side rests on one structural fact. A tree containing S whose
internal (non-leaf) vertices are all colored c exists iff there is a
nonempty set A of c-colored vertices, connected in the host graph, such
that every vertex of S outside A has a neighbor in A: span a tree on A and
hang the stragglers as leaves; conversely the internal vertices of any
such tree form exactly such an A. That predicate is monotone under growing
A connectedly, so only inclusion-maximal choices matter, and those are the
connected components of the subgraph induced by color class c. Both
verifiers therefore reduce to coverage checks against per-component masks.
Trees with no internal vertex at all (a single vertex, a single edge) are
handled as the explicit small cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, lru_cache, reduce
from operator import or_
from typing import NamedTuple

from .graphs import (
    BudgetError,
    Graph,
    _least_set,
    closed_neighborhood,
    connected_components,
    edge_forest,
    is_connected,
    iter_bits,
    k_subsets,
    parse_graph6,
    to_graph6,
)

# The down-set table: 2^n ints of up to 2^n bits. Summed sys.getsizeof: 0.09 MiB
# at n = 10, 1.2 at 12, 17.5 at 14, so about 280 MiB at 16 (x4 per vertex).
# No budget lifts either exact search past this.
MAX_KERNEL_VERTICES = 12


def _renumber(colors: tuple[int, ...]) -> tuple[int, ...]:
    """Map color ids to dense 0..k-1 in order of first appearance."""
    seen: dict[int, int] = {}
    out = []
    for c in colors:
        if c not in seen:
            seen[c] = len(seen)
        out.append(seen[c])
    return tuple(out)


@dataclass(frozen=True)
class _Coloring:
    """A total assignment of a color id to every element (edge or vertex) of
    ``graph``. Subclasses name their kind, their elements (vertex tuples, in
    the order ``colors`` follows) and the cover masks of their kind;
    equality holds only between colorings of the same kind."""

    graph: Graph
    colors: tuple[int, ...]

    def __post_init__(self):
        size = self._size(self.graph)
        if len(self.colors) != size:
            raise ValueError(
                f"coloring covers {len(self.colors)} {self._noun}, graph has {size}"
            )
        if min(self.colors, default=0) < 0:
            raise ValueError("color ids must be non-negative")

    @classmethod
    def from_map(cls, graph: Graph, mapping):
        """Build from ``{element: color}``; each key is a vertex tuple, in
        any order, naming one element of the graph, and every element needs
        a color."""
        elements = cls._elements(graph)
        index = {e: i for i, e in enumerate(elements)}
        colors = [None] * len(elements)
        for key, c in mapping.items():
            key = tuple(sorted(key))
            if key not in index:
                raise ValueError(f"'{' '.join(map(str, key))}' names no {cls._kind} of the graph")
            colors[index[key]] = c
        missing = [e for e, c in zip(elements, colors) if c is None]
        if missing:
            raise ValueError(f"{cls._noun} without a color: {missing}")
        return cls(graph, tuple(colors))

    @property
    def num_colors(self) -> int:
        return len(set(self.colors))

    @cached_property
    def _cover_masks(self) -> list[int]:
        """The cover masks of this coloring, built once per coloring."""
        return self._covers(self.graph, self.colors)

    def renumbered(self):
        return type(self)(self.graph, _renumber(self.colors))

    def merged(self, a: int, b: int):
        """Recolor class b onto class a, then renumber densely."""
        if a == b:
            raise ValueError("merge needs two distinct color ids")
        return type(self)(
            self.graph, _renumber(tuple(a if c == b else c for c in self.colors))
        )


def _edges_by_color(g: Graph, colors) -> dict[int, list[tuple[int, int]]]:
    """{color: its edges in edge order}, colors in order of first appearance."""
    groups: dict[int, list[tuple[int, int]]] = {}
    for e, c in zip(g.edges, colors):
        groups.setdefault(c, []).append(e)
    return groups


def _edge_covers(g: Graph, colors) -> list[int]:
    """Vertex masks of all monochromatic components, over all colors."""
    return [comp for edges in _edges_by_color(g, colors).values() for comp in edge_forest(edges)[1]]


def _vertex_covers(g: Graph, colors) -> list[int]:
    """Closed neighborhoods N[A] of every monochromatic component A."""
    class_masks: dict[int, int] = {}
    for v, c in enumerate(colors):
        class_masks[c] = class_masks.get(c, 0) | 1 << v
    comps = (comp for mask in class_masks.values() for comp in connected_components(g, mask))
    return [closed_neighborhood(g, comp) for comp in comps]


class EdgeColoring(_Coloring):
    """``colors[i]`` is the color of ``graph.edges[i]``."""

    _kind = "edge"
    _noun = "edges"
    _elements = staticmethod(lambda g: g.edges)
    _size = staticmethod(lambda g: g.m)
    _covers = staticmethod(_edge_covers)


class VertexColoring(_Coloring):
    """``colors[v]`` is the color of vertex v."""

    _kind = "vertex"
    _noun = "vertices"
    _elements = staticmethod(lambda g: [(v,) for v in range(g.n)])
    _size = staticmethod(lambda g: g.n)
    _covers = staticmethod(_vertex_covers)


def _target_bits(g: Graph, k: int) -> int:
    """The k-sets a valid coloring must place in one cover, as one 2^n-bit
    int: every k-set less the edges, which a one-edge tree holds."""
    return _k_set_bits(g.n, k) & ~sum(1 << (1 << u | 1 << v) for u, v in g.edges)


@lru_cache(maxsize=None)
def _k_set_bits(n: int, k: int) -> int:
    return sum(1 << s for s in k_subsets(n, k))


@lru_cache(maxsize=None)
def _down_sets(n: int) -> list[int]:
    """down[mask], a 2^n-bit int with bit s set for every subset s of mask:
    a mask's subsets are those of the mask less its top bit h, with and without h.
    Refuses n > MAX_KERNEL_VERTICES, the one refusal of both exact searches."""
    if n > MAX_KERNEL_VERTICES:
        raise BudgetError(
            f"exact search over {n} vertices exceeds the budget of {MAX_KERNEL_VERTICES}"
        )
    down = [1]
    for h in range(n):
        down += [d | d << (1 << h) for d in down]
    return down


def _connected_sets(g: Graph, hit: list[int]):
    """``holding(s, x)``: the connected vertex sets of x + 1 vertices that meet
    ``hit[t]`` for every t in s, in mask order, for the blocks of both exact
    searches. Families of vertex sets are 2^n-bit ints, bit A for the set A.
    Dropping a leaf of a spanning tree keeps a set connected, so each
    connected set of x + 1 vertices is one of x plus a vertex v outside it
    with a neighbour in it (bit A moves to A + 2^v): the layers grow so, on
    first need. The sets of one size that meet every hit[t] take one AND per t.
    """
    n, full, down = g.n, g.full_mask, _down_sets(g.n)
    # grow[v]: the sets without v that hold a neighbour of v; meets[t]: those meeting hit[t]
    grow = [down[full ^ 1 << v] ^ down[full & ~(g.adj[v] | 1 << v)] for v in range(n)]
    meets = [down[full] ^ down[full & ~h] for h in hit]
    layers = [sum(1 << (1 << v) for v in range(n))]

    @cache
    def inside(s: int) -> int:  # via s less its low t
        rest = s & s - 1
        return meets[(s & -s).bit_length() - 1] & (inside(rest) if rest else -1)

    def holding(s: int, x: int) -> list[int]:
        while len(layers) <= x:
            layers.append(0)
            for v in range(n):
                layers[-1] |= (layers[-2] & grow[v]) << (1 << v)
        return list(iter_bits(layers[x] & inside(s)))

    return holding


class IndexResult(NamedTuple):
    """An exact index and a coloring that attains it."""

    value: int
    witness: _Coloring


def _least_excess(
    n: int, cover, holding, target_sets: list[int], low: int, least: int, ceiling
) -> list[tuple[int, tuple[int, ...]]]:
    """Both exact indices: for each set of targets in turn, the least total
    excess e, from low or from the e of the set before, of element-disjoint
    blocks whose covers hold every target, with the blocks chosen. The index
    is the element count less e; ``_block_colors`` gives the witness.

    Elements are the edges or the vertices of an n-vertex graph. A block is a
    mask of two or more elements, of excess popcount - 1 and vertex cover
    ``cover[block]``. The caller supplies the blocks: ``holding(s, x)`` lists
    those of excess x whose covers hold the vertex set s. A target set is a
    2^n-bit set of vertex sets. For each e, the lowest target left out is
    branched on over the blocks that hold it, share no element with the
    chosen ones and fit what is left of e: by ascending excess, then in
    ``holding`` order. ``holding(s, x)`` is called at most once per (s, x),
    when the search first reaches excess x at target s, and never for x below
    ``least``: no block of such an excess holds a target, so a block that
    leaves less of e than ``least`` must hold every target left. The caller's
    ``ceiling`` = (top, blocks) is a family of excess top that holds every
    target of every set: the search never runs at e = top, and answers with
    those blocks once no family of smaller excess exists.
    """
    down = _down_sets(n)
    held: dict[int, list[list[int]]] = {}  # target -> per excess reached, its blocks

    def family(union: int, used: int, budget: int):
        rest = targets & ~union
        if not rest:
            return ()
        s = (rest & -rest).bit_length() - 1
        levels = held.setdefault(s, [[]] * least)
        for excess in range(least, budget + 1):
            if excess == len(levels):
                levels.append(holding(s, excess))
            for block in levels[excess]:
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
        out.append((e, fallback if chosen is None else chosen))
    return out


def _block_colors(size: int, blocks) -> tuple[int, ...]:
    """The coloring of elements 0..size-1 that gives each block one color
    and every other element its own, numbered by first appearance."""
    owner = {i: b for b in blocks for i in iter_bits(b)}
    return _renumber([owner.get(i, 1 << i) for i in range(size)])


def _check_index_args(g: Graph, k: int) -> None:
    """Both indices are defined for connected graphs, n >= 2 and 2 <= k <= n."""
    if not is_connected(g):
        raise ValueError("the index is defined for connected graphs only")
    if g.n < 2:
        raise ValueError("the index needs at least 2 vertices")
    if not 2 <= k <= g.n:
        raise ValueError(f"k={k} out of range 2..{g.n}")


def _in_one_tree(coloring: _Coloring, s: int) -> bool:
    """Does one certifying tree of the coloring contain every vertex of mask s?

    Size <= 1 is trivially true, and so is an adjacent pair: the one-edge
    tree has no internal vertex, and in an edge coloring the edge's own
    color holds it. Everything else is the cover check of the module
    docstring.
    """
    g = coloring.graph
    size = s.bit_count()
    if size <= 1 or size == 2 and g.adj[(s & -s).bit_length() - 1] & s:
        return True
    return any(cover & s == s for cover in coloring._cover_masks)


def mono_stree_exists(ec: EdgeColoring, s: int) -> bool:
    """Is there a tree of one edge color containing every vertex of mask s?"""
    return _in_one_tree(ec, s)


def vertex_mono_tree_exists(vc: VertexColoring, s: int) -> bool:
    """Is there a tree containing mask s whose internal vertices share a color?"""
    return _in_one_tree(vc, s)


def _verify(coloring: _Coloring, k: int) -> bool:
    """Does every k-set of vertices lie in one certifying tree of the coloring?

    At k >= 3 a set lies in no cover iff it meets every miss V - M of the
    covers M, and pads out to a k-set that does too: so the coloring is
    valid iff some cover is V or no set of at most k vertices meets them all.
    """
    g = coloring.graph
    _check_index_args(g, k)
    full, covers = g.full_mask, coloring._cover_masks
    if k == 2:  # each vertex shares a cover with every non-neighbour
        return all(
            reduce(or_, (c for c in covers if c >> v & 1), g.adj[v] | 1 << v) == full
            for v in range(g.n)
        )
    misses = [full & ~cover for cover in covers]
    if not all(misses):
        return True
    rows = [sum(1 << i for i, miss in enumerate(misses) if miss >> v & 1) for v in range(g.n)]
    return next(_least_set(rows, misses, k), None) is None


def verify_mx_coloring(ec: EdgeColoring, k: int) -> bool:
    """Does every k-set of vertices admit a monochromatic tree containing it?"""
    return _verify(ec, k)


def verify_mvx_coloring(vc: VertexColoring, k: int) -> bool:
    """Vertex analogue of verify_mx_coloring."""
    return _verify(vc, k)


def normalize_to_forest(ec: EdgeColoring, k: int) -> EdgeColoring:
    """Recolor until every color class is a tree, preserving validity.

    A Kruskal pass in edge order splits each class into its forest's
    components and frees each edge that closes a cycle, the highest-indexed
    on it, as a one-edge class; no component's vertex set changes. The output
    is renumbered by first appearance, so this partition of the edges alone
    decides it, and the pass is idempotent on its own output. Validity is
    checked on the input and on the output.
    """
    if not verify_mx_coloring(ec, k):
        raise ValueError(f"input coloring is not valid at k={k}")
    return _split_into_trees(ec, k)


def _split_into_trees(ec: EdgeColoring, k: int) -> EdgeColoring:
    """``normalize_to_forest`` on an input taken as valid at k; the output is checked."""
    # tree edge: (color, component mask); cycle edge: (None, edge), no color being None
    key = {}
    for c, edges in _edges_by_color(ec.graph, ec.colors).items():
        kept, comps = edge_forest(edges)
        for e, tree_edge in zip(edges, kept):
            key[e] = (c, next(m for m in comps if m >> e[0] & 1)) if tree_edge else (None, e)
    out = EdgeColoring(ec.graph, _renumber(tuple(key[e] for e in ec.graph.edges)))
    if not verify_mx_coloring(out, k):
        raise RuntimeError("normalization broke the coloring; this is a bug")
    return out


# ---------------------------------------------------------------------------
# coloring certificate files

def write_coloring_certificate(coloring: EdgeColoring | VertexColoring) -> str:
    """Serialize a coloring as the key-value certificate format.

    Layout: a ``type`` line (edge or vertex), a ``graph6`` line, then one
    ``element -> color`` line per edge or vertex, in ascending order.
    """
    lines = [f"type: {coloring._kind}", f"graph6: {to_graph6(coloring.graph)}"]
    for element, c in zip(coloring._elements(coloring.graph), coloring.colors):
        lines.append(f"{' '.join(map(str, element))} -> {c}")
    return "\n".join(lines) + "\n"


def _int_token(token: str, field: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"line {lineno}: {field} {token!r} is not an integer") from None


def parse_coloring_certificate(text: str) -> EdgeColoring | VertexColoring:
    """Read a certificate; each edge or vertex of the graph must appear once."""
    kinds = {cls._kind: cls for cls in (EdgeColoring, VertexColoring)}
    kind = None
    graph = None
    mapping: dict[tuple[int, ...], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("type:"):
            word = line.split(":", 1)[1].strip()
            if kind is not None:
                raise ValueError(f"line {lineno}: a second 'type:' line")
            if word not in kinds:
                raise ValueError(f"line {lineno}: unknown certificate type {word!r}")
            kind = kinds[word]
        elif line.startswith("graph6:"):
            if graph is not None:
                raise ValueError(f"line {lineno}: a second 'graph6:' line")
            graph = parse_graph6(line.split(":", 1)[1].strip())
        elif "->" in line:
            left, right = line.split("->", 1)
            element = tuple(sorted(_int_token(t, "vertex", lineno) for t in left.split()))
            if element in mapping:
                raise ValueError(f"line {lineno}: {left.strip()} is named twice")
            mapping[element] = _int_token(right.strip(), "color", lineno)
        else:
            raise ValueError(f"line {lineno}: unrecognized certificate line {line!r}")
    if kind is None or graph is None:
        raise ValueError("certificate needs both a 'type:' and a 'graph6:' line")
    return kind.from_map(graph, mapping)
