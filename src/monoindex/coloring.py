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
from functools import cached_property

from .graphs import (
    Graph,
    connected_components,
    edge_forest,
    is_connected,
    iter_bits,
    k_subsets,
    parse_graph6,
    to_graph6,
)


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
class EdgeColoring:
    """A total assignment of a color id to every edge of ``graph``.

    ``colors[i]`` is the color of ``graph.edges[i]``.
    """

    graph: Graph
    colors: tuple[int, ...]

    def __post_init__(self):
        if len(self.colors) != self.graph.m:
            raise ValueError(
                f"coloring covers {len(self.colors)} edges, graph has {self.graph.m}"
            )
        if any(c < 0 for c in self.colors):
            raise ValueError("color ids must be non-negative")

    @property
    def num_colors(self) -> int:
        return len(set(self.colors))

    def color_of(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        return self.colors[self.graph.edge_index[(u, v)]]

    @classmethod
    def from_map(cls, graph: Graph, mapping) -> "EdgeColoring":
        colors = [-1] * graph.m
        for (u, v), c in mapping.items():
            if u > v:
                u, v = v, u
            if (u, v) not in graph.edge_index:
                raise ValueError(f"{u}-{v} is not an edge of the graph")
            colors[graph.edge_index[(u, v)]] = c
        if any(c < 0 for c in colors):
            missing = [e for e, i in graph.edge_index.items() if colors[i] < 0]
            raise ValueError(f"edges without a color: {missing}")
        return cls(graph, tuple(colors))

    def as_map(self) -> dict[tuple[int, int], int]:
        return dict(zip(self.graph.edges, self.colors))

    def renumbered(self) -> "EdgeColoring":
        return EdgeColoring(self.graph, _renumber(self.colors))

    def merged(self, a: int, b: int) -> "EdgeColoring":
        """Recolor class b onto class a, then renumber densely."""
        if a == b:
            raise ValueError("merge needs two distinct color ids")
        return EdgeColoring(
            self.graph, _renumber(tuple(a if c == b else c for c in self.colors))
        )


@dataclass(frozen=True)
class VertexColoring:
    """A total assignment of a color id to every vertex of ``graph``."""

    graph: Graph
    colors: tuple[int, ...]

    def __post_init__(self):
        if len(self.colors) != self.graph.n:
            raise ValueError(
                f"coloring covers {len(self.colors)} vertices, graph has {self.graph.n}"
            )
        if any(c < 0 for c in self.colors):
            raise ValueError("color ids must be non-negative")

    @property
    def num_colors(self) -> int:
        return len(set(self.colors))

    def color_of(self, v: int) -> int:
        return self.colors[v]

    def class_mask(self, color: int) -> int:
        out = 0
        for v, c in enumerate(self.colors):
            if c == color:
                out |= 1 << v
        return out

    def renumbered(self) -> "VertexColoring":
        return VertexColoring(self.graph, _renumber(self.colors))

    def merged(self, a: int, b: int) -> "VertexColoring":
        if a == b:
            raise ValueError("merge needs two distinct color ids")
        return VertexColoring(
            self.graph, _renumber(tuple(a if c == b else c for c in self.colors))
        )


@dataclass(frozen=True)
class ColorClass:
    """The edges of one color, with the vertex set they touch."""

    color: int
    edges: tuple[tuple[int, int], ...]
    vertices: int

    @property
    def trivial(self) -> bool:
        return len(self.edges) <= 1

    @cached_property
    def component_masks(self) -> tuple[int, ...]:
        return tuple(sorted(edge_forest(self.edges)[1], key=lambda mask: mask & -mask))

    @property
    def is_connected(self) -> bool:
        return len(self.component_masks) == 1

    @property
    def is_tree(self) -> bool:
        return self.is_connected and len(self.edges) == self.vertices.bit_count() - 1

    @property
    def has_cycle(self) -> bool:
        return len(self.edges) > self.vertices.bit_count() - len(self.component_masks)


def color_classes(ec: EdgeColoring) -> list[ColorClass]:
    """One entry per used color, ascending by color id; edge sets partition E."""
    groups: dict[int, list[tuple[int, int]]] = {}
    for e, c in zip(ec.graph.edges, ec.colors):
        groups.setdefault(c, []).append(e)
    out = []
    for c in sorted(groups):
        edges = tuple(groups[c])
        vertices = 0
        for u, v in edges:
            vertices |= 1 << u | 1 << v
        out.append(ColorClass(c, edges, vertices))
    return out


def _mono_component_masks(edges, colors) -> list[int]:
    """Vertex masks of all monochromatic components, over all colors."""
    groups: dict[int, list[tuple[int, int]]] = {}
    for e, c in zip(edges, colors):
        groups.setdefault(c, []).append(e)
    masks = []
    for group in groups.values():
        masks.extend(edge_forest(group)[1])
    return masks


def _cover_masks(g: Graph, class_masks) -> list[int]:
    """Closed neighborhoods N[A] of every component A of every class mask."""
    adj = g.adj
    covers = []
    for mask in class_masks:
        for comp in connected_components(g, mask):
            cover = comp
            for v in iter_bits(comp):
                cover |= adj[v]
            covers.append(cover)
    return covers


def _mono_cover_masks(vc: VertexColoring) -> list[int]:
    """Closed neighborhoods N[A] of every monochromatic component A."""
    class_masks: dict[int, int] = {}
    for v, c in enumerate(vc.colors):
        class_masks[c] = class_masks.get(c, 0) | 1 << v
    return _cover_masks(vc.graph, class_masks.values())


def _coverage_targets(g: Graph, k: int):
    """The k-sets a valid coloring must place in one cover, lazily.

    At k = 2 adjacent pairs are left out: the one-edge tree holds them with
    no internal vertex, and in an edge coloring the edge's own color does.
    """
    for s in k_subsets(g.n, k):
        if k == 2 and g.adj[(s & -s).bit_length() - 1] & s:
            continue
        yield s


def _all_covered(subsets, masks) -> bool:
    """Does every subset lie inside at least one of the masks?"""
    for s in subsets:
        if not any(mask & s == s for mask in masks):
            return False
    return True


def mono_stree_exists(ec: EdgeColoring, s: int) -> bool:
    """Is there a tree of one edge color containing every vertex of mask s?

    Sets of size <= 1 count as trivially connected.
    """
    if s.bit_count() <= 1:
        return True
    return any(comp & s == s for comp in _mono_component_masks(ec.graph.edges, ec.colors))


def vertex_mono_tree_exists(vc: VertexColoring, s: int) -> bool:
    """Is there a tree containing mask s whose internal vertices share a color?

    Size <= 1 is trivially true; an adjacent pair is covered by the one-edge
    tree, which has no internal vertices. Everything else reduces to the
    component-coverage check described in the module docstring.
    """
    size = s.bit_count()
    if size <= 1:
        return True
    if size == 2:
        u = (s & -s).bit_length() - 1
        if vc.graph.adj[u] & s:
            return True
    return any(cover & s == s for cover in _mono_cover_masks(vc))


def verify_mx_coloring(ec: EdgeColoring, k: int) -> bool:
    """Does every k-set of vertices admit a monochromatic tree containing it?"""
    g = ec.graph
    if not 2 <= k <= g.n:
        raise ValueError(f"k={k} out of range 2..{g.n}")
    if not is_connected(g):
        raise ValueError("validity is only defined for connected graphs")
    return _all_covered(_coverage_targets(g, k), _mono_component_masks(g.edges, ec.colors))


def verify_mvx_coloring(vc: VertexColoring, k: int) -> bool:
    """Vertex analogue of verify_mx_coloring."""
    g = vc.graph
    if not 2 <= k <= g.n:
        raise ValueError(f"k={k} out of range 2..{g.n}")
    if not is_connected(g):
        raise ValueError("validity is only defined for connected graphs")
    return _all_covered(_coverage_targets(g, k), _mono_cover_masks(vc))


def normalize_to_forest(ec: EdgeColoring, k: int) -> EdgeColoring:
    """Recolor until every color class is a tree, preserving validity.

    Within each class a Kruskal pass keeps a spanning forest: an edge closing
    a cycle is always the highest-indexed edge of that cycle, and it moves to
    a fresh color of its own. Forest components beyond the one holding the
    lowest-indexed edge each move to a fresh color as well. Neither step
    changes any component's vertex set, so validity survives, and the pass is
    idempotent on its own output.
    """
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
                colors[idx] = next_color  # closes a cycle
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


# ---------------------------------------------------------------------------
# coloring certificate files

def write_coloring_certificate(coloring: EdgeColoring | VertexColoring) -> str:
    """Serialize a coloring as the key-value certificate format.

    Layout: a ``type`` line (edge or vertex), a ``graph6`` line, then one
    ``element -> color`` line per edge or vertex, in ascending order.
    """
    lines = []
    if isinstance(coloring, EdgeColoring):
        lines.append("type: edge")
        lines.append(f"graph6: {to_graph6(coloring.graph)}")
        for (u, v), c in zip(coloring.graph.edges, coloring.colors):
            lines.append(f"{u} {v} -> {c}")
    else:
        lines.append("type: vertex")
        lines.append(f"graph6: {to_graph6(coloring.graph)}")
        for v, c in enumerate(coloring.colors):
            lines.append(f"{v} -> {c}")
    return "\n".join(lines) + "\n"


def parse_coloring_certificate(text: str) -> EdgeColoring | VertexColoring:
    kind = None
    graph = None
    assignments: list[tuple[list[int], int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("type:"):
            kind = line.split(":", 1)[1].strip()
            if kind not in ("edge", "vertex"):
                raise ValueError(f"line {lineno}: unknown certificate type {kind!r}")
        elif line.startswith("graph6:"):
            graph = parse_graph6(line.split(":", 1)[1].strip())
        elif "->" in line:
            left, right = line.split("->", 1)
            assignments.append(([int(t) for t in left.split()], int(right)))
        else:
            raise ValueError(f"line {lineno}: unrecognized certificate line {line!r}")
    if kind is None or graph is None:
        raise ValueError("certificate needs both a 'type:' and a 'graph6:' line")
    if kind == "edge":
        mapping = {}
        for element, c in assignments:
            if len(element) != 2:
                raise ValueError(f"edge certificate line does not name two vertices: {element}")
            mapping[tuple(element)] = c
        return EdgeColoring.from_map(graph, mapping)
    colors = [-1] * graph.n
    for element, c in assignments:
        if len(element) != 1:
            raise ValueError(f"vertex certificate line does not name one vertex: {element}")
        colors[element[0]] = c
    if any(c < 0 for c in colors):
        raise ValueError("vertex certificate leaves vertices uncolored")
    return VertexColoring(graph, tuple(colors))
