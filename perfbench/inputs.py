"""Seeded workload inputs, made before any timing starts.

Each run draws ``SAMPLES`` distinct input samples from its seed; pass i of
a run uses sample i % SAMPLES, so the run's median covers several samples
and does not hang on how many hard graphs one sample happens to hold. The
program receives only graph6 strings (index-n8) and argv lists (cli-mix).
"""

from __future__ import annotations

import random

import refgraph as rg

SAMPLES = 8
INDEX_N = 8
INDEX_GRAPHS = 400

# (k, n, m) of each `mx --exact` call in one cli-mix sample. Partition search
# cost is set by the edge count and the level the search stops at, so sizes
# are fixed and only the graph drawn at each size varies with the seed. Ten
# calls at (6, 8) form a plateau of equal cost around the op-latency p90, so
# the tail metric does not jump between two sizes from seed to seed.
MX_SIZES = (
    (3, 7, 10), (2, 7, 10), (3, 7, 9), (2, 7, 9), (3, 6, 10), (2, 6, 10), (3, 6, 9),
    *[(3, 6, 8), (2, 6, 8)] * 5,
    (3, 5, 9), (3, 5, 10), (2, 5, 8),
)
# (n, m) of the cut-vertex graphs; the max-leaf tree scan is C(m, n - 1) subsets
CUT_SIZES = ((5, 6), (6, 8), (7, 9), (8, 11)) * 4
# (n, m) of the `reduce` sources. A tree on 4 vertices makes a gadget small
# enough for the exhaustive max-leaf tree scan (about 0.1 s); larger sources
# take the connected-domination path. Fixing the sizes fixes that mix.
REDUCE_SIZES = ((4, 3), (4, 4), (4, 5), (4, 6), (5, 4), (5, 6), (5, 8), (5, 10),
                (6, 5), (6, 8), (6, 11), (6, 15)) * 2
GADGET_N = (4, 5, 6, 7) * 6


def _rng(workload: str, seed: int, sample: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{sample}")


def _graph(rng: random.Random, n: int, m: int, need_cut: bool = False) -> list[int]:
    """A connected graph with n vertices and m edges (with a cut vertex if asked)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    while True:
        adj = rg.from_edges(n, rng.sample(pairs, m))
        if rg.is_connected(adj) and (not need_cut or rg.has_cut_vertex(adj)):
            return adj


def index_sample(seed: int, sample: int) -> list[str]:
    """Connected, co-connected 8-vertex graphs as graph6.

    Edge density is uniform on [0.2, 0.8], stratified: graph i draws its
    density from the i-th of INDEX_GRAPHS equal slices of that interval, and
    redraws within the slice until both the graph and its complement are
    connected.
    """
    rng = _rng("index-n8", seed, sample)
    out = []
    for i in range(INDEX_GRAPHS):
        while True:
            p = 0.2 + 0.6 * (i + rng.random()) / INDEX_GRAPHS
            adj = [0] * INDEX_N
            for u in range(INDEX_N):
                for v in range(u + 1, INDEX_N):
                    if rng.random() < p:
                        adj[u] |= 1 << v
                        adj[v] |= 1 << u
            if rg.is_connected(adj) and rg.is_connected(rg.complement(adj)):
                break
        out.append(rg.to_graph6(adj))
    rng.shuffle(out)
    return out


def cli_sample(seed: int, sample: int) -> list[dict]:
    """120 CLI invocations; each witness is verified by the next call.

    Every op carries the fields the gate needs besides its argv: ``kind``,
    the graph as graph6, ``k`` and the file it writes, if any.
    """
    rng = _rng("cli-mix", seed, sample)
    groups = []
    for k, n, m in MX_SIZES:
        groups.append(("mx", rg.to_graph6(_graph(rng, n, m)), k))
    for n, m in CUT_SIZES:
        groups.append(("mvx", rg.to_graph6(_graph(rng, n, m, need_cut=True)), rng.randint(2, n)))
    for n, m in REDUCE_SIZES:
        groups.append(("reduce", rg.to_graph6(_graph(rng, n, m)), rng.randint(1, n)))
    for n in GADGET_N:
        adj = _graph(rng, n, rng.randint(n - 1, n * (n - 1) // 2))
        groups.append(("gadget", rg.to_graph6(adj), None))
    rng.shuffle(groups)
    ops = []
    for idx, (kind, g6, k) in enumerate(groups):
        if kind == "mx":
            path = f"w{idx}.txt"
            argv = ["mx", "--graph", g6, "--k", str(k), "--exact", "--witness", path]
        elif kind == "mvx":
            path = f"w{idx}.txt"
            argv = ["mvx", "--graph", g6, "--k", str(k), "--cut-vertex", "--witness", path]
        elif kind == "reduce":
            path = f"c{idx}.txt"
            argv = ["reduce", "--graph", g6, "--k", str(k), "--certificates", path]
        else:
            path = None
            argv = ["gadget", "--graph", g6]
        ops.append({"kind": kind, "argv": argv, "g6": g6, "k": k, "file": path})
        if kind in ("mx", "mvx"):
            ops.append({"kind": "verify", "argv": ["verify", "--coloring", path, "--k", str(k)],
                        "g6": g6, "k": k, "file": None})
    return ops
