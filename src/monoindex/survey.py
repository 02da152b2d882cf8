"""Complement-pair survey: verify the bound landscape on exhaustive small graphs.

For each graph whose complement is also connected, the harness computes the
vertex index of both the graph and its complement at every k in 3..n and
grades the sum against two families of bounds:

  lower: 6 at n = 5 and 8 at n = 6 for every k; for n >= 7 the bound is
         n + 3 up to a k-threshold depending on n mod 4, then n + 2.
  upper: 2n - 2, claimed only for k >= ceil(n/2) and n >= 5. For smaller k
         the sum is recorded as an observation, never graded.

Each record is one CSV row, its fields the columns in order. Rows are sorted
by (n, g6, k), so outputs are reproducible byte for byte.
"""

from __future__ import annotations

import csv
from typing import NamedTuple

from .graphs import (
    ENUMERATION_MAX_VERTICES,
    Graph,
    complement,
    complete_bipartite_graph,
    enumerate_connected_graphs,
    is_connected,
    to_graph6,
)
from .mvx import _excess_profile, _mod4_threshold, connected_domination_number


class SurveyRecord(NamedTuple):
    n: int
    k: int
    g6: str
    g6_complement: str
    mvx_g: int
    mvx_gbar: int
    sum: int
    lower_bound: int | None
    upper_bound: int | None
    verdict: str

    @staticmethod
    def grade(total: int, lower: int | None, upper: int | None) -> str:
        if lower is not None and total < lower:
            return "fail"
        if upper is not None and total > upper:
            return "fail"
        return "pass"


CSV_COLUMNS = SurveyRecord._fields


def enumerate_coconnected(n: int):
    """Connected graphs on n vertices whose complement is connected too.

    Complementary pairs appear via both members (once if self-complementary).
    """
    if not 4 <= n <= ENUMERATION_MAX_VERTICES:
        raise ValueError(
            f"co-connected enumeration covers 4 <= n <= {ENUMERATION_MAX_VERTICES}, got n={n}"
        )
    for g in enumerate_connected_graphs(n):
        if is_connected(complement(g)):
            yield g


def expected_lower_bound(n: int, k: int) -> int:
    """The proven lower bound on the complement-pair sum at (n, k)."""
    if n < 5:
        raise ValueError("the lower bound starts at n = 5")
    if not 3 <= k <= n:
        raise ValueError(f"k={k} out of range 3..{n}")
    if n == 5:
        return 6
    if n == 6:
        return 8
    return n + 3 if k <= _mod4_threshold(n) else n + 2


def upper_bound_applies(n: int, k: int) -> bool:
    return n >= 5 and k >= (n + 1) // 2


def survey_bounds(n: int) -> list[SurveyRecord]:
    """All survey records for n, in (n, g6, k) order as built: the graphs come
    in canonical code order, which is g6 order, and k ascends. Every verdict must pass.
    Each graph and each complement is routed on its own (``mvx._excess_profile``
    from k = 3): the search runs only where a window is non-empty.

    n = 8 takes about 3.4 s (2 cores, Python 3.11.7), about 3 s of it enumeration.
    """
    graphs = list(enumerate_coconnected(n))  # refuses an n out of range before the bounds
    bounds = [(k, expected_lower_bound(n, k) if n >= 5 else None,
               2 * n - 2 if upper_bound_applies(n, k) else None) for k in range(3, n + 1)]
    records = []
    for g in graphs:
        gbar = complement(g)
        g6, g6bar = to_graph6(g), to_graph6(gbar)
        found = zip(_excess_profile(g, 3), _excess_profile(gbar, 3))
        for (k, lower, upper), ((e, _), (ebar, _)) in zip(bounds, found):
            a, b = n - e, n - ebar
            records.append(SurveyRecord(n, k, g6, g6bar, a, b, a + b, lower, upper,
                                        SurveyRecord.grade(a + b, lower, upper)))
    return records


def write_survey_csv(records, out) -> None:
    """Write the header, then one row per record, to a file object; an absent
    bound is written as ``na``."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(
        (n, k, g6, g6bar, a, b, s, "na" if lo is None else lo, "na" if up is None else up, verdict)
        for n, k, g6, g6bar, a, b, s, lo, up, verdict in records
    )


def build_near_complete_bipartite(n1: int, n2: int) -> Graph:
    """Complete bipartite graph minus the edge between the two lowest ids.

    Side A is 0..n1-1, side B is n1..n1+n2-1 and the dropped edge is
    (0, n1). Both the graph and its complement are connected with diameter 3,
    and the pair attains the upper bound 2n - 2 at every k.
    """
    if n1 < 2 or n2 < 2:
        raise ValueError("both sides need at least 2 vertices")
    kb = complete_bipartite_graph(n1, n2)
    rows = list(kb.adj)
    rows[0] &= ~(1 << n1)
    rows[n1] &= ~1
    return Graph(kb.n, tuple(rows))


def locate_F1() -> list[Graph]:
    """Six-vertex co-connected graphs with connected domination 3 on both sides.

    Cycles and paths and their complements drop out by domination: C6 and
    P6 have connected domination number 4, their complements 2. The
    survey's bound landscape says the remainder should be exactly one
    complementary pair. If the search ever returned more, all of them are
    reported rather than guessed among.
    """
    out = []
    for g in enumerate_coconnected(6):
        if connected_domination_number(g) == 3 and connected_domination_number(complement(g)) == 3:
            out.append(g)
    return out
