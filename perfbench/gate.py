"""Correctness gate: checks every output of a pass, outside the timed section.

It uses none of the package's verifiers or tests. Witnesses are checked
against the definitions with ``refgraph``, and values against identities
from the paper:

    mx_3 = m - n + 2          mx_2 >= m - n + 2
    mvx_k <= n - diam + 2     mvx_k does not increase as k grows
    mvx_n = n - gamma_c + 1   (n >= 3; on a cut-vertex graph for every k)

For the default seed the outputs must also match digests recorded from a
known-good build (``digests.json``): the survey-n7 CSV, the index-n8 values
and the cli-mix stdout. Each check function returns one list of problems per
operation; an operation with any problem counts as failed, and so does one
whose output cannot be read.
"""

from __future__ import annotations

import hashlib
import json
import os

import refgraph as rg

DEFAULT_SEED = 1
HOLDOUT_SEED = 2
SURVEY_N = 7
SURVEY_COLUMNS = "n,k,g6,g6_complement,mvx_g,mvx_gbar,sum,lower_bound,upper_bound,verdict"

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")) as _fh:
    DIGESTS = json.load(_fh)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def expected_digest(workload: str, seed: int, sample: int) -> str | None:
    if workload == "survey-n7":
        return DIGESTS["survey-n7"]
    if seed != DEFAULT_SEED:
        return None
    return DIGESTS[workload][sample]


def output_digest(workload: str, inputs, outputs) -> str:
    """The digest of what a user sees: CSV text, index values, CLI stdout."""
    if workload == "survey-n7":
        return sha256(outputs)
    if workload == "index-n8":
        return sha256("".join(f"{g6} {out.get('values')}\n" for g6, out in zip(inputs, outputs)))
    return sha256(json.dumps([[out["rc"], out["stdout"]] for out in outputs]))


def check_values(adj, values: dict[int, int]) -> list[str]:
    """Identities every vertex index sequence k -> mvx_k must satisfy."""
    n = len(adj)
    problems = []
    ks = sorted(values)
    if any(values[a] < values[b] for a, b in zip(ks, ks[1:])):
        problems.append(f"mvx_k increases with k: {values}")
    bound = n - rg.diameter(adj) + 2
    if any(v > bound for v in values.values()):
        problems.append(f"mvx_k above n - diam + 2 = {bound}: {values}")
    if n in values and n >= 3 and values[n] != n - rg.domination_number(adj, connected=True) + 1:
        problems.append(f"mvx_n = {values[n]} differs from n - gamma_c + 1")
    return problems


def check_vertex_witness(adj, colors, k: int, value: int) -> list[str]:
    if len(colors) != len(adj) or any(not isinstance(c, int) or c < 0 for c in colors):
        return [f"k={k}: witness {colors} is not a coloring of {len(adj)} vertices"]
    if len(set(colors)) != value:
        return [f"k={k}: witness uses {len(set(colors))} colors, value is {value}"]
    if not rg.vertex_coloring_valid(adj, colors, k):
        return [f"k={k}: witness {colors} leaves a {k}-set uncovered"]
    return []


# ---------------------------------------------------------------------------
# index-n8

def check_index_item(g6: str, out: dict) -> list[str]:
    if "error" in out:
        return [f"raised {out['error']}"]
    adj = rg.from_graph6(g6)
    n = len(adj)
    values = dict(zip(range(2, n + 1), out["values"]))
    problems = [] if len(values) == n - 1 == len(out["witnesses"]) else ["missing k values"]
    for (k, value), colors in zip(values.items(), out["witnesses"]):
        problems += check_vertex_witness(adj, colors, k, value)
    return problems + check_values(adj, values)


# ---------------------------------------------------------------------------
# survey-n7

def survey_bounds(n: int, k: int) -> tuple[int, int | None]:
    """Lower and upper bound columns, from the survey module's docstring."""
    if n == 5:
        lower = 6
    elif n == 6:
        lower = 8
    else:
        threshold = (n - 1) // 2 if n % 2 else (n // 2 - 1 if n % 4 == 0 else n // 2)
        lower = n + 3 if k <= threshold else n + 2
    upper = 2 * n - 2 if k >= (n + 1) // 2 else None
    return lower, upper


def check_survey(text: str) -> list[str]:
    """The whole CSV of one survey_bounds(7) call."""
    lines = text.split("\n")
    problems = []
    if lines[0] != SURVEY_COLUMNS or lines[-1] != "":
        problems.append("CSV header or final newline is wrong")
    rows = [line.split(",") for line in lines[1:-1]]
    keys = []
    series: dict[str, dict[int, int]] = {}
    for row in rows:
        if len(row) != 10:
            problems.append(f"malformed row {row}")
            continue
        g6, g6bar = row[2], row[3]
        n, k, a, b, total = (int(row[i]) for i in (0, 1, 4, 5, 6))
        keys.append((n, g6, k))
        adj = rg.from_graph6(g6)
        lower, upper = survey_bounds(n, k)
        expect = [str(lower), "na" if upper is None else str(upper), "pass"]
        if n != SURVEY_N or not 3 <= k <= n or len(adj) != n:
            problems.append(f"row outside the n = {SURVEY_N} survey: {row}")
        elif g6bar != rg.to_graph6(rg.complement(adj)):
            problems.append(f"{g6bar} is not the complement of {g6}")
        elif total != a + b or row[7:] != expect:
            problems.append(f"row {row} does not match its sum, bounds {expect[:2]} and a pass verdict")
        series.setdefault(g6, {})[k] = a
        series.setdefault(g6bar, {})[k] = b
    if keys != sorted(keys) or len(set(keys)) != len(keys):
        problems.append("rows are not sorted by (n, g6, k) without repeats")
    for g6, values in series.items():
        adj = rg.from_graph6(g6)
        if sorted(values) != list(range(3, SURVEY_N + 1)):
            problems.append(f"{g6}: k values {sorted(values)}")
        if not (rg.is_connected(adj) and rg.is_connected(rg.complement(adj))):
            problems.append(f"{g6}: graph or complement disconnected")
        problems += [f"{g6}: {p}" for p in check_values(adj, values)]
    return problems


# ---------------------------------------------------------------------------
# cli-mix

def parse_coloring(text: str):
    kind, g6, assignment = None, None, []
    for line in text.splitlines():
        if line.startswith("type: "):
            kind = line[6:]
        elif line.startswith("graph6: "):
            g6 = line[8:]
        elif " -> " in line:
            left, right = line.split(" -> ")
            assignment.append((tuple(int(t) for t in left.split()), int(right)))
        elif line.strip():
            raise ValueError(f"unexpected certificate line {line!r}")
    return kind, g6, assignment


def gadget(adj) -> list[int]:
    """The reduction gadget: shadow u_i = n + i on N[v_i], apex 2n on every
    shadow, pendant 2n + 1 on the apex."""
    n = len(adj)
    pairs = rg.edges(adj)
    for i in range(n):
        pairs += [(j, n + i) for j in rg.bits(adj[i] | 1 << i)]
        pairs.append((2 * n, n + i))
    pairs.append((2 * n, 2 * n + 1))
    return rg.from_edges(2 * n + 2, pairs)


def _check_witness_file(op, out, adj, value) -> list[str]:
    text = out["files"].get(op["file"])
    if text is None:
        return ["no witness file written"]
    kind, g6, assignment = parse_coloring(text)
    if g6 is None or rg.from_graph6(g6) != adj:
        return [f"witness names graph {g6}, not the input"]
    k = op["k"]
    if op["kind"] == "mx":
        coloring = dict(assignment)
        if kind != "edge" or len(coloring) != len(assignment) or set(coloring) != set(rg.edges(adj)):
            return ["witness is not an edge coloring of every edge"]
        if len(set(coloring.values())) != value:
            return [f"witness uses {len(set(coloring.values()))} colors, value is {value}"]
        if not rg.edge_coloring_valid(adj, coloring, k):
            return [f"edge witness leaves a {k}-set outside every monochromatic tree"]
        return []
    colors = dict(assignment)
    if kind != "vertex" or len(colors) != len(assignment) or set(colors) != {(v,) for v in range(len(adj))}:
        return ["witness is not a coloring of every vertex"]
    return check_vertex_witness(adj, [colors[(v,)] for v in range(len(adj))], k, value)


def _check_reduce(op, out, adj) -> list[str]:
    n, K = len(adj), op["k"]
    gamma = rg.domination_number(adj)
    problems = []
    if out["stdout"] != ("yes\n" if gamma <= K else "no\n"):
        problems.append(f"answered {out['stdout'].strip()!r} with gamma = {gamma}, K = {K}")
    stanzas = [s for s in out["files"].get(op["file"], "").split("\n\n") if s.strip()]
    certs = [dict(line.split(": ", 1) for line in s.strip().splitlines()) for s in stanzas]
    if [c.get("kind") for c in certs] != ["dominating", "connected-dominating"]:
        return problems + ["certificate file does not hold a dominating and a lifted stanza"]
    dom = {int(t) for t in certs[0]["vertices"].split()}
    lifted = {int(t) for t in certs[1]["vertices"].split()}
    dmask = sum(1 << v for v in dom)
    if not (dom <= set(range(n)) and rg.dominates(adj, dmask) and len(dom) == gamma):
        problems.append(f"{sorted(dom)} is not a minimum dominating set")
    elif lifted != {n + v for v in dom} | {2 * n}:
        problems.append(f"lifted set {sorted(lifted)} is not u(D) + x")
    else:
        g2 = gadget(adj)
        lmask = sum(1 << v for v in lifted)
        if not (rg.dominates(g2, lmask) and rg.reach(g2, lmask, 2 * n) == lmask):
            problems.append("lifted set is not a connected dominating set of the gadget")
    return problems


def check_cli_op(op, out) -> list[str]:
    if out["rc"] != 0:
        return [f"exit status {out['rc']!r}"]
    adj = rg.from_graph6(op["g6"])
    n, m = len(adj), len(rg.edges(adj))
    kind, k = op["kind"], op["k"]
    if kind == "verify":
        return [] if out["stdout"] == "valid\n" else [f"verify printed {out['stdout']!r}"]
    if kind == "reduce":
        return _check_reduce(op, out, adj)
    if kind == "gadget":
        expect = (f"graph6: {rg.to_graph6(gadget(adj))}\nx: {2 * n}\ny: {2 * n + 1}\n"
                  f"u: {' '.join(str(n + i) for i in range(n))}\n")
        return [] if out["stdout"] == expect else [f"gadget printed {out['stdout']!r}"]
    try:
        value = int(out["stdout"])
    except ValueError:
        return [f"printed {out['stdout']!r}, not a value"]
    problems = _check_witness_file(op, out, adj, value)
    if kind == "mx":
        if (k == 3 and value != m - n + 2) or (k == 2 and value < m - n + 2):
            problems.append(f"mx_{k} = {value} breaks the m - n + 2 = {m - n + 2} identity")
    else:  # mvx on a cut-vertex graph: l(T_max) + 1 = n - gamma_c + 1 at every k
        problems += check_values(adj, {k: value, n: value})
    return problems


def judge(workload: str, inputs, outputs, want: str | None) -> list[list[str]]:
    """Problems per operation; an output digest other than ``want`` fails
    every operation of the pass, since the digest does not say which differ."""
    report = check(workload, inputs, outputs)
    digest = output_digest(workload, inputs, outputs)
    if want is not None and digest != want:
        report = [p + [f"output digest {digest[:12]} is not {want[:12]}"] for p in report]
    return report


def _guarded(check_one, *args) -> list[str]:
    try:
        return check_one(*args)
    except (ValueError, KeyError, IndexError, TypeError) as exc:  # malformed output
        return [f"unreadable output: {exc!r}"]


def check(workload: str, inputs, outputs) -> list[list[str]]:
    """Problems per operation: the survey call, each graph or each CLI call."""
    if workload == "survey-n7":
        return [_guarded(check_survey, outputs)]
    if workload == "index-n8":
        return [[f"{g6}: {p}" for p in _guarded(check_index_item, g6, out)]
                for g6, out in zip(inputs, outputs)]
    return [[f"{' '.join(op['argv'])}: {p}" for p in _guarded(check_cli_op, op, out)]
            for op, out in zip(inputs, outputs)]
