"""Command-line front end: one binary, one subcommand per operation family.

Exit codes: 0 on success, 1 when a verification fails (a certificate that
does not check out, or a survey record outside its bounds), 2 on usage or
parse errors. Graph inputs may be a file path or an inline graph6 string;
file contents starting with a digit are read as the edge-list format,
anything else as graph6. Each output has one route: the survey CSV goes to
stdout, and the files are ``--witness``, ``reduce --certificates`` and
``gadget --out``, each written before anything is printed.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache

from . import __version__
from .coloring import (
    EdgeColoring,
    _check_index_args,
    parse_coloring_certificate,
    verify_mvx_coloring,
    verify_mx_coloring,
    write_coloring_certificate,
)
from .graphs import (
    GRAPH6_MAX_VERTICES,
    BudgetError,
    Graph,
    Graph6Error,
    complement,
    enumerate_connected_graphs,
    enumerate_graphs,
    parse_graph,
    to_graph6,
)
from .mvx import connected_domination_number, diameter_upper_bound, mvx_exact, mvx_via_cut_vertex
from .mx import construct_extremal_mx, mx_exact_bruteforce, mx_k_formula
from .reduction import (
    build_gadget,
    decide_ds_via_mvx,
    lift_dominating_set,
    minimum_dominating_set,
    write_domination_certificates,
)
from .survey import (
    enumerate_coconnected,
    locate_F1,
    survey_bounds,
    write_survey_csv,
)


def _load_graph(source: str) -> Graph:
    if os.path.exists(source):
        with open(source) as fh:
            text = fh.read()
    else:
        text = source
    return parse_graph(text)


def _print_with_witness(args: argparse.Namespace, value: int, witness) -> None:
    """Write the witness certificate, if one was asked for, then print the value.

    The certificate is written first, so a failed write prints nothing.
    """
    if args.witness:
        text = write_coloring_certificate(witness)
        with open(args.witness, "w") as fh:
            fh.write(text)
    print(value)


def _check_witness(args: argparse.Namespace, g: Graph) -> None:
    """A certificate names its graph in graph6: refuse one before the search."""
    if args.witness and g.n > GRAPH6_MAX_VERTICES:
        raise Graph6Error(f"--witness: graph6 handles n <= {GRAPH6_MAX_VERTICES}, got n={g.n}")


def _cmd_mx(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    _check_witness(args, g)
    k = args.k
    if args.exact or k == 2:
        value, witness = mx_exact_bruteforce(g, k)
    else:
        value, witness = mx_k_formula(g, k), construct_extremal_mx(g)
    _print_with_witness(args, value, witness)
    return 0


def _cmd_mvx(args: argparse.Namespace) -> int:
    if args.bound and args.witness:
        raise ValueError("--bound has no witness coloring to write; drop --witness")
    g = _load_graph(args.graph)
    k = args.k
    if args.bound:
        _check_index_args(g, k)
        print(diameter_upper_bound(g))
        return 0
    _check_witness(args, g)
    value, witness = (mvx_via_cut_vertex if args.cut_vertex else mvx_exact)(g, k)
    _print_with_witness(args, value, witness)
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    answer = decide_ds_via_mvx(g, args.k)
    if args.certificates:
        dom = minimum_dominating_set(g)
        with open(args.certificates, "w") as fh:
            fh.write(write_domination_certificates(dom, lift_dominating_set(g, dom)))
    print("yes" if answer else "no")
    return 0


def _cmd_gadget(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    g6 = to_graph6(build_gadget(g))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(g6 + "\n")
    print(f"graph6: {g6}")
    print(f"x: {2 * g.n}")
    print(f"y: {2 * g.n + 1}")
    print("u:", " ".join(str(g.n + i) for i in range(g.n)))
    return 0


def _survey_summary(n: int, records) -> str:
    """Survey size, bound violations, and per k the sums, bounds and minimizers."""
    failures = [f"  FAIL {r}\n" for r in records if r.verdict == "fail"]
    text = f"n={n}: {len({r.g6 for r in records})} co-connected graphs, {len(records)} records\n"
    text += f"bound violations: {len(failures)}\n" + "".join(failures)
    for k in sorted({r.k for r in records}):
        ks = [r for r in records if r.k == k]
        lo, hi = min(r.sum for r in ks), max(r.sum for r in ks)
        text += f"k={k}: sum in [{lo}, {hi}]  lower bound {ks[0].lower_bound or '-'}"
        text += f"  upper bound {ks[0].upper_bound or '-'}\n       minimum attained by "
        text += " ".join(sorted({r.g6 for r in ks if r.sum == lo})) + "\n"
    return text


def _cmd_survey(args: argparse.Namespace) -> int:
    if args.k is not None and not 3 <= args.k <= args.n:
        raise ValueError(f"--k {args.k} out of range 3..{args.n}")
    if args.find_f1:
        if args.n != 6:
            raise ValueError(f"--find-f1 searches six-vertex graphs; needs --n 6, got --n {args.n}")
        if args.k is not None:
            raise ValueError("--find-f1 prints graph6 lines; it takes no --k")
        found = locate_F1()
        print(f"candidates: {len(found)}", file=sys.stderr)
        for g in found:
            gbar = complement(g)
            a, b = ([mvx_exact(h, k).value for k in range(3, 7)] for h in (g, gbar))
            print(to_graph6(g))
            sys.stderr.write(
                f"{to_graph6(g)}  edges={list(g.edges)}\n  gamma_c={connected_domination_number(g)}"
                f"  gamma_c(complement)={connected_domination_number(gbar)}"
                f"  pair sums k=3..6: {[x + y for x, y in zip(a, b)]}\n"
            )
        return 0
    records = survey_bounds(args.n)
    if args.k is not None:
        records = [r for r in records if r.k == args.k]
    write_survey_csv(records, sys.stdout)
    sys.stderr.write(_survey_summary(args.n, records))
    return 1 if any(r.verdict == "fail" for r in records) else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    with open(args.coloring) as fh:
        cert = parse_coloring_certificate(fh.read())
    if isinstance(cert, EdgeColoring):
        ok = verify_mx_coloring(cert, args.k)
    else:
        ok = verify_mvx_coloring(cert, args.k)
    print("valid" if ok else "invalid")
    return 0 if ok else 1


def _cmd_enumerate(args: argparse.Namespace) -> int:
    n = args.n
    if args.coconnected:
        graphs = enumerate_coconnected(n)
    elif args.all_graphs:
        graphs = enumerate_graphs(n)
    else:
        graphs = enumerate_connected_graphs(n)
    for g in graphs:
        print(to_graph6(g))
    return 0


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monoindex",
        description="Monochromatic connectivity indices of small graphs",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mx", help="edge index of a graph at k")
    p.set_defaults(func=_cmd_mx)
    p.add_argument("--graph", required=True, help="path or inline graph6")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--exact", action="store_true", help="exact search instead of the closed form")
    p.add_argument("--witness", help="write the witness coloring certificate here")

    p = sub.add_parser("mvx", help="vertex index of a graph at k")
    p.set_defaults(func=_cmd_mvx)
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--cut-vertex", action="store_true", help="fast path for cut-vertex graphs")
    mode.add_argument("--bound", action="store_true", help="print the diameter upper bound")
    p.add_argument("--witness", help="write the witness coloring certificate here")

    p = sub.add_parser("reduce", help="dominating-set decision through the gadget")
    p.set_defaults(func=_cmd_reduce)
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True, help="dominating-set size threshold K")
    p.add_argument("--certificates", help="write dominating/lifted certificates here")

    p = sub.add_parser("gadget", help="print the reduction gadget and its vertex map")
    p.set_defaults(func=_cmd_gadget)
    p.add_argument("--graph", required=True)
    p.add_argument("--out", help="also write the gadget graph6 here")

    p = sub.add_parser("survey", help="complement-pair bound survey")
    p.set_defaults(func=_cmd_survey)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, help="restrict records to one k")
    p.add_argument("--find-f1", action="store_true", help="print the located extremal pair")

    p = sub.add_parser("verify", help="check a coloring certificate at k")
    p.set_defaults(func=_cmd_verify)
    p.add_argument("--coloring", required=True, help="certificate file")
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("enumerate", help="list small graphs as graph6, one per line")
    p.set_defaults(func=_cmd_enumerate)
    p.add_argument("--n", type=int, required=True)
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--coconnected", action="store_true", help="graph and complement connected")
    kind.add_argument("--all", dest="all_graphs", action="store_true", help="drop the connectivity filter")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (Graph6Error, BudgetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
