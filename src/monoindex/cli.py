"""Command-line front end: one binary, one subcommand per operation family.

Exit codes: 0 on success, 1 when a verification fails (a certificate that
does not check out), 2 on usage or parse errors. Graph inputs may be a file
path or an inline graph6 string; file contents starting with a digit are
read as the edge-list format, anything else as graph6.
"""

from __future__ import annotations

import argparse
import os
import sys

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
    BudgetError,
    Graph,
    Graph6Error,
    enumerate_connected_graphs,
    enumerate_graphs,
    parse_graph,
    to_graph6,
)
from .mvx import diameter_upper_bound, mvx_exact, mvx_via_cut_vertex
from .mx import construct_extremal_mx, mx_exact_bruteforce, mx_k_formula
from .reduction import (
    DominationCertificate,
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
    survey_csv_text,
    write_survey_csv,
)


def _load_graph(source: str) -> Graph:
    if os.path.exists(source):
        with open(source) as fh:
            text = fh.read()
    else:
        text = source
    return parse_graph(text)


def _info(args: argparse.Namespace, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


def _print_with_witness(args: argparse.Namespace, value: int, witness) -> None:
    """Print the value and write the witness certificate, if one was asked for.

    The certificate text is built first, so a witness that cannot be
    serialized fails the command before anything is printed or written.
    """
    text = write_coloring_certificate(witness) if args.witness and witness is not None else None
    print(value)
    if text is not None:
        with open(args.witness, "w") as fh:
            fh.write(text)
        _info(args, f"witness written to {args.witness}")


def _cmd_mx(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    k = args.k
    if args.exact or k == 2:
        if not args.exact:
            raise ValueError("the closed form covers k >= 3 only; pass --exact for k=2")
        kwargs = {} if args.max_edges is None else {"max_edges": args.max_edges}
        result = mx_exact_bruteforce(g, k, **kwargs)
        value, witness = result.value, result.witness
    else:
        value = mx_k_formula(g, k)
        witness = construct_extremal_mx(g)
    _print_with_witness(args, value, witness)
    return 0


def _cmd_mvx(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    k = args.k
    if args.bound:
        _check_index_args(g, k)
        print(diameter_upper_bound(g))
        return 0
    if args.cut_vertex:
        result = mvx_via_cut_vertex(g, k)
    else:
        kwargs = {} if args.max_vertices is None else {"max_vertices": args.max_vertices}
        result = mvx_exact(g, k, **kwargs)
    _print_with_witness(args, result.value, result.witness)
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    answer = decide_ds_via_mvx(g, args.k)
    print("yes" if answer else "no")
    gm = build_gadget(g)
    if args.emit_gadget:
        with open(args.emit_gadget, "w") as fh:
            fh.write(to_graph6(gm.gadget) + "\n")
        _info(args, f"gadget written to {args.emit_gadget}")
    if args.certificates:
        dom = DominationCertificate(minimum_dominating_set(g), "dominating")
        lifted = lift_dominating_set(gm, dom)
        with open(args.certificates, "w") as fh:
            fh.write(write_domination_certificates([dom, lifted]))
        _info(args, f"certificates written to {args.certificates}")
    return 0


def _cmd_gadget(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    gm = build_gadget(g)
    print(f"graph6: {to_graph6(gm.gadget)}")
    print(f"x: {gm.x}")
    print(f"y: {gm.y}")
    print("u:", " ".join(str(gm.u_index[i]) for i in range(g.n)))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(to_graph6(gm.gadget) + "\n")
    return 0


def _cmd_survey(args: argparse.Namespace) -> int:
    if args.k is not None and not 3 <= args.k <= args.n:
        raise ValueError(f"--k {args.k} out of range 3..{args.n}")
    if args.find_f1:
        for g in locate_F1():
            print(to_graph6(g))
        return 0
    records = survey_bounds(args.n, include_n8=args.include_n8, jobs=args.jobs)
    if args.k is not None:
        records = [r for r in records if r.k == args.k]
    if args.csv:
        write_survey_csv(records, args.csv)
        print(f"wrote {len(records)} records to {args.csv}")
    else:
        sys.stdout.write(survey_csv_text(records))
    failures = sum(1 for r in records if r.verdict == "fail")
    return 1 if failures else 0


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
    p.add_argument("--max-edges", type=int, help="override the exact-search edge budget (15)")
    p.add_argument("-v", "--verbose", action="store_true")

    p = sub.add_parser("mvx", help="vertex index of a graph at k")
    p.set_defaults(func=_cmd_mvx)
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", help="exact search (default)")
    mode.add_argument("--cut-vertex", action="store_true", help="fast path for cut-vertex graphs")
    mode.add_argument("--bound", action="store_true", help="print the diameter upper bound")
    p.add_argument("--witness", help="write the witness coloring certificate here")
    p.add_argument("--max-vertices", type=int, help="override the exact-search vertex budget (10)")
    p.add_argument("-v", "--verbose", action="store_true")

    p = sub.add_parser("reduce", help="dominating-set decision through the gadget")
    p.set_defaults(func=_cmd_reduce)
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True, help="dominating-set size threshold K")
    p.add_argument("--emit-gadget", help="write the gadget graph6 here")
    p.add_argument("--certificates", help="write dominating/lifted certificates here")
    p.add_argument("-v", "--verbose", action="store_true")

    p = sub.add_parser("gadget", help="print the reduction gadget and its vertex map")
    p.set_defaults(func=_cmd_gadget)
    p.add_argument("--graph", required=True)
    p.add_argument("--out", help="also write the gadget graph6 here")

    p = sub.add_parser("survey", help="complement-pair bound survey")
    p.set_defaults(func=_cmd_survey)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, help="restrict records to one k")
    p.add_argument("--csv", help="write records here instead of stdout")
    p.add_argument("--find-f1", action="store_true", help="print the located extremal pair")
    p.add_argument("--include-n8", action="store_true", help="allow the slow n=8 survey")
    p.add_argument("--threads", dest="jobs", type=int, default=1,
                   help="worker processes for the index search; output order is unaffected")

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
