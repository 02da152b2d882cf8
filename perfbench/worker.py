"""One timed pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD INPUT.json OUTPUT.json TRACE.json|- WORKDIR

Run from the repository root; imports monoindex from ./src only. A fresh
process per pass keeps every pass cold, as a `monoindex` invocation is:
survey-n7 pays enumeration each time instead of reusing the package's
in-process enumeration cache. Writes the timings, the program's outputs
(checked later by the gate, outside the timed section) and, when a trace
path is given, the per-layer metrics and the raw spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
from time import perf_counter


def survey_pass(_inputs):
    from monoindex import survey

    start = perf_counter()
    records = survey.survey_bounds(7)
    buf = io.StringIO()
    survey.write_survey_csv(records, buf)
    text = buf.getvalue()
    wall = perf_counter() - start
    return wall, [wall], text


def index_pass(g6s):
    from monoindex import graphs, mvx

    items, outputs = [], []
    start = perf_counter()
    for s in g6s:
        t0 = perf_counter()
        try:
            g = graphs.parse_graph6(s)
            results = [mvx.mvx_exact(g, k) for k in range(2, g.n + 1)]
            out = {"values": [r.value for r in results],
                   "witnesses": [list(r.witness.colors) for r in results]}
        except Exception as exc:  # a raising call is a failed operation
            out = {"error": repr(exc)}
        items.append(perf_counter() - t0)
        outputs.append(out)
    return perf_counter() - start, items, outputs


def cli_pass(argvs):
    from monoindex import cli

    items, outputs = [], []
    start = perf_counter()
    for argv in argvs:
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse exits on usage errors
            rc = exc.code
        except Exception as exc:  # a raising call is a failed operation
            rc = f"raised {exc!r}"
        items.append(perf_counter() - t0)
        outputs.append({"rc": rc, "stdout": stdout.getvalue()})
    wall = perf_counter() - start
    for argv, out in zip(argvs, outputs):
        out["files"] = {}
        for flag in ("--witness", "--certificates"):
            if flag in argv:
                path = argv[argv.index(flag) + 1]
                if os.path.exists(path):
                    with open(path) as fh:
                        out["files"][path] = fh.read()
    return wall, items, outputs


PASSES = {"survey-n7": survey_pass, "index-n8": index_pass, "cli-mix": cli_pass}


def main() -> int:
    workload, input_path, output_path, trace_path, workdir = sys.argv[1:6]
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import monoindex.cli

    if os.path.dirname(os.path.abspath(monoindex.__file__)) != os.path.join(src, "monoindex"):
        print(f"monoindex imported from {monoindex.__file__}, not from {src}", file=sys.stderr)
        return 2
    with open(input_path) as fh:
        inputs = json.load(fh)
    tracer = None
    if trace_path != "-":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    os.chdir(workdir)
    wall, items, outputs = PASSES[workload](inputs)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"wall_s": wall, "items_s": items, "rss_kb": rss_kb, "outputs": outputs}
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        with open(trace_path, "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    with open(output_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
