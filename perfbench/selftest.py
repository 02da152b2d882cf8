"""Self-test of the correctness gate: real outputs pass, corrupted ones fail.

    python3 perfbench/selftest.py      (from the repository root)

Runs one pass of each workload on the default seed's first sample, then
judges the genuine outputs and corrupted copies: a witness that no longer
covers every k-set, a value off by one, a changed survey CSV row and a
corrupted edge-coloring certificate. Corrupted witnesses are confirmed
invalid by the package's own verifier before the gate sees them, so the
test also shows the gate's checker agreeing with the library. Exits 0 when
every genuine output passes and every corruption raises fail_frac above 0.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import tempfile

import gate
import run


def fail_frac(workload, inputs, outputs) -> float:
    want = gate.expected_digest(workload, gate.DEFAULT_SEED, 0)
    report = gate.judge(workload, inputs, outputs, want)
    return sum(1 for p in report if p) / len(report)


def invalid_swap(g6, colors, k):
    """Swap two vertex colors so that the library itself rejects the witness."""
    from monoindex.coloring import VertexColoring, verify_mvx_coloring
    from monoindex.graphs import parse_graph6

    g = parse_graph6(g6)
    for u in range(len(colors)):
        for v in range(u + 1, len(colors)):
            swapped = list(colors)
            swapped[u], swapped[v] = swapped[v], swapped[u]
            if not verify_mvx_coloring(VertexColoring(g, tuple(swapped)), k):
                return swapped
    return None


def invalid_recolor(certificate: str, k: int) -> str:
    """Move one edge to another used color so that the library rejects the witness."""
    from monoindex.coloring import (
        EdgeColoring, parse_coloring_certificate, verify_mx_coloring, write_coloring_certificate)

    ec = parse_coloring_certificate(certificate)
    for idx, old in enumerate(ec.colors):
        for color in sorted(set(ec.colors) - {old}):
            colors = list(ec.colors)
            colors[idx] = color
            moved = EdgeColoring(ec.graph, tuple(colors))
            if not verify_mx_coloring(moved, k):
                return write_coloring_certificate(moved)
    return certificate


def main() -> int:
    sys.path.insert(0, os.path.abspath("src"))
    os.makedirs(run.RUN_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=os.path.abspath(run.RUN_DIR))
    outputs = {}
    try:
        for index, workload in enumerate(run.WORKLOADS):
            gate_inputs, program_inputs = run.make_inputs(workload, gate.DEFAULT_SEED, 0)
            payload = os.path.join(tmp, f"input-{workload}.json")
            with open(payload, "w") as fh:
                json.dump(program_inputs, fh)
            outputs[workload] = (gate_inputs, run.run_pass(workload, payload, tmp, index, "-")["outputs"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    cases = []  # (name, workload, gate inputs, outputs, should fail)
    for workload, (inputs, outs) in outputs.items():
        cases.append((f"{workload}: genuine outputs", workload, inputs, outs, False))

    g6s, outs = outputs["index-n8"]
    bad = copy.deepcopy(outs)
    for i, out in enumerate(bad):
        k_index = len(out["witnesses"]) - 2  # k = n - 1
        swapped = invalid_swap(g6s[i], out["witnesses"][k_index], k_index + 2)
        if swapped is not None:
            out["witnesses"][k_index] = swapped
            break
    cases.append(("index-n8: witness with two vertex colors swapped", "index-n8", g6s, bad, True))
    for delta in (1, -1):
        bad = copy.deepcopy(outs)
        bad[0]["values"][1] += delta
        cases.append((f"index-n8: mvx_3 of one graph off by {delta:+d}", "index-n8", g6s, bad, True))

    _, text = outputs["survey-n7"]
    lines = text.split("\n")
    row = lines[1].split(",")
    row[4], row[6] = str(int(row[4]) - 1), str(int(row[6]) - 1)  # mvx_g and sum, kept consistent
    changed = "\n".join(lines[:1] + [",".join(row)] + lines[2:])
    cases.append(("survey-n7: one CSV row changed", "survey-n7", None, changed, True))

    ops, outs = outputs["cli-mix"]
    bad = copy.deepcopy(outs)
    i = next(i for i, op in enumerate(ops) if op["kind"] == "mx")
    path = ops[i]["file"]
    bad[i]["files"][path] = invalid_recolor(bad[i]["files"][path], ops[i]["k"])
    cases.append(("cli-mix: edge witness with one edge moved to another color", "cli-mix", ops, bad, True))
    bad = copy.deepcopy(outs)
    bad[i]["stdout"] = f"{int(bad[i]['stdout']) + 1}\n"
    cases.append(("cli-mix: mx value off by +1", "cli-mix", ops, bad, True))

    ok = True
    for name, workload, inputs, outs, should_fail in cases:
        frac = fail_frac(workload, inputs, outs)
        good = (frac > 0) == should_fail
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} fail_frac = {frac:.4g}  {name}")
    print("gate self-test passed" if ok else "gate self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
