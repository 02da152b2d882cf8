"""Benchmark of the monoindex package: three single-process workloads.

    python3 perfbench/run.py --workload survey-n7|index-n8|cli-mix \
        --seed N --seconds S --trace 0|1

Run from the repository root. Each timed pass runs in a fresh interpreter
(perfbench/worker.py), one at a time, until S seconds of passes are done.
Inputs are made from the seed before timing; every output is checked by
the gate after its pass. With --trace 0 the last stdout line reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced passes
on one input sample and reports the per-layer metrics, including the
tracing overhead. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import gate
import inputs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("survey-n7", "index-n8", "cli-mix")
RUN_DIR = ".perfbench-run"
MIN_PASSES = 3       # untraced run
MIN_TRACED = 4       # traced run: untraced and traced passes alternate
SETUP_SPAWNS = 9
DEADLINE_S = 100     # start no new pass after this much time
WORKER_TIMEOUT_S = 60


class BenchError(RuntimeError):
    """The benchmark could not measure; it prints no result."""


def measure_setup(env) -> list[float]:
    """Wall time of fresh interpreters importing monoindex.cli."""
    cmd = [sys.executable, "-c", "import monoindex.cli"]
    subprocess.run(cmd, env=env, check=True)  # unmeasured: writes bytecode caches once
    times = []
    for _ in range(SETUP_SPAWNS):
        start = perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(perf_counter() - start)
    return times


def make_inputs(workload: str, seed: int, sample: int):
    """(what the gate needs, what the program receives) for one sample."""
    if workload == "survey-n7":
        return None, None
    if workload == "index-n8":
        g6s = inputs.index_sample(seed, sample)
        return g6s, g6s
    ops = inputs.cli_sample(seed, sample)
    return ops, [op["argv"] for op in ops]


def run_pass(workload: str, payload: str, tmp: str, index: int, trace_path: str) -> dict:
    out_path = os.path.join(tmp, f"out{index}.json")
    workdir = os.path.join(tmp, f"pass{index}")
    os.mkdir(workdir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, payload, out_path, trace_path, workdir]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {index} of {workload} ran over {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker for pass {index} of {workload} exited {proc.returncode}")
    with open(out_path) as fh:
        result = json.load(fh)
    shutil.rmtree(workdir)
    os.remove(out_path)
    return result


def measure(workload: str, seed: int, seconds: float, traced: bool, tmp: str) -> dict:
    samples: dict[int, tuple] = {}
    first_digest: dict[int, str] = {}
    checked: dict[tuple, list[list[str]]] = {}  # identical outputs are judged once
    passes, problems = [], []
    attempted = failed = 0
    trace_path = os.path.abspath(os.path.join(RUN_DIR, "trace", f"{workload}-seed{seed}.json"))
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    measured = 0.0
    start = perf_counter()
    index = 0
    while (index < (MIN_TRACED if traced else MIN_PASSES) or measured < seconds) \
            and perf_counter() - start < DEADLINE_S:
        is_traced = traced and index % 2 == 1
        sample = 0 if traced else index % inputs.SAMPLES
        if sample not in samples:
            gate_inputs, program_inputs = make_inputs(workload, seed, sample)
            payload = os.path.join(tmp, f"input{sample}.json")
            with open(payload, "w") as fh:
                json.dump(program_inputs, fh)
            samples[sample] = (gate_inputs, payload)
        gate_inputs, payload = samples[sample]
        t0 = perf_counter()
        result = run_pass(workload, payload, tmp, index, trace_path if is_traced else "-")
        measured += perf_counter() - t0
        result["traced"] = is_traced

        outputs = result.pop("outputs")
        # a pass must reproduce the recorded digest, or else the first pass of its sample
        digest = gate.output_digest(workload, gate_inputs, outputs)
        want = gate.expected_digest(workload, seed, sample) or first_digest.setdefault(sample, digest)
        if (digest, want) not in checked:
            checked[digest, want] = gate.judge(workload, gate_inputs, outputs, want)
        report = checked[digest, want]
        if is_traced:
            base = next((p["layers"] for p in passes if p["traced"]), result["layers"])
            moved = [k for k, v in result["layers"].items() if isinstance(v, int) and v != base[k]]
            if moved:
                report = [p + [f"pass {index}: work counts changed: {moved}"] for p in report]
        attempted += len(report)
        failed += sum(1 for p in report if p)
        problems += [msg for p in report for msg in p]
        passes.append(result)
        index += 1
    return {"passes": passes, "attempted": attempted, "failed": failed, "problems": problems}


def end_to_end(run: dict, setup: list[float]) -> tuple[dict, list[str]]:
    untraced = run["passes"]
    per_pass = len(untraced[0]["items_s"])
    items_ms = [t * 1e3 for p in untraced for t in p["items_s"]]
    level = tracing.tail_level(per_pass)
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in untraced), "s"),
        "item_ms_p50": (statistics.median(items_ms), "ms"),
        "item_ms_tail": (tracing.percentile(items_ms, level), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(p["rss_kb"] * 1024 / 1e6 for p in untraced), "MB"),
    }
    notes = {
        "wall_s": f"median of {len(untraced)} passes",
        "item_ms_p50": f"median of {len(items_ms)} items ({per_pass} per pass)",
        "item_ms_tail": f"p{level:g} of {len(items_ms)} items; p{level:g} is the highest percentile "
                        f"with >= 10 of the {per_pass} distinct items of a pass beyond it",
        "setup_s": f"median of {len(setup)} fresh interpreters importing monoindex.cli",
        "peak_rss_mb": f"median ru_maxrss of {len(untraced)} worker processes",
    }
    lines = [f"{name} = {value:.6g} {unit}  ({notes[name]})" for name, (value, unit) in metrics.items()]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def layer_unit(name: str) -> str:
    if "_ms_" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("per_call"):
        return "count/call"
    return "count"


def per_layer(run: dict) -> tuple[dict, list[str]]:
    traced = [p for p in run["passes"] if p["traced"]]
    plain = [p for p in run["passes"] if not p["traced"]]
    metrics = {}
    for name, first in traced[0]["layers"].items():
        # counts repeat exactly (the gate fails a pass where they do not)
        metrics[name] = first if isinstance(first, int) else statistics.median(
            p["layers"][name] for p in traced)
    metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                   - statistics.median(p["wall_s"] for p in plain))
    lines = [f"{name} = {value:.6g} {layer_unit(name)}" for name, value in metrics.items()]
    lines.append(f"(median of {len(traced)} traced passes; overhead is traced minus untraced wall_s "
                 f"over {len(plain)} untraced passes of the same input)")
    if metrics["partitions.streams"] == metrics["mvx.levels"] + metrics["mx.levels"]:
        lines.append("partitions.streams == mvx.levels + mx.levels")
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=gate.DEFAULT_SEED,
                        help=f"input seed; {gate.DEFAULT_SEED} is pinned by digests, "
                             f"{gate.HOLDOUT_SEED} is the holdout seed for claims")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "monoindex", "__init__.py")):
        print("error: run from the repository root; src/monoindex is missing", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")]))
    os.makedirs(RUN_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.abspath(RUN_DIR))
    try:
        if args.trace:
            run = measure(args.workload, args.seed, args.seconds, True, tmp)
            metrics, lines = per_layer(run)
        else:
            setup = measure_setup(env)
            run = measure(args.workload, args.seed, args.seconds, False, tmp)
            metrics, lines = end_to_end(run, setup)
    except (BenchError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    attempted, failed = run["attempted"], run["failed"]
    for msg in run["problems"][:20]:
        print(f"gate: {msg}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(run['passes'])} passes, {attempted} operations checked")
    print(f"fail_frac = {failed / attempted:.6g}  ({failed} of {attempted} operations failed)")
    for line in lines:
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
