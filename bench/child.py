"""One workload in its own process: set up, run passes, check outputs.

Started by ``bench/run.py``; prints one JSON object on its last stdout line.

    python3 bench/child.py --workload NAME --seed N --seconds S --mode MODE

``setup`` only measures set-up (imports plus building the inputs) and exits;
``measure`` runs untraced passes; ``trace`` runs one untimed warm-up pass,
then alternates untraced and traced passes. Timed passes repeat while the
next one is expected to end within ``--seconds`` of the first starting;
``measure`` runs at least one and ``trace`` at least one of each kind.
"""

import time

_T0 = time.perf_counter()

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Address-space cap: a detector that blows up raises MemoryError inside its
# operation, which then counts as failed, instead of exhausting the machine.
ADDRESS_SPACE_CAP = 1536 * 2**20


def _import_library():
    sys.path.insert(0, str(SRC))
    import networkx
    import numpy
    import scipy

    import spexlab

    if Path(spexlab.__file__).resolve().parent != SRC / "spexlab":
        raise ImportError(f"spexlab imported from {spexlab.__file__}, not from {SRC}")
    import workloads

    return workloads, {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
    }


def _run_pass(workload, inputs, tracer=None) -> dict:
    """One pass, timed; traced when a tracer is given."""
    if tracer is None:
        start = time.perf_counter()
        p = workload.run(inputs)
        return {"pass": p, "wall_s": time.perf_counter() - start, "traced": False}
    tracer.install()
    pass_id = tracer.begin_pass()
    try:
        start = time.perf_counter()
        p = workload.run(inputs)
        wall_s = time.perf_counter() - start
    finally:
        tracer.end_pass(pass_id)
        tracer.uninstall()
    spans, counters = tracer.take()
    return {"pass": p, "wall_s": wall_s, "traced": True,
            "id": pass_id, "spans": spans, "counters": counters}


def _pass_record(W, checks, r: dict) -> dict:
    p = r["pass"]
    return {
        "traced": r["traced"],
        "wall_s": r["wall_s"],
        "failed": W.failed_ops(checks, p),
        "errors": p.errors,
        "indeterminates": W.summed(p, "indeterminates"),
        "signature": W.digest(json.dumps([p.outputs, sorted(p.errors)], sort_keys=True)),
    }


def _layer_metrics(W, p, spans, counters) -> dict:
    out = tracing.layer_totals(spans)
    for name in tracing.COUNTERS:
        out[name] = counters.get(name, 0)
    children = W.summed(p, "children")
    out["search.children"] = children
    out["search.emitted"] = W.summed(p, "emitted")
    out["search.duplicate_ratio"] = W.summed(p, "duplicate") / children if children else 0.0
    return out


def _write_spans(name: str, traced_spans) -> Path:
    """All spans of the traced passes, one JSON array per line."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{name}.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"fields": ["pass", "id", "parent", "name", "start", "end"]}) + "\n")
        for pass_id, spans in traced_spans:
            for sid, parent, span_name, start, end in spans:
                fh.write(json.dumps([pass_id, sid, parent, span_name, start, end]) + "\n")
    return path


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = ap.parse_args()
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))

    W, facts = _import_library()
    workload = W.WORKLOADS[args.workload]
    inputs = workload.build(args.seed)
    result = {"setup_s": time.perf_counter() - _T0, "facts": facts}
    if args.mode == "setup":
        print(json.dumps(result))
        return

    tracer = tracing.Tracer() if args.mode == "trace" else None
    runs = []
    if tracer is not None:
        # The first pass in a process carries one-time costs; in a traced
        # run it is checked but not timed, so that both kinds of timed pass
        # run warm and their difference is the tracing overhead.
        runs.append(_run_pass(workload, inputs) | {"wall_s": None})
    loop_start = time.perf_counter()
    timed = 0
    while True:
        r = _run_pass(workload, inputs, tracer if timed % 2 else None)
        runs.append(r)
        timed += 1
        elapsed = time.perf_counter() - loop_start
        need_more = tracer is not None and timed < 2
        if not need_more and elapsed + r["wall_s"] > args.seconds:
            break

    checks = workload.checks(inputs)
    result["passes"] = [_pass_record(W, checks, r) for r in runs]
    result["attempted_per_pass"] = len(checks)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        traced = [r for r in runs if r["traced"]]
        untraced = [r["wall_s"] for r in runs if not r["traced"] and r["wall_s"] is not None]
        result["layers"] = [_layer_metrics(W, r["pass"], r["spans"], r["counters"])
                            for r in traced]
        result["trace_overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(untraced))
        result["spans_file"] = str(_write_spans(
            args.workload, [(r["id"], r["spans"]) for r in traced]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
