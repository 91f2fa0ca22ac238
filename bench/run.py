"""spexlab benchmark: four workloads, end-to-end metrics, per-layer trace.

Run from the repository root:

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own child process (``bench/child.py``), one at a
time, with ``SPEXLAB_THREADS`` removed from its environment so that the
library's defaults apply. With ``--trace 0`` it prints the end-to-end
metrics of every workload; with ``--trace 1`` the per-layer metrics of a
traced run and the tracing overhead. The last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only when every output check passed.
What the workloads and metrics are, and why, is in ``bench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("verify-spectral", "verify-structure", "search-exhaustive", "large-graphs")
DEFAULT_SECONDS = 28
# Set-up-only processes per run, besides the workload's own; half run before
# the workload child and half after, so the median spans the run.
SETUP_PROBES = 4
TIME_LIMIT_S = 170  # per workload, including set-up probes
TAIL_SAMPLES = 10  # a tail percentile is printed once this many passes lie beyond it

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
EXACT_COUNTS = ("search.children", "search.emitted", "spectral.compare.indeterminate")


def per_layer_units() -> dict[str, str]:
    from tracing import COUNTERS, LAYERS

    units = {}
    for layer in LAYERS:
        units[layer + ".calls"] = "count"
        units[layer + ".self_s"] = "s"
    units.update(dict.fromkeys(COUNTERS, "count"))
    units.update({"search.children": "count", "search.emitted": "count",
                  "search.duplicate_ratio": "ratio", "trace.overhead_s": "s"})
    return units


class ChildError(RuntimeError):
    pass


def run_child(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SPEXLAB_THREADS"}
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise ChildError(f"{workload}: {mode} child exceeded the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{workload}: {mode} child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least TAIL_SAMPLES values beyond it,
    once that percentile is at least the median."""
    n = len(values)
    if n < 2 * TAIL_SAMPLES:
        return None
    q = 100 * (n - TAIL_SAMPLES) // n
    return q, sorted(values)[n - TAIL_SAMPLES - 1]


def source_digest() -> str:
    """Digest of the library and benchmark sources, which fix the counts."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "spexlab").glob("*.py"), *HERE.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_drift(workload: str, seed: int, counts: dict) -> list[str]:
    """Exact counts of this run against the last traced run of the same
    workload, seed, library and benchmark sources; returns the names that differ."""
    path = OUT / "counts" / f"{workload}-seed{seed}-{source_digest()}.json"
    drift = []
    if path.exists():
        before = json.loads(path.read_text())
        drift = sorted(k for k in counts if before.get(k) != counts[k])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True))
    return drift


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload's metrics, check results and run facts."""
    deadline = time.monotonic() + TIME_LIMIT_S
    probes = 0 if trace else SETUP_PROBES // 2
    setups = [run_child(workload, seed, seconds, "setup", deadline)["setup_s"]
              for _ in range(probes)]
    res = run_child(workload, seed, seconds, "trace" if trace else "measure", deadline)
    setups.append(res["setup_s"])
    setups += [run_child(workload, seed, seconds, "setup", deadline)["setup_s"]
               for _ in range(probes)]
    passes = res["passes"]
    attempted = res["attempted_per_pass"] * len(passes)
    failed = sum(len(p["failed"]) for p in passes)
    problems = [f"pass {i}: {name} failed" + (f" ({p['errors'][name]})" if name in p["errors"] else "")
                for i, p in enumerate(passes) for name in p["failed"]]
    if len({p["signature"] for p in passes}) > 1:
        problems.append("outputs differ between passes" + (" (traced vs untraced)" if trace else ""))
    walls = [p["wall_s"] for p in passes if not p["traced"] and p["wall_s"] is not None]
    out = {
        "workload": workload,
        "seed": seed,
        "facts": res["facts"],
        "passes": len(walls),
        "pass_wall_s": walls,
        "attempted": attempted,
        "failed": failed,
        "indeterminates": max(p["indeterminates"] for p in passes),
        "metrics": {},
    }
    if trace:
        layers = res["layers"]
        exact = [k for k in layers[0]
                 if k.endswith((".calls", ".iterations")) or k in EXACT_COUNTS]
        for k in exact:
            if len({layer[k] for layer in layers}) > 1:
                problems.append(f"count drift between traced passes: {k}")
        problems += [f"count drift against an earlier run: {k}"
                     for k in check_drift(workload, seed, {k: layers[0][k] for k in exact})]
        metrics = {k: statistics.median(layer[k] for layer in layers) for k in layers[0]}
        metrics["trace.overhead_s"] = res["trace_overhead_s"]
        out["traced_passes"] = len(layers)
        out["spans_file"] = res["spans_file"]
    else:
        metrics = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups),
                   "peak_rss_mb": res["peak_rss_mb"]}
        out["setup_samples"] = setups
        out["tail"] = tail_percentile(walls)
    out["metrics"] = metrics
    out["problems"] = problems
    return out


def report(r: dict, units: dict[str, str], trace: bool) -> None:
    w = r["workload"]
    facts = " ".join(f"{k}={v}" for k, v in r["facts"].items())
    print(f"[{w}] seed={r['seed']} passes={r['passes']} {facts}")
    if trace:
        print(f"[{w}] traced passes={r['traced_passes']} spans in {r['spans_file']}")
    for name, value in r["metrics"].items():
        print(f"{w:18} {name:36} {value:<14.6g} {units[name]}")
    if not trace:
        tail = r["tail"]
        tail_text = (f"p{tail[0]} {tail[1]:.6g} s" if tail
                     else f"n/a (needs {2 * TAIL_SAMPLES} passes)")
        print(f"{w:18} {'wall_s tail':36} {tail_text}")
        print(f"{w:18} {'indeterminates':36} {r['indeterminates']:<14d} count")
        print(f"{w:18} {'error_rate':36} {r['failed'] / r['attempted']:<14.6g} ratio"
              f"  ({r['failed']} of {r['attempted']} operations failed)")
    for problem in r["problems"]:
        print(f"{w:18} CHECK FAILED: {problem}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "spexlab" / "__init__.py").is_file():
        print(f"error: no spexlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    units = per_layer_units() if trace else END_TO_END_UNITS
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for w in names:
            results.append(run_workload(w, args.seed, args.seconds, trace))
            report(results[-1], units, trace)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(results, indent=1))
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else r["workload"] + "."
        for name, value in r["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    correct = not any(r["problems"] or r["failed"] or r["indeterminates"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
