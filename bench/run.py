"""Run reconkit's benchmark: one workload, or all of them.

    python3 bench/run.py --workload tree-sweep --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 40 --out results.json

Each repetition runs in a fresh interpreter (bench/worker.py), one at a
time.  With ``--trace 0`` a run first starts the workload up to ten times,
each only until its inputs are ready.  It then repeats the timed workload
while another repetition still fits in ``--seconds``.  It reports the
end-to-end metrics named in BENCHMARK.json as medians over the repetitions,
with every time adjusted to the reference speed of speed.py.  With
``--trace 1`` it runs one plain and one traced repetition and reports the
per-layer metrics of the traced one.  With ``--workload`` the last line of
output is one JSON object; the lines before it name every metric with its
unit, the environment, and with tracing the full per-function table.
``--all`` runs each workload plain and traced and can write everything,
the environment included, to one JSON file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from speed import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ONLY_RUNS = 10  # at most, and within SETUP_SHARE of --seconds
SETUP_SHARE = 0.125
RUN_LIMIT_S = 170  # a run, worker timeouts included, ends by then
WORKLOADS = ("tree-sweep", "symmetric-unions", "graph-census")


@dataclass
class Rep:
    """What one worker process reported, or why it did not."""

    result: dict | None
    duration_s: float
    error: str | None


def start_worker(workload, size, seed, workdir, timeout, trace=False, setup_only=False) -> Rep:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--size", size, "--seed", str(seed), "--workdir", workdir]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    os.makedirs(workdir)
    # A fixed hash seed keeps dict and set layouts, and so timings, repeatable.
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        return Rep(None, time.monotonic() - start, f"timeout after {timeout:.0f} s")
    duration = time.monotonic() - start
    if proc.returncode != 0:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return Rep(None, duration, f"exit {proc.returncode}: {tail}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return Rep(result, duration, None)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * p / 100)) - 1]


def measure(workload, size, seed, seconds, tmp) -> tuple:
    """Set-up-only starts, then timed repetitions while one more fits."""
    t0 = time.monotonic()

    def left():
        return RUN_LIMIT_S - (time.monotonic() - t0)

    def rep(k, **kw):
        return start_worker(workload, size, seed, os.path.join(tmp, f"rep{k}"), left(), **kw)

    setups = []
    while len(setups) < SETUP_ONLY_RUNS and time.monotonic() - t0 < seconds * SETUP_SHARE:
        setups.append(rep(len(setups), setup_only=True))
    timed = []
    while True:
        timed.append(rep(len(setups) + len(timed)))
        longest = max(r.duration_s for r in timed)
        if timed[-1].error or time.monotonic() - t0 + longest > seconds:
            break
    return setups, timed


def end_to_end(setups, timed) -> tuple:
    """Medians over repetitions of times adjusted to the reference speed.

    Each repetition's times are scaled by speed.REFERENCE_S over its own
    probe time; the unadjusted medians are returned among the notes.
    """
    done = [r.result for r in timed if r.result]
    if not done:
        return None, {}
    scale = [REFERENCE_S / r["probe_s"] for r in done]
    latencies = [x * f for r, f in zip(done, scale) for x in r["latencies_ms"]]
    started = [r.result for r in setups + timed if r.result]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] * REFERENCE_S / r["probe_s"] for r in started),
        "wall_s": statistics.median(r["wall_s"] * f for r, f in zip(done, scale)),
        "graphs_per_s": statistics.median(r["graphs"] / (r["wall_s"] * f) for r, f in zip(done, scale)),
        "graph_p50_ms": percentile(latencies, 50),
        "graph_p95_ms": percentile(latencies, 95),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
    }
    notes = {
        "timed_reps": len(done),
        "setups": len(started),
        "latency_samples": len(latencies),
        "speed_factor_median": statistics.median(scale),
        "unadjusted_setup_s": statistics.median(r["setup_s"] for r in started),
        "unadjusted_wall_s": statistics.median(r["wall_s"] for r in done),
        "unadjusted_wall_s_each": [r["wall_s"] for r in done],
    }
    return metrics, notes


def tally(reps) -> tuple:
    """(attempted, failed, problems) over repetitions that ran the workload.

    A repetition that crashed or timed out fails every operation it would
    have attempted; every worker reports that number, set-up-only ones too.
    """
    per_rep = next((r.result["attempted"] for r in reps if r.result), None)
    attempted = failed = 0
    problems = []
    for r in reps:
        if r.result is None:
            if per_rep is not None:
                attempted += per_rep
                failed += per_rep
            problems.append(r.error)
        elif "wall_s" in r.result:
            attempted += r.result["attempted"]
            failed += r.result["failed"]
            problems += r.result["problems"]
    return attempted, failed, problems


def environment(seed) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(workload, seed, seconds, trace, size, spec) -> dict:
    """One benchmark run; returns the result object plus the lines to print."""
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        if trace:
            t0 = time.monotonic()
            base = start_worker(workload, size, seed, os.path.join(tmp, "plain"), RUN_LIMIT_S)
            traced = start_worker(workload, size, seed, os.path.join(tmp, "traced"),
                                  RUN_LIMIT_S - (time.monotonic() - t0), trace=True)
            reps, wanted = [base, traced], spec["per_layer"]
            found = None
            if base.result and traced.result:
                found = dict(traced.result["layers"])
                found["trace.overhead_s"] = traced.result["wall_s"] - base.result["wall_s"]
            notes = {}
        else:
            setups, reps = measure(workload, size, seed, seconds, tmp)
            wanted = spec["end_to_end"]
            found, notes = end_to_end(setups, reps)
            reps = setups + reps
    attempted, failed, problems = tally(reps)
    lines = [f"workload {workload}  seed={seed}  size={size}  trace={int(trace)}"]
    lines += [f"  problem: {p}" for p in problems]
    if found is None:
        return {"lines": lines, "result": None}
    metrics = {m["name"]: {"value": found[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        lines.append(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    lines.append(f"  fail_ratio {failed}/{attempted} = {failed / max(attempted, 1):.4g}")
    for key, value in notes.items():
        lines.append(f"  {key}: {value}")
    if trace:
        lines.append("  per-function table (calls, s, self_s) and counters:")
        lines += [f"    {k:<44} {v:.6g}" for k, v in sorted(found.items())]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return {"lines": lines, "result": result, "layers": found if trace else None, **notes}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true", help="every workload, plain and traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="toy: small inputs for the benchmark's own tests")
    ap.add_argument("--out", help="with --all: write every result to this JSON file")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "reconkit" / "__init__.py").is_file():
        print(f"no reconkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    env = environment(args.seed)
    print("env: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    if args.workload:
        out = run_workload(args.workload, args.seed, seconds, args.trace, args.size, spec)
        print("\n".join(out["lines"]))
        if out["result"] is None:
            print("no repetition completed", file=sys.stderr)
            return 1
        print(json.dumps(out["result"]))
        return 0

    results = {"env": env, "runs": []}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = run_workload(workload, args.seed, seconds, trace, args.size, spec)
            print("\n".join(out.pop("lines")))
            results["runs"].append({"workload": workload, "trace": trace, **out})
            ok = ok and out["result"] is not None and out["result"]["correct"]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
