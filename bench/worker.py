"""One repetition of one workload, in a fresh interpreter.

Every repetition gets its own process because reconkit's lru caches are
process-global: a second repetition in the same process would find them
warm.  reconkit is imported from ``src/`` beside this directory, not from
an installed copy.

    python3 bench/worker.py --workload tree-sweep --size full --seed 1 \\
        --workdir DIR [--trace] [--setup-only]

Prints one JSON object.  ``ready`` is the CLOCK_MONOTONIC time at which the
inputs were ready; the parent subtracts its own spawn time from it.
``probe_s`` is the speed probe's time (see speed.py), taken after set-up
and, for a timed repetition, again after the timed phase.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--size", choices=("full", "toy"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import reconkit

    if Path(reconkit.__file__).resolve().parent.parent != SRC:
        print(f"reconkit imported from {reconkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import speed
    import workloads

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    setup, run, check, attempted = workloads.WORKLOADS[args.workload]
    inputs = setup(args.size, args.seed, args.workdir)
    ready = time.monotonic()
    before = speed.probe_s()
    if args.setup_only:
        print(json.dumps({"ready": ready, "probe_s": before, "attempted": attempted(args.size)}))
        return 0

    latencies_ms: list = []
    t0 = time.perf_counter()
    output = run(inputs, latencies_ms)
    wall_s = time.perf_counter() - t0
    after = speed.probe_s()
    failed, graphs, problems = check(args.size, output)
    result = {
        "ready": ready,
        "probe_s": (before + after) / 2,
        "wall_s": wall_s,
        "graphs": graphs,
        "latencies_ms": latencies_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted(args.size),
        "failed": failed,
        "problems": problems,
    }
    if tracer is not None:
        result["layers"] = spans.summary(tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
