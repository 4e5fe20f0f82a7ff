"""Tests of the benchmark itself: toy-size runs of every workload, exact
repetition of traced counts, the missing-source exit, and self-time
arithmetic on nested spans."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from spans import Tracer, self_times, summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["tree-sweep", "symmetric-unions", "graph-census"]


def toy_run(workload, trace, seed=3, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
           "--size", "toy", "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_run_reports_every_metric(workload, trace):
    proc = toy_run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_all_writes_every_run(tmp_path):
    out = tmp_path / "results.json"
    cmd = [sys.executable, str(HERE / "run.py"), "--all", "--size", "toy",
           "--seconds", "1", "--out", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(out.read_text())
    assert set(results["env"]) == {"commit", "python", "nproc", "cpu", "seed"}
    runs = [(r["workload"], r["trace"]) for r in results["runs"]]
    assert runs == [(w, t) for w in WORKLOADS for t in (0, 1)]
    assert all(r["result"]["correct"] for r in results["runs"])


def test_traced_counts_repeat_exactly():
    def counts(seed):
        proc = toy_run("tree-sweep", 1, seed=seed)
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}

    first = counts(5)
    assert first["recon.extensions.pairs_tried"] > 0
    assert counts(5) == first


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = toy_run("tree-sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")


def test_self_time_of_nested_spans():
    # A [0, 10] holds B [1, 4] and C [5, 9]; C holds D [6, 7].
    parent = [-1, 0, 0, 2]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    assert self_times(parent, start, end) == [3.0, 3.0, 3.0, 1.0]


def test_summary_counts_recursion_once():
    tracer = Tracer()
    f = tracer.name_id("m.f")
    g = tracer.name_id("m.g")
    outer = tracer.open(f)
    inner = tracer.open(f)
    leaf = tracer.open(g)
    for idx in (leaf, inner, outer):
        tracer.close(idx)
    tracer.start = array("d", [0.0, 2.0, 3.0])
    tracer.end = array("d", [10.0, 8.0, 4.0])
    tracer.calls = [2, 1]
    out = summary(tracer)
    assert out["m.f.calls"] == 2
    assert out["m.f.s"] == 10.0  # the inner call lies inside the outer one
    assert out["m.f.self_s"] == (10.0 - 6.0) + (6.0 - 1.0)
    assert out["m.g.s"] == out["m.g.self_s"] == 1.0
