"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

The smoke test runs every workload at n=20, untraced and traced, and checks
that each run is correct and reports exactly the metrics BENCHMARK.json
declares.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from checks import McPool  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_smoke_runs_every_workload_correctly():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    spec = _spec()
    assert len(results) == 2 * len(spec["workloads"])
    for i, result in enumerate(results):
        traced = i % 2 == 1
        declared = spec["per_layer" if traced else "end_to_end"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared
        }
        values = {k: v["value"] for k, v in result["metrics"].items()}
        if not traced:
            assert all(v > 0 for v in values.values())
        elif values["ingest.records"]:
            assert values["ingest.dropped"] == 0 and values["ingest.conflicts"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper_mc", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_mc_pool_allows_chance_but_not_bias():
    assert McPool.allowed(5000) == 50  # the C05 rule where it is the larger
    assert McPool.allowed(300) == 6
    rng = np.random.default_rng(0)
    p = rng.dirichlet(np.ones(100))
    walkers = 1_000_000
    good, bad = McPool(), McPool()
    for k in range(3):
        good.add(k, rng.multinomial(walkers, p) / walkers, p, walkers)
        bad.add(k, rng.multinomial(walkers, np.roll(p, 1)) / walkers, p, walkers)
    outside, _, allowed = good.verdict()
    assert outside <= allowed
    outside, _, allowed = bad.verdict()
    assert outside > allowed
