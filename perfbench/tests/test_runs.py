"""End-to-end runs of the benchmark command.

Each run uses ``--seconds 0``, so it executes exactly the fixed prefix of
operations that the deterministic counters and the answer digest cover.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import catalog
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def run(workload, seed, trace, hashseed="0", cwd=ROOT, script=None):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = subprocess.run(
        [sys.executable, str(script or BENCH / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0", "--trace",
         str(trace)], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=600)
    return proc


def result(workload, seed, trace, hashseed="0"):
    proc = run(workload, seed, trace, hashseed)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(OUT / f"{workload}-seed{seed}-trace{trace}.json") as fh:
        return last, json.load(fh)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_counters_and_digest_repeat_at_one_seed(workload):
    last_a, a = result(workload, 5, 1, hashseed="1")
    last_b, b = result(workload, 5, 1, hashseed="2")
    assert a["counters"] == b["counters"]
    assert a["digest"] == b["digest"]
    assert last_a["correct"] and last_b["correct"]
    assert set(last_a["metrics"]) == {m.name for m in catalog.PER_LAYER}
    # The untraced run gives the same answers and the same program counters.
    last_c, c = result(workload, 5, 0, hashseed="3")
    assert c["digest"] == a["digest"]
    assert c["counters"] == {k: v for k, v in a["counters"].items()
                             if k in c["counters"]}
    assert set(last_c["metrics"]) == {m.name for m in catalog.GATED}
    assert last_c["correct"] and last_c["failed"] == 0


def test_seed_changes_inputs_but_not_their_shape():
    for w in WORKLOADS.values():
        a, b = w.generate(1, 40), w.generate(2, 40)
        # One map; the seed drives the stream of operations.
        assert (a.obstacles, a.sites) == (b.obstacles, b.sites)
        assert [op.kind for op in a.ops] == [op.kind for op in b.ops]
        assert all(x != y for x, y in zip(a.ops, b.ops))
        assert w.generate(1, 40) == a
        # A longer stream extends the shorter one.
        assert w.generate(1, 80).ops[:len(a.ops)] == a.ops


def test_benchmark_json_matches_catalogue():
    with open(ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    assert doc == catalog.benchmark_json(WORKLOADS)
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert "setup_s" in [m["name"] for m in doc["end_to_end"]]


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("lattice-kinds", 1, 0, cwd=tmp_path,
               script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
