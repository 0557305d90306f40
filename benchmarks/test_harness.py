"""Self-test of the benchmark harness on the tiny `smoke` job list.

    python3 -m pytest benchmarks/test_harness.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
import workloads

ROOT = os.path.dirname(run.HERE)
SRC = os.path.join(ROOT, "src")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    CONTRACT = json.load(fh)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(*args) -> dict:
    proc = _bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().split("\n")[-1])


def _round(tmp_path, seed: int, name: str) -> tuple[str, dict, list]:
    """One untraced smoke round: its directory, record and oracle verdicts."""
    round_dir = str(tmp_path / name)
    result = run.run_round("smoke", seed, False, round_dir, SRC, time.monotonic() + 120)
    assert "crash" not in result, result
    return round_dir, result, run.check_round(*workloads.make_inputs("smoke", seed), result,
                                             round_dir)


def test_untraced_run_prints_every_end_to_end_metric_with_its_unit():
    res = _result("--seed", "1", "--seconds", "1", "--trace", "0")
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_run_reports_every_per_layer_metric_and_repeats_its_counters():
    want = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert want == run.per_layer_names()
    runs = [_result("--seed", "3", "--seconds", "1", "--trace", "1") for _ in range(2)]
    for res in runs:
        assert res["correct"] and res["failed"] == 0
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    counters = [{k: v["value"] for k, v in res["metrics"].items() if v["unit"] != "s"}
                for res in runs]
    assert counters[0] == counters[1]
    assert counters[0]["flat_core.make_spec.calls"] > 0
    assert 0 < counters[0]["intlinalg.ImageSolver.preimage.hit_ratio"] < 1


@pytest.mark.parametrize("victim", ["s1.json", "s2.dot"])
def test_truncated_export_is_a_failed_job(tmp_path, victim):
    round_dir, result, verdicts = _round(tmp_path, 1, "round")
    assert all(v["ok"] for v in verdicts)
    path = os.path.join(round_dir, victim)
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text[: len(text) // 2])
    verdicts = run.check_round(*workloads.make_inputs("smoke", 1), result, round_dir)
    failed = [v["id"] for v in verdicts if not v["ok"]]
    assert failed and len(failed) / len(verdicts) > 0


def test_seeds_give_equal_counts_and_different_bytes(tmp_path):
    seen, outputs = [], []
    for seed in (1, 2):
        round_dir, result, verdicts = _round(tmp_path, seed, f"seed{seed}")
        assert all(v["ok"] for v in verdicts), verdicts
        seen.append([v["seen"] for v in verdicts])
        _, jobs = workloads.make_inputs("smoke", seed)
        blob = "".join(r["stdout"] for r in result["jobs"])
        for job in jobs:
            if job.out:
                with open(os.path.join(round_dir, job.out)) as fh:
                    blob += fh.read()
        outputs.append(blob)
    assert seen[0] == seen[1]
    assert outputs[0] != outputs[1]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
