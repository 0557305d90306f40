"""The benchmark's job lists, checked by its own oracle: every job of one
untraced round of `smoke`, `check` and `search` must pass."""

import importlib.util
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "benchmarks" / "run.py"


def load_run():
    spec = importlib.util.spec_from_file_location("benchmark_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not RUN.exists(), reason="benchmarks/ is not present")
@pytest.mark.parametrize("workload", ["smoke", "check", "search"])
def test_round_passes_the_oracle(tmp_path, workload):
    run = load_run()
    round_dir = str(tmp_path / workload)
    result = run.run_round(workload, 1, False, round_dir, str(ROOT / "src"),
                           time.monotonic() + 120)
    assert "crash" not in result, result
    verdicts = run.check_round(*run.workloads.make_inputs(workload, 1), result, round_dir)
    assert verdicts and all(v["ok"] for v in verdicts), [v for v in verdicts if not v["ok"]]
