"""Smoke test of the benchmark: every workload at tiny sizes, and its failure paths.

    python -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--seed", "3", "--seconds", "0",
           "--size", "tiny", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_reported_with_its_unit(workload, trace):
    out = last_json(run_bench("--workload", workload, "--trace", str(trace)))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], float) for v in out["metrics"].values())


def test_wrong_expected_value_counts_as_failed(tmp_path):
    expected = json.loads((BENCH / "expected.json").read_text())
    expected["solves"]["lshape2d/adini/4"]["errors"][3] *= 1.01
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    proc = run_bench("--workload", "solve2d-lshape64", "--trace", "0",
                     "--expected", str(path))
    out = last_json(proc)
    assert out["correct"] is False
    assert out["attempted"] == 1 and out["failed"] == 1
    assert "FAILED lshape2d/adini/4: H3" in proc.stdout


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "verify2d", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
