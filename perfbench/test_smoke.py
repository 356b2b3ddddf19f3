"""Smoke test for the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
from run import tail  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def run_tiny(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = bench(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    meta_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(meta_line)["meta"], json.loads(result_line)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_reports_every_metric_and_reproduces(workload):
    meta, plain = run_tiny(workload, 3, 0)
    meta_traced, traced = run_tiny(workload, 3, 1)
    meta_other, _ = run_tiny(workload, 4, 0)

    for result, specs in ((plain, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {s["name"]: s["unit"] for s in specs}
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

    assert meta["latency_p50_ms"] > 0
    assert meta_other["inputs"]["inputs_sha256"] != meta["inputs"]["inputs_sha256"]
    assert meta_traced["inputs"]["inputs_sha256"] == meta["inputs"]["inputs_sha256"]
    assert meta_traced["stream_sha256"] == meta["stream_sha256"]
    assert meta_traced["svg_sha256"] == meta["svg_sha256"]


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_leaves_ten_samples_above():
    assert tail(list(range(100))) == (90.0, pytest.approx(89.1))
    assert tail(list(range(199)))[0] == 90.0
    assert tail(list(range(200)))[0] == 95.0
    assert tail(list(range(9999)))[0] == 95.0
    assert tail(list(range(10000)))[0] == 99.9
    assert tail(list(range(19))) == (100.0, 18.0)
