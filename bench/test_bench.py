"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_bench.py

Each workload runs once untraced and once traced; every metric that
BENCHMARK.json names must come out with its unit.  The negative controls
check that the gates catch a corrupted result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "bench"))
from run import WORKLOAD_NAMES as WORKLOADS  # noqa: E402  (BENCHMARK.json lists a subset)


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    proc, result = run_bench("--workload", workload, "--tiny", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = result["metrics"]
    assert {m["name"] for m in wanted} <= set(got)
    for m in wanted:
        assert got[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(got[m["name"]]["value"], (int, float)), m["name"]
    if not trace:
        assert all(got[m["name"]]["value"] > 0 for m in wanted)


def test_benchmark_json_names_workloads_the_command_offers():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_perturbed_divergence_fails_exactly_one_verify_record():
    proc, result = run_bench("--workload", "verify-all", "--tiny", "--perturb")
    assert proc.returncode == 1
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["attempted"] == 2  # the two records of the tiny battery


def test_corrupted_gas_curved_result_fails_its_gate():
    proc, result = run_bench("--workload", "gas-curved", "--tiny", "--perturb")
    assert proc.returncode == 1
    assert result["failed"] == 1
    assert "total weight not exactly conserved" in proc.stdout


def test_without_the_program_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run_bench("--workload", WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
