"""Smoke test for the benchmark itself, at tiny sizes.

Outside the tier-1 test paths; run it from the repository root with

    python3 -m pytest benchmarks/test_smoke.py -q

It asserts that every metric named in BENCHMARK.json is emitted with its
unit by every workload, gated or not, and that every output check passes
except the one known program defect below.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# The one check that fails on the program as it stands, on most seeds,
# and only eval_wide runs it. Batched evaluation of an all-missing input
# gives log p(x) = -4.4e-16 or -8.9e-16 instead of exactly 0.
# sum_block_forward subtracts a normalizer computed on a fresh contiguous
# row of zeros; with more than one row, a sum block's input table can be
# column-major, and numpy then sums the same terms in another order, so
# the two no longer cancel. A single row gives exactly 0.
KNOWN_FAILING_CHECK = "check FAIL all-missing log p(x) is exactly 0, batch of 4:"
KNOWN_FAILING_WORKLOADS = {"eval_wide"}


def run_benchmark(workload, trace):
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return completed.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["train_desk", "eval_wide", "query_desk"])
def test_every_metric_emitted_and_every_check_passes(workload, trace):
    lines = run_benchmark(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert any(line.startswith("env ") for line in lines)
    assert any(line.startswith("metric failed_share = ") for line in lines)
    assert any(line.startswith("check ") for line in lines)

    failed_checks = [line for line in lines if line.startswith("check FAIL")]
    known = KNOWN_FAILING_CHECK if workload in KNOWN_FAILING_WORKLOADS else None
    assert all(known and line.startswith(known) for line in failed_checks)
    assert result["failed"] == len(failed_checks)
    assert result["correct"] == (not failed_checks)


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    completed = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "query_desk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
