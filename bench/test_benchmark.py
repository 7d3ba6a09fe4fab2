"""Tests of the benchmark harness: tiny-level runs of every workload.

Run from the root of a checkout:  python3 -m pytest -q bench/test_benchmark.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, bench=BENCH):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_and_passes_its_checks(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert "fail_ratio" in proc.stdout and '"blas_threads"' in proc.stdout


def test_traced_counts_match_the_program():
    # Tiny star-d2 at m = 2, 4: two specs per level build the same tables,
    # and the star product needs its own level only at m = 4.
    proc = _run("star-d2", 1)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["hilbert.node_data.builds"]["value"] == 6
    assert metrics["hilbert.node_data.dup_builds"]["value"] == 3
    assert metrics["operators.star_product.calls"]["value"] == 4


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(WORKLOADS[0], 0, bench=tmp_path / "bench")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_direct_children_only():
    sys.path.insert(0, str(BENCH))
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(str(BENCH))
    tracer = Tracer()
    # cli.main [0, 10] > toeplitz_matrix [1, 7] > node_data [2, 5] > build_rule [3, 4]
    tracer.spans = [
        ["cli.main", 0.0, 10.0, None, None],
        ["toeplitz.toeplitz_matrix", 1.0, 7.0, 0, 3],
        ["hilbert.node_data", 2.0, 5.0, 1, ((1, 2, 1), 100, 4 * 2 ** 20)],
        ["quadrature.build_rule", 3.0, 4.0, 2, 150],
    ]
    metrics = tracer.metrics()
    assert metrics["cli.main.self_s"] == 4.0
    assert metrics["toeplitz.toeplitz_matrix.self_s"] == 3.0
    assert metrics["hilbert.node_data.self_s"] == 2.0
    assert metrics["quadrature.build_rule.s"] == 1.0
    assert metrics["hilbert.node_data.builds"] == 1
    assert metrics["hilbert.table_mb"] == 4.0
    assert metrics["toeplitz.assembly_gflop"] == 8.0 * 100 * 9 / 1e9
