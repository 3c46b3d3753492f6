"""One-cycle runs of every workload through ``run.py``, untraced and traced.

``--seconds 0`` runs the warm-up cycle and one measured cycle (traced: one
untraced and one traced cycle).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

import run
import tracing
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def smoke(workload: str, trace: int, seed: int = 3) -> tuple[list[str], dict]:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    return lines[:-1], result


def printed(lines: list[str]) -> dict[str, str]:
    """metric name -> unit, from the 'name value unit ...' lines."""
    return {parts[0]: parts[2] for parts in (line.split() for line in lines) if len(parts) >= 3}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    lines, result = smoke(workload, trace=0)
    units = printed(lines)
    for name, unit in run.END_TO_END + (("error_rate", "ratio"),):
        assert units.get(name) == unit, name
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    meta = json.loads(next(line for line in lines if line.startswith("meta "))[5:])
    assert {"numpy", "blas", "blas_threads", "python", "nproc", "seed", "commit"} <= set(meta)
    assert meta["blas_threads"] in (None, 1)
    with open(os.path.join(run.OUT, f"{workload}-seed3-trace0.json")) as f:
        saved = json.load(f)
    assert len(saved["speed_factors"]) == len(saved["latencies_s"]) == result["attempted"]
    assert all(f > 0 for f in saved["speed_factors"])
    assert all(s["setup_factor"] > 0 for s in saved["setup_samples"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_runs_print_every_layer_metric_and_repeat_their_counts(workload):
    signatures = []
    for _ in range(2):
        lines, result = smoke(workload, trace=1)
        units = printed(lines)
        spec = tracing.per_layer_spec()
        for m in spec:
            assert units.get(m["name"]) == m["unit"], m["name"]
        assert set(result["metrics"]) == {m["name"] for m in spec}
        assert any(line.startswith("tracing overhead") for line in lines)
        with open(os.path.join(run.OUT, f"{workload}-seed3-trace1.json")) as f:
            saved = json.load(f)
        assert saved["outputs_equal"] and saved["counts_repeat"] and not saved["unrestored"]
        signatures.append(saved["count_signature"])
    assert signatures[0] == signatures[1]


def test_benchmark_json_names_the_workloads_and_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert spec["per_layer"] == tracing.per_layer_spec()


def test_fails_without_the_library_sources():
    os.makedirs(run.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench("--workload", "usd_sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
