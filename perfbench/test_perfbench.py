"""Tests of the benchmark itself, on the smoke-size workloads.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# The per-layer table: every metric is printed by a traced run of any workload.
LAYER_TABLE = (
    "kernels.apply_calls", "kernels.apply_s", "kernels.bytes_computed",
    "darwinism.cmi_grid_s", "darwinism.cmi_cells", "darwinism.cmi_sampled_s",
    "darwinism.holevo_s", "darwinism.averaged_qmi_s", "darwinism.qmi_calls",
    "qstate.partial_trace_s", "qstate.partial_trace_calls", "qstate.entropy_s",
    "qstate.eig_calls", "qstate.fidelity_s",
    "simulator.run_statevector_s", "simulator.run_density_s", "simulator.sample_s",
    "simulator.sample_calls",
    "tomography.mle_s", "tomography.mle_iterations", "tomography.mle_s_per_iter",
    "routing.route_s", "routing.peephole_s", "routing.verify_s", "routing.cnot_count",
    "circuit.build_s", "cli.self_s", "trace_overhead_s",
    *(f"cli.{cmd}_s" for cmd in ("coherence", "darwinism", "cmi", "compare", "route", "tomo")),
)
FACTS = (
    "dlab_version", "kernel_implementation", "git_commit", "python", "numpy", "blas",
    "blas_threads_pinned", "nproc", "seed",
)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--size", "smoke", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def printed(proc: subprocess.CompletedProcess, prefix: str) -> dict[str, float]:
    out = {}
    for line in proc.stdout.splitlines():
        if line.startswith(prefix + " "):
            name, value = line.split()[1:3]
            out[name] = float(value)
    return out


def counts(proc: subprocess.CompletedProcess) -> dict[str, float]:
    table = printed(proc, "layer")
    return {c: table[c] for c in tracer.EXACT_COUNTS}


@pytest.fixture(scope="module")
def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_harness(benchmark_json):
    assert [w["name"] for w in benchmark_json["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in benchmark_json["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_emits_end_to_end_metrics(workload):
    proc = bench("--workload", workload, "--trace", "0")
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "failed_ratio 0 " in proc.stdout
    facts = json.loads(next(l for l in proc.stdout.splitlines() if l.startswith("facts "))[6:])
    assert set(FACTS) <= set(facts) and facts["blas_threads_pinned"] == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_the_layer_table(workload):
    proc = bench("--workload", workload, "--trace", "1")
    result = result_of(proc)
    assert result["correct"], proc.stderr
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER
    assert set(LAYER_TABLE) <= set(printed(proc, "layer"))
    assert "exact counts repeat: True" in proc.stdout


def test_exact_counts_repeat_across_runs():
    first = bench("--workload", "noisy_pipeline", "--trace", "1", "--seed", "7")
    second = bench("--workload", "noisy_pipeline", "--trace", "1", "--seed", "7")
    assert counts(first) == counts(second)
    assert counts(first)["tomography.mle_iterations"] > 0 and counts(first)["routing.cnot_count"] > 0


def test_perturbed_reference_fails_the_gate(tmp_path):
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    numbers = reference["smoke"]["basis_grid"]["compare"]["numbers"]["compare.csv"]
    numbers[2] *= 1 + 1e-6
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    result = result_of(bench("--workload", "basis_grid", "--trace", "0", "--reference", str(path)))
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_configs_come_from_the_seed():
    assert workloads.generate("basis_grid", "full", 5) == workloads.generate("basis_grid", "full", 5)
    for exp in workloads.generate("noisy_pipeline", "full", 9):
        assert exp.config["seed"] == 9 and exp.config["jobs"] == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "basis_grid", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
