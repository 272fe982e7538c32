"""dlab benchmark: one workload of the paper's loop through the `dlab` CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload basis_grid --seed 1 --seconds 35 --trace 0

Workloads (see workloads.py): `basis_grid` (measurement-basis CMI grids),
`plateau` (QMI plateaus on pure states) and `noisy_pipeline` (routing,
noisy density runs and tomography). Each run starts a fresh workload
process (worker.py) with BLAS pinned to one thread, after a few set-up-only
processes that time the start-up alone.

`--trace 0` reports the end-to-end metrics: `wall_s` and `cpu_s` (per
experiment the best of the passes, summed), `setup_s` (median time from
process start until dlab is imported and the configs are written) and
`peak_rss_mb`. `failed_ratio` is `failed` / `attempted` of the result.
`--trace 1` wraps dlab's layers from outside (tracer.py) and reports the
per-layer table, printing all of it and putting the `PER_LAYER` metrics in
the result. Every experiment's outputs go through the correctness gate
(checks.py); the last stdout line is the result as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
SETUP_PROBES = 3  # before the run, and as many after it
RUN_LIMIT_S = 170.0
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Per-layer metrics of the result: self times present on every workload, and
# the exact counts (zero where a workload skips the layer). The whole table,
# including the times of layers a workload skips, is printed above it.
PER_LAYER = {
    "kernels.apply_s": "s",
    "kernels.apply_calls": "count",
    "kernels.bytes_computed": "bytes",
    "qstate.self_s": "s",
    "qstate.partial_trace_s": "s",
    "qstate.check_s": "s",
    "qstate.entropy_s": "s",
    "qstate.partial_trace_calls": "count",
    "qstate.eig_calls": "count",
    "darwinism.self_s": "s",
    "darwinism.cmi_cells": "count",
    "darwinism.qmi_calls": "count",
    "simulator.self_s": "s",
    "simulator.run_statevector_s": "s",
    "simulator.sample_calls": "count",
    "tomography.mle_iterations": "count",
    "routing.cnot_count": "count",
    "circuit.build_s": "s",
    "cli.self_s": "s",
    "trace_overhead_s": "s",
}


def _worker(args, workdir: str, deadline: float, *extra: str) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--size", args.size,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--reference", args.reference,
        "--workdir", workdir,
        *extra,
    ]
    env = dict(os.environ, **PINNED_THREADS)
    env["PERFBENCH_T0_NS"] = str(time.monotonic_ns())
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_probe(args, workdir: str, index: int, deadline: float) -> float:
    return _worker(args, os.path.join(workdir, f"probe{index}"), deadline, "--setup-only")["setup_s"]


def _report(args, run: dict, setups: list[float]) -> dict:
    facts = run["facts"]
    print(f"perfbench {args.workload} size={args.size} seed={args.seed} trace={args.trace} passes={run['passes']}")
    print("facts " + json.dumps(facts, sort_keys=True))
    ratio = run["failed"] / run["attempted"]
    print(f"failed_ratio {ratio:g} ({run['failed']} of {run['attempted']} experiments)")
    if not args.trace:
        print("setup_s samples: " + " ".join(f"{v:.4g}" for v in setups))
        values = {
            "wall_s": run["wall_s"],
            "cpu_s": run["cpu_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        for label, samples in run["experiment_wall_s"].items():
            print(f"experiment {label} wall_s best {min(samples):.4g} s, median {statistics.median(samples):.4g} s, "
                  f"{len(samples)} passes: " + " ".join(f"{v:.4g}" for v in samples))
        for name, unit in END_TO_END.items():
            print(f"{name} {values[name]:.6g} {unit}")
        return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    layers = dict(run["layers"], trace_overhead_s=run["trace_overhead_s"])
    wall = layers["wall_s"]
    for name in sorted(layers):
        print(f"layer {name} {layers[name]:.6g}")
    for layer in sorted(k for k in layers if k.endswith(".self_s")):
        print(f"share {layer[: -len('.self_s')]} {layers[layer] / wall:.3f} of traced wall_s {wall:.4g} s")
    print(f"exact counts repeat: {run['counts_repeat']}")
    return {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}


def main(argv=None) -> int:
    start = time.monotonic()
    ap = argparse.ArgumentParser(description="dlab benchmark: one workload, one run")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=workloads.SIZES, help="smoke: a seconds-long variant for tests")
    ap.add_argument("--reference", default=os.path.join(HERE, "reference.json"))
    args = ap.parse_args(argv)
    args.reference = os.path.abspath(args.reference)
    if not os.path.isfile(os.path.join(ROOT, "src", "dlab", "__init__.py")):
        print(f"no dlab sources under {ROOT}/src: run from the root of a dlab checkout", file=sys.stderr)
        return 2

    deadline = start + RUN_LIMIT_S
    workdir = os.path.join(ROOT, ".perfbench_out", f"{args.workload}-{os.getpid()}")
    try:
        # set-up probes before and after the run sample the machine at both ends
        setups = [_setup_probe(args, workdir, i, deadline) for i in range(SETUP_PROBES)]
        run = _worker(args, os.path.join(workdir, "run"), deadline)
        setups += [_setup_probe(args, workdir, i, deadline) for i in range(SETUP_PROBES, 2 * SETUP_PROBES)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(run["setup_s"])
    metrics = _report(args, run, setups)
    correct = run["failed"] == 0 and run.get("counts_repeat", True)
    print(json.dumps({"correct": correct, "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
