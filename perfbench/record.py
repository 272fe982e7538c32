"""Record `reference.json`, the numbers the correctness gate compares with.

Run from the root of a checkout whose outputs are trusted:

    python3 perfbench/record.py

For every workload at both sizes it runs each experiment twice, at the
default seed and at another seed, and keeps the numbers that do not depend
on the seed (it fails if any of them does). Oracles for the sampled outputs
are recorded beside them: the exact CMI grid of each sampled grid, and the
noisy density matrix that tomography samples from.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import sys

import checks
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from dlab import cli  # noqa: E402
from dlab.circuit import build_condensed_circuit, build_full_circuit  # noqa: E402
from dlab.scm import Scenario, ScmParams, canonical_times  # noqa: E402
from dlab.simulator import NoiseModel, run_density  # noqa: E402
from worker import run_facts  # noqa: E402

WORKDIR = os.path.join(ROOT, ".perfbench_out", "record")


def _run(command: str, config: dict, name: str) -> str:
    outdir = os.path.join(WORKDIR, name)
    path = outdir + ".json"
    os.makedirs(WORKDIR, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    if cli.main([command, "--config", path, "--out", outdir]) != 0:
        raise SystemExit(f"{name}: dlab {command} failed")
    return outdir


def _oracle(exp: workloads.Experiment, name: str) -> dict:
    cfg = exp.config
    if exp.command == "cmi":
        outdir = _run("cmi", dict(cfg, sampled=False), name + "-exact")
        return {
            "exact_grid": {
                f: [row[2] for row in checks.read_csv(os.path.join(outdir, f))[1]]
                for f in checks._cmi_files(outdir)
            }
        }
    if exp.command == "tomo":
        if cfg["times"] != "t_max":
            raise SystemExit("the tomography oracle is recorded at t_max only")
        scenario = Scenario(cfg["scenario"])
        params = ScmParams(theta=math.pi, lam=1.0, n=cfg["n"], scenario=scenario)
        build = build_full_circuit if scenario is Scenario.FULL else build_condensed_circuit
        rho = run_density(build(canonical_times().t_max, params), NoiseModel(**cfg["noise"])).matrix
        return {"noisy_state_re": rho.real.tolist(), "noisy_state_im": rho.imag.tolist()}
    return {}


def main() -> int:
    seeds = (workloads.DEFAULT_SEED, workloads.DEFAULT_SEED + 1)
    reference: dict = {"recorded_at": run_facts(ROOT, seeds[0])}
    for size in workloads.SIZES:
        reference[size] = {}
        for workload in workloads.WORKLOADS:
            entries = {}
            runs = [workloads.generate(workload, size, s) for s in seeds]
            for exp, other in zip(*runs):
                name = f"{size}-{workload}-{exp.label}"
                numbers = checks.deterministic_numbers(exp.command, _run(exp.command, exp.config, name))
                again = checks.deterministic_numbers(other.command, _run(other.command, other.config, name + "-2"))
                if numbers != again:
                    raise SystemExit(f"{name}: recorded numbers depend on the seed")
                entries[exp.label] = {"numbers": numbers, "oracle": _oracle(exp, name)}
                problems = checks.check(exp.command, exp.config, os.path.join(WORKDIR, name), entries[exp.label])
                if problems:
                    raise SystemExit(f"{name}: fails its own gate: {problems}")
                print(f"recorded {name}", flush=True)
            reference[size][workload] = entries
    shutil.rmtree(WORKDIR, ignore_errors=True)
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
