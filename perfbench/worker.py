"""The workload process: one benchmark run of one workload (see run.py).

It imports dlab from the checkout's `src/`, writes the workload's generated
configs, then runs passes over the experiments through `dlab.cli.main`
until `--seconds` have gone by, checking every experiment's outputs. Set-up
time counts from the process start stamped by the parent in
`PERFBENCH_T0_NS`. Untraced, it reports the per-experiment best wall and
CPU time over the passes, summed over the workload, and its peak RSS. Traced, an untraced
warm-up pass is followed by alternating traced and untraced passes; it
reports the per-layer table of the traced ones, and checks that the exact
counts repeat from pass to pass. The result is one JSON object on the last
line of stdout.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import workloads

T0_ENV = "PERFBENCH_T0_NS"
MIN_PASSES = 2
MAX_MEASURE_S = 140.0  # stay inside the per-run limit on a slow machine


def _git_commit(root: str) -> str:
    """HEAD of the checkout read from `.git`, without searching above it."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when numpy bundles one."""
    import numpy

    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_facts(root: str, seed: int) -> dict:
    import numpy

    import dlab

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "dlab_version": dlab.__version__,
        "kernel_implementation": dlab.KERNEL_IMPLEMENTATION,
        "git_commit": _git_commit(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads_pinned": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "blas_threads_reported": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
        "default_seed": workloads.DEFAULT_SEED,
    }


def _cpu_s() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _median(values: list):
    """Median, keeping a value that repeats exactly (an exact count) as is."""
    return values[0] if len(set(values)) == 1 else statistics.median(values)


def _check(checks, exp, outdir, reference) -> list[str]:
    try:
        return checks.check(exp.command, exp.config, outdir, reference[exp.label])
    except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
        return [f"output check raised {type(e).__name__}: {e}"]


def main(argv=None) -> int:
    start_ns = int(os.environ.get(T0_ENV) or time.monotonic_ns())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--size", default="full", choices=workloads.SIZES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--reference", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import dlab.cli

    if not os.path.abspath(dlab.__file__).startswith(src + os.sep):
        print(f"dlab was imported from {dlab.__file__}, not from {src}", file=sys.stderr)
        return 2
    experiments = workloads.generate(args.workload, args.size, args.seed)
    config_paths = {}
    os.makedirs(os.path.join(args.workdir, "configs"), exist_ok=True)
    for exp in experiments:
        path = os.path.join(args.workdir, "configs", f"{exp.label}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(exp.config, fh, sort_keys=True)
        config_paths[exp.label] = path
    setup_s = (time.monotonic_ns() - start_ns) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import checks
    import tracer as tracing

    with open(args.reference, encoding="utf-8") as fh:
        reference = json.load(fh)[args.size][args.workload]
    tracer = tracing.Tracer() if args.trace else None
    wall = {e.label: [] for e in experiments}
    cpu = {e.label: [] for e in experiments}
    untraced_walls: list[float] = []
    traced_passes: list[dict] = []
    attempted = failed = 0
    measure_start = time.perf_counter()
    pass_no = 0
    while True:
        # traced: pass 0 warms up, then traced and untraced passes alternate
        traced = tracer is not None and pass_no % 2 == 1
        if traced:
            tracer.reset()
        pass_wall = 0.0
        for exp in experiments:
            outdir = os.path.join(args.workdir, f"pass{pass_no}", exp.label)
            argv_cli = [exp.command, "--config", config_paths[exp.label], "--out", outdir]
            if traced:
                tracer.install()
            c0, w0 = _cpu_s(), time.perf_counter()
            try:
                rc = dlab.cli.main(argv_cli)
            finally:
                w1, c1 = time.perf_counter(), _cpu_s()
                if traced:
                    tracer.uninstall()
            pass_wall += w1 - w0
            if not traced:
                wall[exp.label].append(w1 - w0)
                cpu[exp.label].append(c1 - c0)
            problems = [f"exit code {rc}"] if rc != 0 else _check(checks, exp, outdir, reference)
            attempted += 1
            failed += bool(problems)
            for p in problems:
                print(f"FAILED {args.workload}/{exp.label} (pass {pass_no}): {p}", file=sys.stderr)
            shutil.rmtree(outdir, ignore_errors=True)
        if traced:
            traced_passes.append(dict(tracing.layer_metrics(tracer, pass_wall), wall_s=pass_wall))
        elif pass_no > 0 or tracer is None:
            untraced_walls.append(pass_wall)
        pass_no += 1
        elapsed = time.perf_counter() - measure_start
        enough = pass_no >= MIN_PASSES if tracer is None else len(traced_passes) >= 2 and bool(untraced_walls)
        # stop before a pass that would end past --seconds
        if enough and elapsed + pass_wall > min(args.seconds, MAX_MEASURE_S):
            break

    result = {
        "setup_s": setup_s,
        "facts": run_facts(root, args.seed),
        "attempted": attempted,
        "failed": failed,
        "passes": pass_no,
    }
    if tracer is None:
        result["wall_s"] = sum(min(v) for v in wall.values())
        result["cpu_s"] = sum(min(v) for v in cpu.values())
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["experiment_wall_s"] = wall
    else:
        mismatched = [
            c for c in tracing.EXACT_COUNTS if len({p[c] for p in traced_passes}) != 1
        ]
        for c in mismatched:
            print(f"exact count {c} differs between passes: {[p[c] for p in traced_passes]}", file=sys.stderr)
        result["counts_repeat"] = len(traced_passes) >= 2 and not mismatched
        result["layers"] = {k: _median([p[k] for p in traced_passes]) for k in traced_passes[0]}
        result["trace_overhead_s"] = result["layers"]["wall_s"] - statistics.median(untraced_walls)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
