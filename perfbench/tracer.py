"""Outside-in layer tracing of dlab, from the benchmark's own files.

`Tracer.install` wraps every public function of each layer module and
rebinds the wrapper at every name in the `dlab` package that refers to the
original, because modules import functions by name (`dlab.cli.cmi_grid`,
`dlab.darwinism.partial_trace`, `dlab.simulator.apply_matrix`, ...). The CLI
dispatch table, the `DensityMatrix` validation hook and numpy's
eigen-solvers are covered too. Each wrapper is a span: it adds its
duration to its parent's child time, so self time is the span's duration
minus that of its child spans. `uninstall` restores every original.
"""
from __future__ import annotations

import sys
import time
import types
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "circuit", "simulator", "kernels", "qstate", "darwinism", "tomography", "routing")

# Exact counts taken from arguments or results at the layer boundary.
COUNTERS = {
    "kernels.apply_matrix": lambda args, res: {"kernels.bytes_computed": 2 * args[0].nbytes},
    "darwinism.cmi_grid": lambda args, res: {"darwinism.cmi_cells": len(res.phis) * len(res.xis)},
    "darwinism.cmi_joint": lambda args, res: {"darwinism.cmi_cells": 1},
    "darwinism.cmi_joint_sampled": lambda args, res: {"darwinism.cmi_cells": 1},
    "tomography.mle_reconstruct_from_frequencies": lambda args, res: {
        "tomography.mle_iterations": res.iterations
    },
    "routing.route": lambda args, res: {"routing.cnot_count": res.cnot_count},
    "routing.peephole_zero_swap": lambda args, res: {"routing.cnot_count": res.cnot_count},
}
EIG_SOLVERS = ("eigvalsh", "eigh")


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._child_s: list[float] = []
        self._restore: list = []

    def reset(self) -> None:
        self.calls.clear()
        self.total_s.clear()
        self.self_s.clear()
        self.counts.clear()

    def _span(self, name: str, fn):
        count = COUNTERS.get(name)
        child_s = self._child_s

        def traced(*args, **kwargs):
            child_s.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = child_s.pop()
                if child_s:
                    child_s[-1] += duration
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - children
            if count is not None:
                try:
                    self.counts.update(count(args, result))
                except (AttributeError, IndexError, TypeError):
                    # the layer's signature moved: the count is lost, not the run
                    self.counts["trace.counter_errors"] += 1
            return result

        return traced

    def _counted(self, name: str, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _set(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._restore.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._restore.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

    def install(self) -> None:
        import dlab
        import dlab.cli

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"dlab.{layer}")
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = self._span(f"{layer}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if name == "dlab" or name.startswith("dlab."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in wrappers:
                        self._set(module, attr, wrappers[id(obj)])
        commands = getattr(dlab.cli, "_COMMANDS", {})
        for key, fn in list(commands.items()):
            if id(fn) in wrappers:
                self._set(commands, key, wrappers[id(fn)])
        density = dlab.qstate.DensityMatrix
        if hasattr(density, "__post_init__"):
            self._set(density, "__post_init__", self._span("qstate.DensityMatrix.check", density.__post_init__))
        for solver in EIG_SOLVERS:
            self._set(np.linalg, solver, self._counted("qstate.eig_calls", getattr(np.linalg, solver)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


# Per-layer metrics: self time summed over the listed spans. `cli.<cmd>_s`
# is the odd one out: the subcommand's whole time, children included.
SELF_TIME_METRICS = {
    "kernels.apply_s": ("kernels.apply_matrix",),
    "darwinism.cmi_grid_s": ("darwinism.cmi_grid",),
    "darwinism.cmi_sampled_s": ("darwinism.cmi_joint_sampled",),
    "darwinism.holevo_s": ("darwinism.holevo_bound",),
    "darwinism.averaged_qmi_s": ("darwinism.averaged_qmi", "darwinism.qmi"),
    "qstate.partial_trace_s": ("qstate.partial_trace",),
    "qstate.check_s": ("qstate.DensityMatrix.check",),
    "qstate.entropy_s": ("qstate.von_neumann_entropy",),
    "qstate.fidelity_s": ("qstate.fidelity",),
    "simulator.run_statevector_s": ("simulator.run_statevector",),
    "simulator.run_density_s": ("simulator.run_density",),
    "simulator.sample_s": ("simulator.sample", "simulator.born_distribution"),
    "tomography.mle_s": ("tomography.mle_reconstruct", "tomography.mle_reconstruct_from_frequencies"),
    "routing.route_s": ("routing.route",),
    "routing.peephole_s": ("routing.peephole_zero_swap",),
    "routing.verify_s": ("routing.routed_statevector_equivalent", "routing.routed_unitary_equivalent"),
    "circuit.build_s": ("circuit.build_full_circuit", "circuit.build_condensed_circuit"),
}
CALL_METRICS = {
    "kernels.apply_calls": "kernels.apply_matrix",
    "qstate.partial_trace_calls": "qstate.partial_trace",
    "simulator.sample_calls": "simulator.sample",
    "darwinism.qmi_calls": "darwinism.qmi",
}
COUNT_METRICS = (
    "kernels.bytes_computed",
    "qstate.eig_calls",
    "darwinism.cmi_cells",
    "tomography.mle_iterations",
    "routing.cnot_count",
)
# Counts that must repeat exactly, pass to pass and run to run, for a seed.
EXACT_COUNTS = (
    "kernels.apply_calls",
    "qstate.eig_calls",
    "darwinism.cmi_cells",
    "tomography.mle_iterations",
    "routing.cnot_count",
)
COMMANDS = ("coherence", "darwinism", "cmi", "compare", "route", "tomo")


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """The per-layer table of one traced pass whose experiments took `wall_s`."""
    out: dict[str, float] = {}
    for metric, spans in SELF_TIME_METRICS.items():
        out[metric] = sum(tracer.self_s.get(s, 0.0) for s in spans)
    for metric, span in CALL_METRICS.items():
        out[metric] = tracer.calls.get(span, 0)
    for metric in COUNT_METRICS:
        out[metric] = tracer.counts.get(metric, 0)
    iters = out["tomography.mle_iterations"]
    out["tomography.mle_s_per_iter"] = out["tomography.mle_s"] / iters if iters else 0.0
    for cmd in COMMANDS:
        out[f"cli.{cmd}_s"] = tracer.total_s.get(f"cli.cmd_{cmd}", 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t for s, t in tracer.self_s.items() if s.startswith(layer + "."))
    out["untraced_s"] = wall_s - sum(tracer.self_s.values())
    out["trace.counter_errors"] = tracer.counts.get("trace.counter_errors", 0)
    return out
