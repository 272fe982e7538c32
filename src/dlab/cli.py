"""Config-driven experiment runner: `dlab <subcommand> --config cfg.json`.

Every artifact embeds the resolved config and seed; reruns with the same
inputs are byte-identical. Exit codes: 0 success, 2 config error, 3 numerical
failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import shutil
import sys

import numpy as np

from . import KERNEL_IMPLEMENTATION, __version__
from .circuit import UNITARY_MAX_QUBITS, build_condensed_circuit, build_full_circuit, circuit_to_text
from .darwinism import (
    DEFAULT_PHI_STEPS,
    DEFAULT_XI_STEPS,
    SchemeMode,
    _orbit_mean,
    averaged_qmi,
    basis_grid_to_csv,
    cmi_grid,
    holevo_bound,
    mi_curve_to_csv,
    orbit_fractions,
    partition_scheme,
    qmi,
    system_coherence,
)
from .qstate import fidelity, partial_trace
from .routing import (
    builtin_coupling_map,
    coupling_map_from_file,
    peephole_zero_swap,
    route,
    routed_statevector_equivalent,
    routed_unitary_equivalent,
)
from .scm import CanonicalTimes, Scenario, ScmParams, canonical_times, coherence_finite
from .simulator import (
    DENSITY_MAX_QUBITS,
    STATEVECTOR_MAX_QUBITS,
    NoiseModel,
    _check_sampling,
    run_density,
    run_statevector,
    sample_pauli_set,
)
from .tomography import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    TomographyJob,
    _json_text,
    mle_reconstruct,
    qubit_tomography,
    save_state_text,
    save_tomography_job,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

TOMO_MAX_QUBITS = 5


class ConfigError(Exception):
    pass


_NOISE_KEYS = {f.name for f in dataclasses.fields(NoiseModel)}
# The settings that fix the BLAS thread count, on which noisy bytes depend;
# `manifest.json` records each as the run saw it.
_THREAD_SETTINGS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _integer(value, key: str, least: int | None = None) -> int:
    """A JSON integer (or an integral-valued number) of at least `least`;
    never a bool or a fraction."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{key}' must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"'{key}' must be at least {least}, got {value}")
    return value


def _number(value, key: str, least: float | None = None) -> float:
    """A JSON number, finite and at least `least` when that is given; never a
    bool or a numeric string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{key}' must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ConfigError(f"'{key}' is too large for a float") from None
    if least is not None and not least <= value < math.inf:
        raise ConfigError(f"'{key}' must be finite and at least {least}, got {value!r}")
    return value


def _boolean(value, key: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"'{key}' must be true or false, got {value!r}")
    return value


def _member(enum, value, key: str):
    """The member of `enum` whose value is `value`."""
    try:
        return enum(value)
    except ValueError:
        raise ConfigError(f"'{key}' must be one of {sorted(m.value for m in enum)}") from None


def _string(value, key: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"'{key}' must be a string, got {value!r}")
    return value


def _named_time(name: str, ct: CanonicalTimes) -> float:
    table = ct._asdict()
    if name not in table:
        raise ConfigError(f"unknown named time {name!r}, expected one of {sorted(table)}")
    return table[name]


def _resolve_times(raw) -> tuple[float, ...]:
    ct = canonical_times()
    if isinstance(raw, str):
        if raw == "canonical":
            values = list(ct)
        else:
            values = [_named_time(raw, ct)]
    elif isinstance(raw, dict):
        extra = set(raw) - {"start", "stop", "count"}
        if extra:
            raise ConfigError(f"unknown time-grid keys {sorted(extra)}")
        try:
            start, stop = _number(raw["start"], "start", 0.0), _number(raw["stop"], "stop", 0.0)
            count = _integer(raw["count"], "count")
        except KeyError as e:
            raise ConfigError(f"time grid needs 'start', 'stop', 'count' (missing {e})") from None
        # finite, non-negative endpoints: the span cannot overflow, and every
        # grid point is finite and non-negative too
        values = np.linspace(start, stop, count).tolist()
    elif isinstance(raw, list):
        values = [_named_time(v, ct) if isinstance(v, str) else _number(v, "times", 0.0) for v in raw]
    else:
        raise ConfigError(f"cannot interpret 'times': {raw!r}")
    if not values:
        raise ConfigError("'times' must hold at least one time")
    values = sorted(values)
    if any(b - a <= 1e-15 for a, b in zip(values, values[1:])):
        raise ConfigError("times must be distinct")
    return tuple(values)


def _sizes(raw) -> tuple[int, ...] | None:
    if raw is None:
        return None
    if not isinstance(raw, list):
        raise ConfigError(f"'sizes' must be a list of integers or null, got {raw!r}")
    sizes = tuple(_integer(s, "sizes") for s in raw)
    if not sizes:
        raise ConfigError("'sizes' must list at least one size, or be null for all sizes")
    if len(set(sizes)) != len(sizes):
        raise ConfigError(f"'sizes' must not repeat a size, got {list(sizes)}")
    return sizes


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    scenario: Scenario
    n: int
    theta: float
    lam: float
    times: tuple[float, ...]
    shots: int
    seed: int
    noise: NoiseModel
    coupling_map: str
    partition: SchemeMode
    outputs: str
    phi_steps: int
    xi_steps: int
    fraction_units: int
    sizes: tuple[int, ...] | None
    include_tomography: bool
    sampled: bool
    tol: float
    max_iters: int
    jobs: int

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        for key in ("scenario", "n", "times"):
            if key not in raw:
                raise ConfigError(f"'{key}' is required")
        noise_raw = raw.get("noise", {})
        if not isinstance(noise_raw, dict):
            raise ConfigError("'noise' must be an object")
        bad = set(noise_raw) - _NOISE_KEYS
        if bad:
            raise ConfigError(f"unknown noise keys {sorted(bad)}")
        try:
            noise = NoiseModel(
                **{k: _boolean(v, k) if k == "idle_noise" else _number(v, k) for k, v in noise_raw.items()}
            )
            cfg = cls(
                scenario=_member(Scenario, raw["scenario"], "scenario"),
                n=_integer(raw["n"], "n"),
                theta=_number(raw.get("theta", math.pi), "theta"),
                lam=_number(raw.get("lam", 1.0), "lam"),
                times=_resolve_times(raw["times"]),
                shots=_integer(raw.get("shots", 4096), "shots", 1),
                seed=_integer(raw.get("seed", 0), "seed", 0),
                noise=noise,
                coupling_map=_string(raw.get("coupling_map", "t7"), "coupling_map"),
                partition=_member(SchemeMode, raw.get("partition", "per_pair"), "partition"),
                outputs=_string(raw.get("outputs", "out"), "outputs"),
                phi_steps=_integer(raw.get("phi_steps", DEFAULT_PHI_STEPS), "phi_steps", 2),
                xi_steps=_integer(raw.get("xi_steps", DEFAULT_XI_STEPS), "xi_steps", 2),
                fraction_units=_integer(raw.get("fraction_units", 1), "fraction_units"),
                sizes=_sizes(raw.get("sizes")),
                include_tomography=_boolean(
                    raw.get("include_tomography", False), "include_tomography"
                ),
                sampled=_boolean(raw.get("sampled", False), "sampled"),
                tol=_number(raw.get("tol", DEFAULT_TOL), "tol", 0.0),
                max_iters=_integer(raw.get("max_iters", DEFAULT_MAX_ITERS), "max_iters", 1),
                jobs=_integer(raw.get("jobs", 1), "jobs", 1),
            )
            cfg.params  # force ScmParams invariants now, as a config check
            _check_sampling(cfg.shots, cfg.noise.readout_flip)
        except (ValueError, TypeError) as e:
            raise ConfigError(str(e)) from None
        return cfg

    @property
    def params(self) -> ScmParams:
        return ScmParams(theta=self.theta, lam=self.lam, n=self.n, scenario=self.scenario)

    def resolved_dict(self) -> dict:
        """Every field as JSON data; `from_dict` reads it back to an equal config."""
        return dict(
            dataclasses.asdict(self),
            scenario=self.scenario.value,
            partition=self.partition.value,
            times=list(self.times),
            sizes=None if self.sizes is None else list(self.sizes),
        )

    def provenance_lines(self) -> str:
        blob = json.dumps(self.resolved_dict(), sort_keys=True)
        return f"# config: {blob}\n# seed: {self.seed}\n"


def _build_circuit(cfg: ExperimentConfig, t: float):
    """The configured circuit at `t`; an angle the builders refuse is a
    config error."""
    build = build_full_circuit if cfg.scenario is Scenario.FULL else build_condensed_circuit
    try:
        return build(t, cfg.params)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _check_evolution(cfg: ExperimentConfig) -> None:
    """Refuse, before any compute, a register the statevector run cannot
    hold, an angle no circuit builder takes, and a register the density run
    cannot hold when the noise mixes the state. The angle is the builders'
    rule: the circuit is built once, at t = 0, to ask them. Every command
    that evolves a state (`_evolve`, `_noisy_state`) calls this first."""
    nq = cfg.params.num_qubits
    if nq > STATEVECTOR_MAX_QUBITS:
        raise ConfigError(f"statevector runs are capped at {STATEVECTOR_MAX_QUBITS} qubits ({nq} requested)")
    _build_circuit(cfg, 0.0)
    if cfg.noise.is_mixing and nq > DENSITY_MAX_QUBITS:
        raise ConfigError(f"noisy density runs are capped at {DENSITY_MAX_QUBITS} qubits ({nq} requested)")


def _evolve(cfg: ExperimentConfig, t: float):
    """The ideal statevector at `t`, and the state the noise model leaves:
    a density run when the noise mixes the state, else the same statevector
    (readout flips act only on sampled records)."""
    circuit = _build_circuit(cfg, t)
    ideal = run_statevector(circuit)
    return ideal, run_density(circuit, cfg.noise) if cfg.noise.is_mixing else ideal


def _noisy_state(cfg: ExperimentConfig, t: float):
    """The state `_evolve` leaves, by one run, for commands that read no ideal state."""
    circuit = _build_circuit(cfg, t)
    return run_density(circuit, cfg.noise) if cfg.noise.is_mixing else run_statevector(circuit)


def _artifact(cfg: ExperimentConfig, name: str, text: str) -> str:
    """Write `text` to the file `name` under `cfg.outputs`, and return `name`."""
    os.makedirs(cfg.outputs or ".", exist_ok=True)
    with open(os.path.join(cfg.outputs, name), "w", encoding="utf-8") as fh:
        fh.write(text)
    return name


def _pmap(point, cfg: ExperimentConfig, shared, times):
    """`point(cfg, shared, index, t)` at each of `times`, in order, on at most
    `cfg.jobs` workers and one per time and per CPU."""
    workers = min(cfg.jobs, len(times), os.cpu_count() or 1)
    if workers <= 1:
        return [point(cfg, shared, index, t) for index, t in enumerate(times)]
    from concurrent.futures import ProcessPoolExecutor

    n = len(times)
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(point, [cfg] * n, [shared] * n, range(n), times))


def _stream_seed(cfg: ExperimentConfig, index: int) -> int:
    """The seed of time `index`'s draws, one stream per (seed, index) pair."""
    return int(np.random.SeedSequence([cfg.seed, index]).generate_state(1, np.uint64)[0])


def _coherence_point(cfg: ExperimentConfig, _, index: int, t: float):
    analytic = coherence_finite(t, cfg.params)
    ideal, state = _evolve(cfg, t)
    simulated = system_coherence(ideal, *cfg.params.system)
    system = partial_trace(state, cfg.params.system)
    records = sample_pauli_set(system, cfg.shots, _stream_seed(cfg, index), cfg.noise.readout_flip)
    sampled = system_coherence(qubit_tomography(records))
    freq_x = records[0].frequencies()
    mean_x = float(freq_x[0] - freq_x[1])
    stderr = math.sqrt(max(0.0, 1.0 - mean_x**2) / cfg.shots)
    return t, analytic, simulated, sampled, stderr


def cmd_coherence(cfg: ExperimentConfig) -> list[str]:
    _check_evolution(cfg)
    rows = _pmap(_coherence_point, cfg, None, cfg.times)
    lines = [cfg.provenance_lines() + "time,analytic,simulated,sampled,sampled_stderr"]
    for t, ana, sim, samp, se in rows:
        lines.append(f"{t!r},{ana!r},{sim!r},{samp!r},{se!r}")
    return [_artifact(cfg, "coherence.csv", "\n".join(lines) + "\n")]


def _check_tomography(cfg: ExperimentConfig) -> None:
    nq = cfg.params.num_qubits
    if nq > TOMO_MAX_QUBITS:
        raise ConfigError(f"tomographic reconstruction is capped at {TOMO_MAX_QUBITS} qubits ({nq} requested)")


def _scheme(cfg: ExperimentConfig):
    """The configured partition of the register; a partition the register
    does not have is a config error."""
    try:
        return partition_scheme(cfg.params, cfg.partition)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _tomo_reconstruction(cfg: ExperimentConfig, state, seed: int):
    records = sample_pauli_set(state, cfg.shots, seed, cfg.noise.readout_flip)
    job = TomographyJob(state.num_qubits, tuple(records), cfg.tol, cfg.max_iters)
    result = mle_reconstruct(job)
    if result.stop_reason != "tol":
        print(
            f"warning: MLE stopped by {result.stop_reason} after {result.iterations} iterations,"
            f" with the certified gap bound ll_gap_bound {result.ll_gap_bound!r} above tol {cfg.tol!r}",
            file=sys.stderr,
        )
    return job, result


def _darwinism_point(cfg: ExperimentConfig, scheme, index: int, t: float):
    system = cfg.params.system
    ideal, state = _evolve(cfg, t)
    curves = {"ideal": averaged_qmi(ideal, system, scheme)}
    if cfg.noise.is_mixing:
        curves["noisy"] = averaged_qmi(state, system, scheme)
    if cfg.include_tomography:
        _, result = _tomo_reconstruction(cfg, state, _stream_seed(cfg, index))
        curves["tomo"] = averaged_qmi(result.state, system, scheme)
    return curves


def cmd_darwinism(cfg: ExperimentConfig) -> list[str]:
    _check_evolution(cfg)
    if cfg.include_tomography:
        _check_tomography(cfg)
    scheme = _scheme(cfg)
    artifacts = []
    for index, (t, curves) in enumerate(zip(cfg.times, _pmap(_darwinism_point, cfg, scheme, cfg.times))):
        for variant, curve in sorted(curves.items()):
            head = cfg.provenance_lines() + f"# time: {t!r}\n# variant: {variant}\n"
            artifacts.append(_artifact(cfg, f"mi_t{index:02d}_{variant}.csv", head + mi_curve_to_csv(curve)))
    return artifacts


def _cmi_point(cfg: ExperimentConfig, frac, index: int, t: float):
    system, state = cfg.params.system, _noisy_state(cfg, t)
    shots, seed = (cfg.shots if cfg.sampled else None), _stream_seed(cfg, index)
    return cmi_grid(
        state, system, frac, cfg.phi_steps, cfg.xi_steps, shots=shots, seed=seed, readout_flip=cfg.noise.readout_flip
    )


def cmd_cmi(cfg: ExperimentConfig) -> list[str]:
    _check_evolution(cfg)
    scheme = _scheme(cfg)
    if not 1 <= cfg.fraction_units <= scheme.num_units:
        raise ConfigError(f"'fraction_units' must lie in 1..{scheme.num_units}, got {cfg.fraction_units}")
    frac = tuple(sorted(q for u in scheme.units[: cfg.fraction_units] for q in u))
    artifacts = []
    for index, (t, grid) in enumerate(zip(cfg.times, _pmap(_cmi_point, cfg, frac, cfg.times))):
        phi, xi, peak = grid.argmax()
        head = cfg.provenance_lines() + f"# time: {t!r}\n# fraction: {list(frac)}\n"
        foot = f"# argmax: {phi!r},{xi!r},{peak!r}\n"
        artifacts.append(_artifact(cfg, f"cmi_t{index:02d}.csv", head + basis_grid_to_csv(grid) + foot))
    return artifacts


def _compare_point(cfg: ExperimentConfig, shared, _, t: float):
    """One row per fraction size, all from one evolution of the state at `t`:
    the `_orbit_mean` of QMI, Holevo bound and best-basis CMI."""
    scheme, sizes = shared
    system = cfg.params.system
    state = _noisy_state(cfg, t)

    def measures(frac):
        grid = cmi_grid(state, system, frac, cfg.phi_steps, cfg.xi_steps)
        return qmi(state, system, frac), holevo_bound(state, system, frac), grid.max_value

    orbits = orbit_fractions(state, system, scheme, sizes)
    return [(t, size, *map(float, _orbit_mean(pairs, measures)[0])) for size, pairs in orbits.items()]


def cmd_compare(cfg: ExperimentConfig) -> list[str]:
    """QMI / Holevo / max-basis CMI per fraction size at the canonical times."""
    _check_evolution(cfg)
    scheme = _scheme(cfg)
    units = scheme.num_units
    if any(not 1 <= s <= units for s in cfg.sizes or ()):
        raise ConfigError(f"'sizes' must lie in 1..{units}")
    sizes = tuple(range(1, units + 1)) if cfg.sizes is None else cfg.sizes
    rows = [row for point in _pmap(_compare_point, cfg, (scheme, sizes), canonical_times()) for row in point]
    lines = [cfg.provenance_lines() + "time,size,qmi,holevo,cmi_max"]
    for t, size, q, chi, cmi in rows:
        lines.append(f"{t!r},{size},{q!r},{chi!r},{cmi!r}")
    return [_artifact(cfg, "compare.csv", "\n".join(lines) + "\n")]


def _resolve_coupling_map(cfg: ExperimentConfig):
    try:
        return builtin_coupling_map(cfg.coupling_map)
    except ValueError:
        pass
    if os.path.exists(cfg.coupling_map):
        try:
            return coupling_map_from_file(cfg.coupling_map)
        except (OSError, ValueError) as e:
            raise ConfigError(f"bad coupling map file: {e}") from None
    raise ConfigError(f"coupling map {cfg.coupling_map!r} is neither built-in nor a file")


def cmd_route(cfg: ExperimentConfig) -> list[str]:
    """Route the circuit at t_max onto the configured device. The result is
    checked by a statevector run over every device slot, so a device above
    that run's cap, or below the register, is refused before any build;
    the build itself refuses an angle no builder takes. Nothing here runs
    a density simulation, so the density cap does not apply."""
    cmap = _resolve_coupling_map(cfg)
    nq, device = cfg.params.num_qubits, cmap.num_physical
    if nq > device:
        raise ConfigError(f"the circuit needs {nq} qubits but the coupling map has {device}")
    if device > STATEVECTOR_MAX_QUBITS:
        raise ConfigError(
            f"the routed circuit is checked by a statevector run over all {device} device"
            f" slots, but statevector runs are capped at {STATEVECTOR_MAX_QUBITS} qubits"
        )
    circuit = _build_circuit(cfg, canonical_times().t_max)
    rc = route(circuit, cmap)
    pp = peephole_zero_swap(rc)
    report = {
        "num_logical": circuit.num_qubits,
        "num_physical": cmap.num_physical,
        "placement": {str(k): v for k, v in sorted(rc.placement.items())},
        "final_placement": {str(k): v for k, v in sorted(rc.final_placement.items())},
        "swap_count": rc.swap_count,
        "cnot_count": rc.cnot_count,
        "peephole": {"swap_count": pp.swap_count, "cnot_count": pp.cnot_count},
        "equivalent_statevector": routed_statevector_equivalent(rc, circuit),
        "equivalent_statevector_peephole": routed_statevector_equivalent(pp, circuit),
        "equivalent_unitary": (
            routed_unitary_equivalent(rc, circuit) if cmap.num_physical <= UNITARY_MAX_QUBITS else None
        ),
        "config": cfg.resolved_dict(),
        "seed": cfg.seed,
    }
    return [
        _artifact(cfg, "route_report.json", _json_text(report)),
        _artifact(cfg, "routed.txt", cfg.provenance_lines() + circuit_to_text(rc.circuit)),
        _artifact(cfg, "routed_peephole.txt", cfg.provenance_lines() + circuit_to_text(pp.circuit)),
    ]


def cmd_tomo(cfg: ExperimentConfig) -> list[str]:
    _check_evolution(cfg)
    _check_tomography(cfg)
    t = cfg.times[0]
    ideal, state = _evolve(cfg, t)
    job, result = _tomo_reconstruction(cfg, state, _stream_seed(cfg, 0))
    job_dir, state_file = "job", "state.txt"
    save_tomography_job(job, os.path.join(cfg.outputs, job_dir))
    fid = fidelity(result.state, ideal.density_matrix())
    lls = result.log_likelihoods
    report = {
        "time": t,
        "num_qubits": state.num_qubits,
        "fidelity_vs_ideal": fid,
        "iterations": result.iterations,
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "final_log_likelihood": lls[-1],
        "ll_gap_bound": result.ll_gap_bound,
        "log_likelihood_monotone": all(b >= a - 1e-12 for a, b in zip(lls, lls[1:])),
        "config": cfg.resolved_dict(),
        "seed": cfg.seed,
    }
    save_state_text(result.state, os.path.join(cfg.outputs, state_file))
    return [job_dir, state_file, _artifact(cfg, "tomo_report.json", _json_text(report))]


# Each command writes its artifacts under `cfg.outputs` and returns their
# names; `main` lists them in `manifest.json` under the command's name.
_COMMANDS = {
    "coherence": cmd_coherence,
    "darwinism": cmd_darwinism,
    "cmi": cmd_cmi,
    "compare": cmd_compare,
    "route": cmd_route,
    "tomo": cmd_tomo,
}


def _check_outputs(path: str) -> None:
    """Refuse an output directory that is a file, or lies under one, before
    any compute. Nothing is created here: a config error leaves no output
    directory behind."""
    head = os.path.abspath(path)
    while not os.path.lexists(head):
        head = os.path.dirname(head)
    if not os.path.isdir(head):
        raise ConfigError(f"'outputs' {path!r} lies at or under {head!r}, which is not a directory")


def _remove_unlisted(outputs: str, artifacts: list[str]) -> None:
    """Remove each artifact that the previous `manifest.json` under `outputs`
    lists and `artifacts` does not, so a rerun leaves none of an earlier
    run's files beside its own. Only plain names (no path separator, not
    `.` or `..`) are read; a missing or unreadable manifest removes nothing."""
    try:
        with open(os.path.join(outputs, "manifest.json"), "r", encoding="utf-8") as fh:
            listed = json.load(fh)
    except (OSError, ValueError):
        return
    listed = listed.get("artifacts") if isinstance(listed, dict) else None
    for name in listed if isinstance(listed, list) else ():
        plain = isinstance(name, str) and name not in ("", ".", "..") and os.path.basename(name) == name
        if not plain or name in artifacts:
            continue
        path = os.path.join(outputs, name)
        if os.path.isdir(path) and not os.path.islink(path):
            shutil.rmtree(path)
        elif os.path.lexists(path):
            os.remove(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dlab", description="collision-model workbench")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument("--jobs", type=int, help="worker count override")
    args = parser.parse_args(argv)
    try:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        if args.out is not None:
            raw["outputs"] = args.out
        if args.seed is not None:
            raw["seed"] = args.seed
        if args.jobs is not None:
            raw["jobs"] = args.jobs
        cfg = ExperimentConfig.from_dict(raw)
        _check_outputs(cfg.outputs)
        artifacts = sorted(_COMMANDS[args.command](cfg))
        _remove_unlisted(cfg.outputs, artifacts)
        manifest = {
            "command": args.command,
            "version": __version__,
            "numpy": np.__version__,
            "kernel": KERNEL_IMPLEMENTATION,
            "threads": {name: os.environ.get(name) for name in _THREAD_SETTINGS},
            "cpu_count": os.cpu_count(),
            "config": cfg.resolved_dict(),
            "artifacts": artifacts,
        }
        _artifact(cfg, "manifest.json", _json_text(manifest))
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:  # noqa: BLE001 - anything downstream is a run failure
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
