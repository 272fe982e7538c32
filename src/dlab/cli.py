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
    run_density,
    run_statevector,
    sample_pauli_set,
)
from .tomography import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    TomographyJob,
    mle_reconstruct,
    qubit_tomography,
    save_state_text,
    save_tomography_job,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

TOMO_MAX_QUBITS = 5

_SCENARIOS = {s.value: s for s in Scenario}
_PARTITIONS = {m.value: m for m in SchemeMode}


class ConfigError(Exception):
    pass


_NOISE_KEYS = {f.name for f in dataclasses.fields(NoiseModel)}


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
        scenario = _SCENARIOS.get(raw["scenario"])
        if scenario is None:
            raise ConfigError(f"'scenario' must be one of {sorted(_SCENARIOS)}")
        noise_raw = raw.get("noise", {})
        if not isinstance(noise_raw, dict):
            raise ConfigError("'noise' must be an object")
        bad = set(noise_raw) - _NOISE_KEYS
        if bad:
            raise ConfigError(f"unknown noise keys {sorted(bad)}")
        partition = _PARTITIONS.get(raw.get("partition", "per_pair"))
        if partition is None:
            raise ConfigError(f"'partition' must be one of {sorted(_PARTITIONS)}")
        try:
            noise = NoiseModel(
                **{k: _boolean(v, k) if k == "idle_noise" else _number(v, k) for k, v in noise_raw.items()}
            )
            cfg = cls(
                scenario=scenario,
                n=_integer(raw["n"], "n"),
                theta=_number(raw.get("theta", math.pi), "theta"),
                lam=_number(raw.get("lam", 1.0), "lam"),
                times=_resolve_times(raw["times"]),
                shots=_integer(raw.get("shots", 4096), "shots", 1),
                seed=_integer(raw.get("seed", 0), "seed", 0),
                noise=noise,
                coupling_map=_string(raw.get("coupling_map", "t7"), "coupling_map"),
                partition=partition,
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


def _preflight(cfg: ExperimentConfig, command: str) -> None:
    """Reject an angle no circuit builder takes, a register no simulation
    of `command` (or, for `route`, no device) can hold, or a partition,
    fraction or size the register does not have, before any compute.
    `route` checks its result by a statevector run over every device slot,
    so the device must fit the statevector cap too. The angle is the
    builders' rule: the circuit is built once, at t = 0, to ask them."""
    nq = cfg.params.num_qubits
    if nq > STATEVECTOR_MAX_QUBITS:
        raise ConfigError(f"statevector runs are capped at {STATEVECTOR_MAX_QUBITS} qubits ({nq} requested)")
    try:
        _build_circuit(cfg, 0.0)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    if command == "route":
        device = _resolve_coupling_map(cfg).num_physical
        if nq > device:
            raise ConfigError(f"the circuit needs {nq} qubits but the coupling map has {device}")
        if device > STATEVECTOR_MAX_QUBITS:
            raise ConfigError(
                f"the routed circuit is checked by a statevector run over all {device} device"
                f" slots, but statevector runs are capped at {STATEVECTOR_MAX_QUBITS} qubits"
            )
    if command != "route" and cfg.noise.is_mixing and nq > DENSITY_MAX_QUBITS:
        raise ConfigError(f"noisy density runs are capped at {DENSITY_MAX_QUBITS} qubits ({nq} requested)")
    tomography = command == "tomo" or (command == "darwinism" and cfg.include_tomography)
    if tomography and nq > TOMO_MAX_QUBITS:
        raise ConfigError(
            f"tomographic reconstruction is capped at {TOMO_MAX_QUBITS} qubits ({nq} requested)"
        )
    if command not in ("darwinism", "cmi", "compare"):
        return
    try:
        units = partition_scheme(cfg.params, cfg.partition).num_units
    except ValueError as e:
        raise ConfigError(str(e)) from None
    if command == "cmi" and not 1 <= cfg.fraction_units <= units:
        raise ConfigError(f"'fraction_units' must lie in 1..{units}, got {cfg.fraction_units}")
    if command == "compare" and any(not 1 <= s <= units for s in cfg.sizes or ()):
        raise ConfigError(f"'sizes' must lie in 1..{units}")


def _build_circuit(cfg: ExperimentConfig, t: float):
    if cfg.scenario is Scenario.FULL:
        return build_full_circuit(t, cfg.params)
    return build_condensed_circuit(t, cfg.params)


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


def _write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_json(path: str, obj) -> None:
    _write(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _finish(cfg: ExperimentConfig, command: str, artifacts: list[str]) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "numpy": np.__version__,
        "kernel": KERNEL_IMPLEMENTATION,
        "config": cfg.resolved_dict(),
        "artifacts": sorted(artifacts),
    }
    _write_json(os.path.join(cfg.outputs, "manifest.json"), manifest)


def _pmap(fn, payloads, jobs: int):
    if jobs <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as ex:
        return list(ex.map(fn, payloads))


def _coherence_point(payload):
    cfg, index, t = payload
    analytic = coherence_finite(t, cfg.params)
    ideal, state = _evolve(cfg, t)
    simulated = system_coherence(ideal)
    records = sample_pauli_set(partial_trace(state, (0,)), cfg.shots, cfg.seed + 3 * index, cfg.noise.readout_flip)
    sampled = system_coherence(qubit_tomography(records))
    freq_x = records[0].frequencies()
    mean_x = float(freq_x[0] - freq_x[1])
    stderr = math.sqrt(max(0.0, 1.0 - mean_x**2) / cfg.shots)
    return t, analytic, simulated, sampled, stderr


def cmd_coherence(cfg: ExperimentConfig) -> None:
    payloads = [(cfg, i, t) for i, t in enumerate(cfg.times)]
    rows = _pmap(_coherence_point, payloads, cfg.jobs)
    lines = [cfg.provenance_lines() + "time,analytic,simulated,sampled,sampled_stderr"]
    for t, ana, sim, samp, se in rows:
        lines.append(f"{t!r},{ana!r},{sim!r},{samp!r},{se!r}")
    _write(os.path.join(cfg.outputs, "coherence.csv"), "\n".join(lines) + "\n")
    _finish(cfg, "coherence", ["coherence.csv"])


def _tomo_reconstruction(cfg: ExperimentConfig, state, base_seed: int):
    records = sample_pauli_set(state, cfg.shots, base_seed, cfg.noise.readout_flip)
    job = TomographyJob(state.num_qubits, tuple(records), cfg.tol, cfg.max_iters)
    result = mle_reconstruct(job)
    if result.stop_reason != "tol":
        print(
            f"warning: MLE stopped by {result.stop_reason} after {result.iterations} iterations,"
            f" with the certified gap bound ll_gap_bound {result.ll_gap_bound!r} above tol {cfg.tol!r}",
            file=sys.stderr,
        )
    return job, result


def _darwinism_point(payload):
    cfg, index, t = payload
    scheme = partition_scheme(cfg.params, cfg.partition)
    ideal, state = _evolve(cfg, t)
    curves = {"ideal": averaged_qmi(ideal, (0,), scheme)}
    if cfg.noise.is_mixing:
        curves["noisy"] = averaged_qmi(state, (0,), scheme)
    if cfg.include_tomography:
        _, result = _tomo_reconstruction(cfg, state, cfg.seed + 10_000 * index)
        curves["tomo"] = averaged_qmi(result.state, (0,), scheme)
    return index, t, curves


def cmd_darwinism(cfg: ExperimentConfig) -> None:
    payloads = [(cfg, i, t) for i, t in enumerate(cfg.times)]
    artifacts = []
    for index, t, curves in _pmap(_darwinism_point, payloads, cfg.jobs):
        for variant, curve in sorted(curves.items()):
            name = f"mi_t{index:02d}_{variant}.csv"
            artifacts.append(name)
            head = cfg.provenance_lines() + f"# time: {t!r}\n# variant: {variant}\n"
            _write(os.path.join(cfg.outputs, name), head + mi_curve_to_csv(curve))
    _finish(cfg, "darwinism", artifacts)


def _cmi_point(payload):
    cfg, index, t = payload
    units = partition_scheme(cfg.params, cfg.partition).units[: cfg.fraction_units]
    frac = tuple(sorted(q for u in units for q in u))
    state = _noisy_state(cfg, t)
    # time NN's grid draws its cells from one generator seeded with seed + NN
    shots, seed = (cfg.shots if cfg.sampled else None), cfg.seed + index
    grid = cmi_grid(
        state, (0,), frac, cfg.phi_steps, cfg.xi_steps, shots=shots, seed=seed, readout_flip=cfg.noise.readout_flip
    )
    return index, t, frac, grid


def cmd_cmi(cfg: ExperimentConfig) -> None:
    payloads = [(cfg, i, t) for i, t in enumerate(cfg.times)]
    artifacts = []
    for index, t, frac, grid in _pmap(_cmi_point, payloads, cfg.jobs):
        name = f"cmi_t{index:02d}.csv"
        artifacts.append(name)
        phi, xi, peak = grid.argmax()
        head = cfg.provenance_lines() + f"# time: {t!r}\n# fraction: {list(frac)}\n"
        foot = f"# argmax: {phi!r},{xi!r},{peak!r}\n"
        _write(os.path.join(cfg.outputs, name), head + basis_grid_to_csv(grid) + foot)
    _finish(cfg, "cmi", artifacts)


def _compare_point(payload):
    """One row per fraction size, all from one evolution of the state at `t`:
    the `_orbit_mean` of QMI, Holevo bound and best-basis CMI."""
    cfg, t, sizes = payload
    scheme = partition_scheme(cfg.params, cfg.partition)
    state = _noisy_state(cfg, t)

    def measures(frac):
        grid = cmi_grid(state, (0,), frac, cfg.phi_steps, cfg.xi_steps)
        return qmi(state, (0,), frac), holevo_bound(state, (0,), frac), grid.max_value

    orbits = orbit_fractions(state, (0,), scheme, sizes)
    return [(t, size, *map(float, _orbit_mean(pairs, measures)[0])) for size, pairs in orbits.items()]


def cmd_compare(cfg: ExperimentConfig) -> None:
    """QMI / Holevo / max-basis CMI per fraction size at the canonical times."""
    units = partition_scheme(cfg.params, cfg.partition).num_units
    sizes = tuple(range(1, units + 1)) if cfg.sizes is None else cfg.sizes
    payloads = [(cfg, t, sizes) for t in canonical_times()]
    rows = [row for point in _pmap(_compare_point, payloads, cfg.jobs) for row in point]
    lines = [cfg.provenance_lines() + "time,size,qmi,holevo,cmi_max"]
    for t, size, q, chi, cmi in rows:
        lines.append(f"{t!r},{size},{q!r},{chi!r},{cmi!r}")
    _write(os.path.join(cfg.outputs, "compare.csv"), "\n".join(lines) + "\n")
    _finish(cfg, "compare", ["compare.csv"])


def _resolve_coupling_map(cfg: ExperimentConfig):
    try:
        return builtin_coupling_map(cfg.coupling_map)
    except ValueError:
        pass
    if os.path.exists(cfg.coupling_map):
        try:
            return coupling_map_from_file(cfg.coupling_map)
        except ValueError as e:
            raise ConfigError(f"bad coupling map file: {e}") from None
    raise ConfigError(f"coupling map {cfg.coupling_map!r} is neither built-in nor a file")


def cmd_route(cfg: ExperimentConfig) -> None:
    cmap = _resolve_coupling_map(cfg)
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
    _write_json(os.path.join(cfg.outputs, "route_report.json"), report)
    _write(os.path.join(cfg.outputs, "routed.txt"), cfg.provenance_lines() + circuit_to_text(rc.circuit))
    _write(
        os.path.join(cfg.outputs, "routed_peephole.txt"),
        cfg.provenance_lines() + circuit_to_text(pp.circuit),
    )
    _finish(cfg, "route", ["route_report.json", "routed.txt", "routed_peephole.txt"])


def cmd_tomo(cfg: ExperimentConfig) -> None:
    t = cfg.times[0]
    ideal, state = _evolve(cfg, t)
    job, result = _tomo_reconstruction(cfg, state, cfg.seed)
    save_tomography_job(job, os.path.join(cfg.outputs, "job"))
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
    save_state_text(result.state, os.path.join(cfg.outputs, "state.txt"))
    _write_json(os.path.join(cfg.outputs, "tomo_report.json"), report)
    artifacts = ["job", "state.txt", "tomo_report.json"]
    _finish(cfg, "tomo", artifacts)


_COMMANDS = {
    "coherence": cmd_coherence,
    "darwinism": cmd_darwinism,
    "cmi": cmd_cmi,
    "compare": cmd_compare,
    "route": cmd_route,
    "tomo": cmd_tomo,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dlab", description="collision-model workbench")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="seed override")
        p.add_argument("--jobs", type=int, help="worker count override")
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
        _preflight(cfg, args.command)
        _COMMANDS[args.command](cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:  # noqa: BLE001 - anything downstream is a run failure
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
