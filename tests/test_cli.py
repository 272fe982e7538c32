"""End-to-end runs of the config-driven command line interface."""
import concurrent.futures
import dataclasses
import json
import math
import os
import subprocess
import sys
import types
from collections import Counter

import numpy as np
import pytest

import dlab
from dlab import (
    build_condensed_circuit,
    canonical_times,
    cli,
    load_state_text,
    load_tomography_job,
    run_density,
    sample_pauli_set,
)
from dlab.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, ExperimentConfig, main

T_MAX, T_CLOSE, T_REC = canonical_times()


def write_config(tmp_path, **overrides):
    cfg = {
        "scenario": "condensed",
        "n": 2,
        "times": [0.0, T_MAX],
        "shots": 1024,
        "seed": 7,
        "outputs": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def data_lines(path):
    return [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]


def test_coherence_command(tmp_path):
    cfg = write_config(tmp_path, times=[0.0, T_CLOSE, T_MAX, T_REC], shots=8192)
    assert main(["coherence", "--config", str(cfg)]) == EXIT_OK
    out = tmp_path / "out"
    rows = data_lines(out / "coherence.csv")
    assert rows[0] == "time,analytic,simulated,sampled,sampled_stderr"
    assert len(rows) == 5
    t0 = rows[1].split(",")
    assert float(t0[0]) == 0.0 and float(t0[1]) == 1.0  # no collisions yet
    for row in rows[1:]:
        t, ana, sim, samp, se = (float(x) for x in row.split(","))
        assert abs(sim - ana) < 1e-9  # exact simulation tracks the closed form
        assert abs(samp - ana) < 4 * se + 0.05  # sampled estimate is compatible
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "coherence"
    assert manifest["artifacts"] == ["coherence.csv"]
    assert manifest["config"]["seed"] == 7


def test_coherence_reads_the_system_from_the_params(tmp_path, monkeypatch):
    calls = []

    def spy(state, *args, _run=cli.system_coherence, **kwargs):
        calls.append((state.num_qubits, args + tuple(kwargs.values())))
        return _run(state, *args, **kwargs)

    monkeypatch.setattr(cli, "system_coherence", spy)
    cfg = write_config(tmp_path, times=[0.0, T_MAX])
    assert main(["coherence", "--config", str(cfg)]) == EXIT_OK
    params = ExperimentConfig.from_dict(json.loads(cfg.read_text())).params
    # the sampled call reads a one-qubit reconstruction, which has only qubit 0
    assert [args for n, args in calls if n == params.num_qubits] == [(params.system[0],)] * 2


def test_coherence_time_grid_config(tmp_path):
    cfg = write_config(tmp_path, times={"start": 0.0, "stop": 1.0, "count": 6}, shots=256)
    assert main(["coherence", "--config", str(cfg)]) == EXIT_OK
    rows = data_lines(tmp_path / "out" / "coherence.csv")
    assert len(rows) == 7


def test_darwinism_t0_curve_is_blank(tmp_path):
    cfg = write_config(tmp_path, n=3, times=[0.0], partition="per_qubit")
    assert main(["darwinism", "--config", str(cfg)]) == EXIT_OK
    rows = data_lines(tmp_path / "out" / "mi_t00_ideal.csv")
    assert rows[0] == "f,value,stderr"
    for row in rows[1:]:
        _, v, se = row.split(",")
        assert abs(float(v)) < 1e-9 and abs(float(se)) < 1e-9


def test_darwinism_noisy_variant(tmp_path):
    cfg = write_config(
        tmp_path,
        times=[T_MAX],
        partition="per_qubit",
        noise={"depol_1q": 0.02, "depol_2q": 0.02},
    )
    assert main(["darwinism", "--config", str(cfg)]) == EXIT_OK
    out = tmp_path / "out"
    ideal = [float(r.split(",")[1]) for r in data_lines(out / "mi_t00_ideal.csv")[1:]]
    noisy = [float(r.split(",")[1]) for r in data_lines(out / "mi_t00_noisy.csv")[1:]]
    assert ideal[0] == pytest.approx(1.0, abs=1e-6)
    assert noisy[0] < ideal[0]  # the record degrades under gate noise
    manifest = json.loads((out / "manifest.json").read_text())
    assert "mi_t00_noisy.csv" in manifest["artifacts"]


def test_cmi_argmax_footer(tmp_path):
    cfg = write_config(tmp_path, n=1, times=["t_max"], phi_steps=13, xi_steps=12)
    assert main(["cmi", "--config", str(cfg)]) == EXIT_OK
    text = (tmp_path / "out" / "cmi_t00.csv").read_text()
    footer = [ln for ln in text.splitlines() if ln.startswith("# argmax:")]
    assert len(footer) == 1
    phi, xi, peak = (float(x) for x in footer[0].split(":", 1)[1].split(","))
    assert abs(phi - math.pi / 2) < 1e-12 and xi == 0.0
    assert abs(peak - 1.0) < 1e-6


def test_compare_ordering(tmp_path):
    cfg = write_config(
        tmp_path, times=["t_max"], partition="per_qubit", sizes=[1], phi_steps=13, xi_steps=12
    )
    assert main(["compare", "--config", str(cfg)]) == EXIT_OK
    rows = data_lines(tmp_path / "out" / "compare.csv")
    assert rows[0] == "time,size,qmi,holevo,cmi_max"
    by_time = {}
    for row in rows[1:]:
        t, size, q, chi, cm = row.split(",")
        by_time[round(float(t), 9)] = (float(q), float(chi), float(cm))
    q, chi, cm = by_time[round(T_REC, 9)]
    assert cm <= chi + 1e-9 <= q + 2e-9
    q, chi, cm = by_time[round(T_MAX, 9)]
    assert abs(q - chi) < 1e-6 and abs(chi - cm) < 1e-6


def _all_fraction_compare(cfg, t, sizes):
    """The compare loop before orbits: plain means over every fraction."""
    from dlab import cmi_grid, holevo_bound, partition_scheme, qmi

    scheme = partition_scheme(cfg.params, cfg.partition)
    state = cli._noisy_state(cfg, t)
    rows = []
    for size in sizes:
        fractions = list(scheme.fractions(size))
        q = np.mean([qmi(state, (0,), f) for f in fractions])
        chi = np.mean([holevo_bound(state, (0,), f) for f in fractions])
        cmi = np.mean([cmi_grid(state, (0,), f, cfg.phi_steps, cfg.xi_steps).max_value for f in fractions])
        rows.append((t, size, float(q), float(chi), float(cmi)))
    return rows


@pytest.mark.parametrize("partition", ["per_pair", "per_qubit", "ancillae_only"])
def test_compare_rows_from_orbits_match_every_fraction(partition):
    base = dict(scenario="full", n=3, partition=partition, times="canonical", phi_steps=5, xi_steps=6)
    ideal = ExperimentConfig.from_dict(base)
    noisy = ExperimentConfig.from_dict(dict(base, noise={"depol_1q": 0.001, "depol_2q": 0.01}))
    sizes, scheme = (3, 1, 2), cli._scheme(ideal)
    for t in canonical_times():
        got = cli._compare_point(ideal, (scheme, sizes), 0, t)
        want = _all_fraction_compare(ideal, t, sizes)
        assert [r[:2] for r in got] == [r[:2] for r in want]
        assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-12
        # a noisy state falls back to every fraction: the very same rows
        assert cli._compare_point(noisy, (scheme, sizes), 0, t) == _all_fraction_compare(noisy, t, sizes)


def test_darwinism_eigen_budget(tmp_path, monkeypatch):
    # condensed n=9 at t_max: 511 fractions, one orbit per size. Averaged
    # over every fraction the curve took 637 eigen calls; one orbit per
    # size needs H(S) and at most two sides per size
    calls = Counter()
    for solver in ("eigvalsh", "eigh"):
        def counted(*args, _solver=getattr(np.linalg, solver), **kwargs):
            calls["eig"] += 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, solver, counted)
    cfg = write_config(tmp_path, n=9, times=["t_max"])
    assert main(["darwinism", "--config", str(cfg)]) == EXIT_OK
    assert calls["eig"] <= 1 + 2 * 9


def test_route_builtin_map(tmp_path):
    cfg = write_config(tmp_path, scenario="full", n=3, times=["t_max"])
    assert main(["route", "--config", str(cfg)]) == EXIT_OK
    out = tmp_path / "out"
    report = json.loads((out / "route_report.json").read_text())
    assert report["num_logical"] == 7 and report["num_physical"] == 7
    assert report["equivalent_statevector"] is True
    assert report["equivalent_statevector_peephole"] is True
    assert report["equivalent_unitary"] is None  # dense check capped at 6 qubits
    assert report["peephole"]["cnot_count"] < report["cnot_count"]
    assert (out / "routed.txt").exists() and (out / "routed_peephole.txt").exists()


def test_route_map_file(tmp_path):
    map_path = tmp_path / "line5.txt"
    map_path.write_text("5\n0 1\n1 2\n2 3\n3 4\n")
    cfg = write_config(tmp_path, n=2, times=["t_max"], coupling_map=str(map_path))
    assert main(["route", "--config", str(cfg)]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "route_report.json").read_text())
    assert report["equivalent_unitary"] is True
    assert report["equivalent_statevector"] is True


def test_route_reads_the_coupling_map_once(tmp_path, monkeypatch):
    calls = []
    resolve = cli._resolve_coupling_map
    monkeypatch.setattr(cli, "_resolve_coupling_map", lambda cfg: calls.append(cfg) or resolve(cfg))
    cfg = write_config(tmp_path, n=2, times=["t_max"])
    assert main(["route", "--config", str(cfg)]) == EXIT_OK
    assert len(calls) == 1


def test_tomo_command(tmp_path, capsys):
    cfg = write_config(tmp_path, n=1, times=["t_max"], shots=2048)
    assert main(["tomo", "--config", str(cfg)]) == EXIT_OK
    out = tmp_path / "out"
    report = json.loads((out / "tomo_report.json").read_text())
    assert report["stop_reason"] == "tol" and report["converged"] is True
    assert capsys.readouterr().err == ""
    assert report["num_qubits"] == 2
    assert report["fidelity_vs_ideal"] > 0.95
    assert report["log_likelihood_monotone"] is True
    assert -1e-12 <= report["ll_gap_bound"] <= 1e-7
    state = load_state_text(out / "state.txt")
    assert state.shape == (4, 4) and abs(np.trace(state) - 1.0) < 1e-9
    assert (out / "job" / "manifest.json").exists()


def test_tomo_reports_an_early_stop(tmp_path, capsys):
    # a spent iteration budget is reported and warned about, not an error;
    # tol 0 asks for more than any budget of 5 iterations certifies
    cfg = write_config(tmp_path, n=1, times=["t_max"], shots=2048, tol=0, max_iters=5)
    assert main(["tomo", "--config", str(cfg)]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "tomo_report.json").read_text())
    assert report["stop_reason"] == "max_iters" and report["converged"] is False
    assert report["iterations"] == 5 and report["ll_gap_bound"] > 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "max_iters" in err
    assert f"ll_gap_bound {report['ll_gap_bound']!r}" in err


def test_byte_identical_rerun(tmp_path):
    # the bytes depend on the config, the seed, and the versions the manifest records
    cfg = write_config(tmp_path, n=1, times=[0.2, 0.5, 0.9], shots=512)
    assert main(["coherence", "--config", str(cfg)]) == EXIT_OK
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["version"] == dlab.__version__
    assert manifest["numpy"] == np.__version__
    assert manifest["kernel"] == dlab.KERNEL_IMPLEMENTATION
    snapshot = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    assert main(["coherence", "--config", str(cfg)]) == EXIT_OK
    again = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    assert snapshot == again


def test_parallel_jobs_match_serial(tmp_path):
    for command, extra in (("coherence", {}), ("darwinism", {"noise": {"depol_1q": 0.01}})):
        serial = write_config(tmp_path, n=1, times=[0.2, 0.5, 0.9], shots=512, **extra)
        out, par = tmp_path / command, tmp_path / f"{command}_par"
        assert main([command, "--config", str(serial), "--out", str(out)]) == EXIT_OK
        assert main([command, "--config", str(serial), "--jobs", "3", "--out", str(par)]) == EXIT_OK
        names = sorted(p.name for p in out.glob("*.csv"))
        assert names and names == sorted(p.name for p in par.glob("*.csv"))
        for name in names:
            assert data_lines(par / name) == data_lines(out / name), (command, name)


@pytest.mark.parametrize("command", ["coherence", "darwinism", "tomo", "compare", "cmi"])
@pytest.mark.parametrize("noise", [{}, {"depol_1q": 0.01}, {"readout_flip": 0.02}])
def test_each_time_is_evolved_once(tmp_path, monkeypatch, command, noise):
    calls = Counter()
    for name in ("run_statevector", "run_density"):
        def counted(*args, _name=name, _run=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _run(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    cfg = write_config(tmp_path, include_tomography=True, max_iters=20, phi_steps=3, xi_steps=3, noise=noise)
    assert main([command, "--config", str(cfg)]) == EXIT_OK
    # tomo reads the first time, compare the three canonical times for
    # every fraction size, the others each configured time
    times = {"tomo": 1, "compare": 3}.get(command, 2)
    # the density run only when gate noise can mix the state, and the ideal
    # statevector unless that noise is on and the command reads only the
    # noisy state; readout flips act on the sampled records alone
    density = times if "depol_1q" in noise else 0
    statevector = 0 if density and command in ("compare", "cmi") else times
    assert calls == Counter(run_statevector=statevector, run_density=density)


@pytest.mark.parametrize("command", ["darwinism", "cmi", "compare"])
def test_partition_is_built_once_per_run(tmp_path, monkeypatch, command):
    calls = []
    build = cli.partition_scheme
    monkeypatch.setattr(cli, "partition_scheme", lambda *args: calls.append(args) or build(*args))
    cfg = write_config(tmp_path, times=[0.0, T_CLOSE, T_MAX], phi_steps=3, xi_steps=3)
    assert main([command, "--config", str(cfg)]) == EXIT_OK
    assert len(calls) == 1


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_manifest_lists_the_command_and_everything_it_wrote(tmp_path, command):
    noise = {"depol_1q": 0.01}
    cfg = write_config(tmp_path, include_tomography=True, max_iters=20, phi_steps=3, xi_steps=3, noise=noise)
    assert main([command, "--config", str(cfg)]) == EXIT_OK
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["artifacts"] == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")


def test_manifest_records_the_thread_settings(tmp_path, monkeypatch):
    # the settings that fix the BLAS thread count, as the run saw them
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    cfg = write_config(tmp_path, times=[T_MAX])
    assert main(["coherence", "--config", str(cfg)]) == EXIT_OK
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": None}
    assert manifest["cpu_count"] == os.cpu_count()


@pytest.mark.parametrize(
    "first, second",
    [
        (("darwinism", {"times": [0.0, T_CLOSE, T_MAX]}), ("darwinism", {})),
        (("tomo", {"n": 2}), ("tomo", {"n": 1})),
        (("tomo", {}), ("coherence", {})),
    ],
)
def test_rerun_replaces_the_listed_artifacts(tmp_path, first, second):
    # fewer times, a smaller tomography job, another command: nothing of
    # the first run is left that the second run's manifests do not list
    out = tmp_path / "out"
    for command, overrides in (first, second):
        cfg = write_config(tmp_path, **{"times": ["t_max"], "max_iters": 20, **overrides})
        assert main([command, "--config", str(cfg)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"] == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    if command == "tomo":
        job = json.loads((out / "job" / "manifest.json").read_text())
        assert len(job["records"]) == 9
        assert job["records"] == sorted(f"records/{p.name}" for p in (out / "job" / "records").iterdir())


def test_rerun_removes_only_plain_names_it_listed(tmp_path):
    # a file no manifest listed stays, an unreadable manifest removes
    # nothing, and a listed name that is not a plain file name in the
    # output directory is left alone
    out, victim = tmp_path / "out", tmp_path / "victim"
    out.mkdir()
    victim.write_text("kept")
    (out / "notes.txt").write_text("kept")
    cfg = write_config(tmp_path, n=1, times=["t_max"], shots=64)
    names = ["stale.csv", "../victim", str(victim), ".", "..", "", "out/stale.csv", 7, ["stale.csv"]]
    for manifest, stale_left in (("{", True), (json.dumps({"artifacts": names}), False)):
        (out / "stale.csv").write_text("")
        (out / "manifest.json").write_text(manifest)
        assert main(["coherence", "--config", str(cfg)]) == EXIT_OK
        assert (out / "stale.csv").exists() == stale_left
    assert victim.read_text() == (out / "notes.txt").read_text() == "kept"
    assert sorted(p.name for p in out.iterdir()) == ["coherence.csv", "manifest.json", "notes.txt"]


def test_misshapen_values_are_config_errors_before_any_run(tmp_path, monkeypatch):
    # a JSON list or object where a key takes neither, and a shot count
    # above what numpy's multinomial draws, exit 2 for every command before
    # any state is evolved or any output directory is made
    calls = Counter()
    for name in ("run_statevector", "run_density"):
        monkeypatch.setattr(cli, name, lambda *args, _name=name, **kwargs: calls.update([_name]))
    monkeypatch.chdir(tmp_path)
    keys = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name not in ("times", "sizes", "noise")]
    cases = [{key: value} for key in keys for value in (["full"], {"a": 1})]
    cases += [{"shots": 1e30}, {"shots": 2**63}]
    for overrides in cases:
        cfg = write_config(tmp_path, **overrides)
        for command in cli._COMMANDS:
            assert main([command, "--config", str(cfg)]) == EXIT_CONFIG, (command, overrides)
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"], overrides
    assert not calls


def test_readout_only_noise_runs_as_a_statevector(tmp_path):
    # past the density-run cap, and with no noisy curve to write
    cfg = write_config(tmp_path, n=10, times=["t_max"], noise={"readout_flip": 0.02})
    assert main(["darwinism", "--config", str(cfg)]) == EXIT_OK
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["artifacts"] == ["mi_t00_ideal.csv"]


def test_resolved_config_reads_back_equal():
    raw = {
        "scenario": "full",
        "n": 3,
        "theta": 1.0,
        "lam": 0.5,
        "times": [0.3, 0.1],
        "shots": 100,
        "seed": 5,
        "noise": {
            "depol_1q": 0.01,
            "depol_2q": 0.02,
            "amp_damp_gamma": 0.03,
            "readout_flip": 0.04,
            "idle_noise": True,
        },
        "coupling_map": "line",
        "partition": "per_qubit",
        "outputs": "elsewhere",
        "phi_steps": 5,
        "xi_steps": 7,
        "fraction_units": 2,
        "sizes": [1, 2],
        "include_tomography": True,
        "sampled": True,
        "tol": 1e-5,
        "max_iters": 10,
        "jobs": 2,
    }
    cfg = ExperimentConfig.from_dict(raw)
    defaults = ExperimentConfig.from_dict({"scenario": "condensed", "n": 2, "times": [0.0]})
    for owner, default in ((cfg, defaults), (cfg.noise, defaults.noise)):
        for field in dataclasses.fields(owner):
            assert getattr(owner, field.name) != getattr(default, field.name), field.name
    assert ExperimentConfig.from_dict(cfg.resolved_dict()) == cfg
    assert json.loads(json.dumps(cfg.resolved_dict())) == cfg.resolved_dict()
    # an integer-valued probability reads back as a float
    whole = ExperimentConfig.from_dict(dict(raw, noise={"readout_flip": 1}))
    assert repr(whole.resolved_dict()["noise"]["readout_flip"]) == "1.0"


def test_seed_override_changes_samples(tmp_path):
    cfg = write_config(tmp_path, n=1, times=[0.5], shots=256)
    assert main(["coherence", "--config", str(cfg)]) == EXIT_OK
    base = data_lines(tmp_path / "out" / "coherence.csv")[1]
    assert main(["coherence", "--config", str(cfg), "--seed", "99", "--out", str(tmp_path / "re")]) == EXIT_OK
    reseeded = data_lines(tmp_path / "re" / "coherence.csv")[1]
    assert base.split(",")[3] != reseeded.split(",")[3]
    assert base.split(",")[1] == reseeded.split(",")[1]  # analytic column unchanged


def test_argument_errors_exit_2(tmp_path):
    # no command, an unknown command, and a command without --config
    cfg = str(write_config(tmp_path))
    for argv in ([], ["nope", "--config", cfg], ["coherence"]):
        with pytest.raises(SystemExit) as refused:
            main(argv)
        assert refused.value.code == 2


def test_config_errors(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    bad_key = write_config(tmp_path, bogus=1)
    assert main(["coherence", "--config", str(bad_key)]) == EXIT_CONFIG
    missing = tmp_path / "nope.json"
    assert main(["coherence", "--config", str(missing)]) == EXIT_CONFIG
    not_json = tmp_path / "bad.json"
    not_json.write_text("{")
    assert main(["coherence", "--config", str(not_json)]) == EXIT_CONFIG
    bad_scenario = write_config(tmp_path, scenario="hybrid")
    assert main(["coherence", "--config", str(bad_scenario)]) == EXIT_CONFIG
    no_times = tmp_path / "nt.json"
    no_times.write_text(json.dumps({"scenario": "condensed", "n": 1, "outputs": str(tmp_path)}))
    assert main(["coherence", "--config", str(no_times)]) == EXIT_CONFIG
    tilted = write_config(tmp_path, scenario="full", theta=1.0)
    assert main(["coherence", "--config", str(tilted)]) == EXIT_CONFIG
    too_big = write_config(tmp_path, n=3, times=["t_max"], partition="per_qubit", fraction_units=9)
    assert main(["cmi", "--config", str(too_big)]) == EXIT_CONFIG
    # a one-step grid axis is a config error before any compute, exact or sampled
    one_phi = write_config(tmp_path, n=1, times=["t_max"], phi_steps=1)
    assert main(["compare", "--config", str(one_phi)]) == EXIT_CONFIG
    one_xi = write_config(tmp_path, n=1, times=["t_max"], xi_steps=1, sampled=True)
    assert main(["cmi", "--config", str(one_xi)]) == EXIT_CONFIG
    # booleans and integers parse strictly: no truthy strings, no truncation
    for command, overrides in (
        ("cmi", {"times": ["t_max"], "sampled": "false"}),
        ("darwinism", {"include_tomography": "no"}),
        ("darwinism", {"noise": {"depol_1q": 0.01, "idle_noise": "false"}}),
        ("darwinism", {"include_tomography": 1}),
        ("coherence", {"n": 2.7}),
        ("coherence", {"n": True}),
        ("coherence", {"n": "2"}),
        ("coherence", {"shots": 1024.5}),
        ("coherence", {"seed": 7.5}),
        ("cmi", {"times": ["t_max"], "phi_steps": 3.5}),
        ("cmi", {"times": ["t_max"], "xi_steps": 3.5}),
        ("darwinism", {"fraction_units": 1.5}),
        ("tomo", {"n": 1, "times": ["t_max"], "max_iters": 10.5}),
        ("coherence", {"jobs": 1.5}),
        ("darwinism", {"sizes": [1.5]}),
        ("coherence", {"times": {"start": 0.0, "stop": 1.0, "count": 2.5}}),
        # numbers are JSON numbers, never booleans or numeric strings
        ("darwinism", {"noise": {"depol_1q": True}}),
        ("coherence", {"lam": True}),
        ("coherence", {"lam": "2"}),
        ("coherence", {"theta": "3.141592653589793"}),
        ("tomo", {"n": 1, "times": ["t_max"], "tol": "1e-7"}),
        ("coherence", {"times": [True]}),
        ("coherence", {"times": {"start": "0", "stop": 1.0, "count": 3}}),
        ("coherence", {"lam": 10**400}),
        # and names are strings
        ("coherence", {"outputs": 5}),
        ("route", {"times": ["t_max"], "coupling_map": 7}),
        # numbers out of range, and registers no simulator here can hold
        ("coherence", {"times": [float("nan")]}),
        ("coherence", {"lam": float("inf")}),
        ("coherence", {"times": {"start": 0.0, "stop": float("inf"), "count": 3}}),
        ("darwinism", {"times": {"start": float("-inf"), "stop": 1.0, "count": 3}}),
        ("coherence", {"times": []}),
        ("darwinism", {"times": {"start": 0.0, "stop": 1.0, "count": 0}}),
        ("tomo", {"n": 1, "times": []}),
        ("tomo", {"n": 1, "times": ["t_max"], "max_iters": 0}),
        ("tomo", {"n": 1, "times": ["t_max"], "tol": -1}),
        ("tomo", {"n": 1, "times": ["t_max"], "tol": float("nan")}),
        ("tomo", {"n": 1, "times": ["t_max"], "dilution": 0.1}),  # no longer a key
        # a negative seed, before the state is evolved
        ("coherence", {"seed": -1}),
        ("tomo", {"n": 1, "times": ["t_max"], "seed": -1}),
        ("cmi", {"times": ["t_max"], "seed": -1}),
        ("cmi", {"times": ["t_max"], "sampled": True, "seed": -1}),
        ("coherence", {"n": 40}),
        ("route", {"scenario": "full", "n": 8, "times": ["t_max"]}),
        ("darwinism", {"n": 10, "noise": {"depol_1q": 0.01}}),
        ("tomo", {"n": 5, "times": ["t_max"]}),
        ("darwinism", {"n": 5, "include_tomography": True}),
        # a partition the register does not have, and sizes out of range or
        # none at all, before the state is evolved
        ("darwinism", {"partition": "ancillae_only"}),
        ("cmi", {"times": ["t_max"], "partition": "ancillae_only"}),
        ("compare", {"partition": "ancillae_only"}),
        ("compare", {"sizes": []}),
        ("compare", {"sizes": [3]}),
        ("compare", {"sizes": [0]}),
        # counts below their least value
        ("coherence", {"shots": 0}),
        ("coherence", {"shots": -3}),
        ("coherence", {"jobs": 0}),
        # a grid whose span overflows a float, refused before it is built
        ("coherence", {"times": {"start": -1.7e308, "stop": 1.7e308, "count": 3}}),
    ):
        cfg = write_config(tmp_path, **overrides)
        assert main([command, "--config", str(cfg)]) == EXIT_CONFIG, overrides
    # JSON reads 1e400 as inf
    huge = write_config(tmp_path)
    huge.write_text(huge.read_text().replace(f"{T_MAX!r}]", "1e400]"))
    assert "1e400" in huge.read_text()
    assert main(["coherence", "--config", str(huge)]) == EXIT_CONFIG
    # sizes are a list of distinct sizes, and the error says which rule broke
    capsys.readouterr()
    for sizes, reason in ((2, "must be a list"), ("12", "must be a list"), ([1, 1], "must not repeat")):
        cfg = write_config(tmp_path, sizes=sizes)
        assert main(["compare", "--config", str(cfg)]) == EXIT_CONFIG
        assert reason in capsys.readouterr().err, sizes
    assert not (tmp_path / "out").exists() and not (tmp_path / "5").exists()
    # a register larger than the device is rejected before any compute
    line3 = tmp_path / "line3.txt"
    line3.write_text("3\n0 1\n1 2\n")
    small = write_config(tmp_path, scenario="full", n=3, times=["t_max"], coupling_map=str(line3))
    assert main(["route", "--config", str(small)]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()
    # and so is a device past the statevector cap, which the routing report
    # could not check
    line17 = tmp_path / "line17.txt"
    line17.write_text("17\n" + "".join(f"{q} {q + 1}\n" for q in range(16)))
    wide = write_config(tmp_path, scenario="full", n=1, times=["t_max"], coupling_map=str(line17))
    assert main(["route", "--config", str(wide)]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()
    # an integral-valued number is an integer
    whole = write_config(tmp_path, n=1.0, times=[0.3], shots=128.0)
    assert main(["coherence", "--config", str(whole)]) == EXIT_OK


def test_config_paths_fail_as_config_errors(tmp_path, monkeypatch, capsys):
    # a coupling map that names a directory, and an output directory that is
    # a file or lies under one, exit 2 before any state is evolved
    calls = Counter()
    for name in ("run_statevector", "run_density"):
        monkeypatch.setattr(cli, name, lambda *args, _name=name, **kwargs: calls.update([_name]))
    folder = tmp_path / "maps"
    folder.mkdir()
    cfg = write_config(tmp_path, n=1, times=["t_max"], coupling_map=str(folder))
    assert main(["route", "--config", str(cfg)]) == EXIT_CONFIG
    assert "bad coupling map file" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    for outputs in (blocker, blocker / "out", blocker / "deeper" / "out"):
        for command in cli._COMMANDS:
            cfg = write_config(tmp_path, n=1, times=["t_max"], outputs=str(outputs), noise={"depol_1q": 0.01})
            assert main([command, "--config", str(cfg)]) == EXIT_CONFIG, (command, outputs)
            assert "not a directory" in capsys.readouterr().err
    assert not calls and blocker.read_text() == ""


def test_null_sizes_and_unread_partition_pass(tmp_path):
    # absent or null sizes mean every size; commands that read no partition
    # accept one the register does not have
    for sizes in ({}, {"sizes": None}):
        cfg = write_config(tmp_path, times=["t_max"], phi_steps=3, xi_steps=3, **sizes)
        assert main(["compare", "--config", str(cfg)]) == EXIT_OK
        rows = data_lines(tmp_path / "out" / "compare.csv")[1:]
        assert sorted({int(r.split(",")[1]) for r in rows}) == [1, 2]
    for command in ("coherence", "tomo", "route"):
        cfg = write_config(tmp_path, n=1, times=["t_max"], shots=128, partition="ancillae_only")
        assert main([command, "--config", str(cfg)]) == EXIT_OK, command


def test_neighbouring_seeds_and_times_share_no_stream(tmp_path):
    # each (seed, time index) pair seeds its draws through one SeedSequence,
    # so time 1 of seed 5 draws as time 0 of none of the seeds 5 to 9
    def later(command, times, seed):
        cfg = write_config(tmp_path, times=times, sampled=True, phi_steps=2, xi_steps=3, shots=2**16, seed=seed)
        assert main([command, "--config", str(cfg)]) == EXIT_OK
        if command == "cmi":
            return data_lines(tmp_path / "out" / f"cmi_t{len(times) - 1:02d}.csv")
        return data_lines(tmp_path / "out" / "coherence.csv")[-1]

    for command in ("cmi", "coherence"):
        second = later(command, ["t_max", "t_rec"], 5)
        assert all(second != later(command, ["t_rec"], seed) for seed in range(5, 10)), command

    # and a tomo set of seed 6 is not seed 5's set shifted by one setting
    def records(seed):
        cfg = write_config(tmp_path, n=1, times=["t_max"], shots=256, seed=seed, noise={"depol_1q": 0.05})
        assert main(["tomo", "--config", str(cfg)]) == EXIT_OK
        return [r.counts for r in load_tomography_job(tmp_path / "out" / "job").records]

    first, second = records(5), records(6)
    assert first != second and first[1:] != second[:-1]


def test_stream_seeds_do_not_depend_on_the_numpy_version():
    # numpy keeps SeedSequence's output the same across versions, so these
    # seeds, taken on numpy 2.4.6, hold on every supported numpy; the
    # multinomial draws made from them may not
    pinned = {
        (0, 0): 15793235383387715774,
        (1, 0): 7434755675892716031,
        (5, 1): 17996766564426832300,
        (6, 0): 5459377609256077970,
        (7, 2): 18279110831140952437,
        (2**32, 3): 10553451911785522164,
    }
    for (seed, index), want in pinned.items():
        assert cli._stream_seed(types.SimpleNamespace(seed=seed), index) == want


def test_saved_tomo_job_redraws_from_its_seed(tmp_path):
    # every record of the saved job stores the seed of its set, and that seed
    # redraws the whole set from the noisy state
    noise = {"depol_1q": 0.01, "readout_flip": 0.02}
    path = write_config(tmp_path, n=1, times=["t_max"], shots=512, noise=noise)
    assert main(["tomo", "--config", str(path)]) == EXIT_OK
    records = load_tomography_job(tmp_path / "out" / "job").records
    assert {r.seed for r in records} == {records[0].seed}
    cfg = ExperimentConfig.from_dict(json.loads(path.read_text()))
    state = run_density(build_condensed_circuit(T_MAX, cfg.params), cfg.noise)
    redrawn = sample_pauli_set(state, cfg.shots, records[0].seed, cfg.noise.readout_flip)
    assert records == tuple(redrawn)


def test_worker_count_is_capped(tmp_path, monkeypatch):
    # a pool gets at most one worker per time and per CPU, and one worker
    # runs in this process; the stand-in pool starts no process
    pools = []

    class Pool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    cfg = write_config(tmp_path, n=1, times=[0.2, 0.5], shots=64)
    for cpus, want in ((8, [2]), (2, [2, 2]), (1, [2, 2]), (None, [2, 2])):
        monkeypatch.setattr(cli.os, "cpu_count", lambda cpus=cpus: cpus)
        assert main(["coherence", "--config", str(cfg), "--jobs", "100000"]) == EXIT_OK
        assert pools == want, cpus
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)

    def point(cfg, shared, index, t):
        return shared, index, t

    want = [("s", 0, 0.1), ("s", 1, 0.2), ("s", 2, 0.3)]
    assert cli._pmap(point, types.SimpleNamespace(jobs=3), "s", [0.1, 0.2, 0.3]) == want and pools[-1] == 3
    assert cli._pmap(point, types.SimpleNamespace(jobs=1), "s", [0.1, 0.2, 0.3]) == want and len(pools) == 3


def test_sampled_cmi_applies_readout_flips(tmp_path):
    def grid(noise):
        cfg = write_config(tmp_path, times=["t_max"], sampled=True, phi_steps=4, xi_steps=4, noise=noise)
        assert main(["cmi", "--config", str(cfg)]) == EXIT_OK
        return (tmp_path / "out" / "cmi_t00.csv").read_bytes()

    clean = grid({})
    assert grid({"readout_flip": 0.0}) == clean
    flipped = grid({"readout_flip": 0.4})
    assert flipped.splitlines()[2:] != clean.splitlines()[2:]


def test_numeric_failure_exit_code(tmp_path, monkeypatch, capsys):
    # a failure once the config has passed is a run failure, not a config error
    def fail(*args, **kwargs):
        raise FloatingPointError("overflow in the placement search")

    monkeypatch.setattr(cli, "route", fail)
    cfg = write_config(tmp_path, scenario="full", n=3, times=["t_max"])
    assert main(["route", "--config", str(cfg)]) == EXIT_NUMERIC
    assert "overflow in the placement search" in capsys.readouterr().err


def test_package_exports_every_public_name():
    public = {
        name
        for name, obj in vars(dlab).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert set(dlab.__all__) == public | {"__version__"}
    assert len(dlab.__all__) == len(set(dlab.__all__))


def test_import_leaves_the_process_pool_out():
    # only a run with jobs > 1 imports the process pool; a warning fails the child
    code = "import sys, dlab.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_module_entry_point(tmp_path):
    # the child runs with every warning an error, as the CI benchmark step runs dlab
    cfg = write_config(tmp_path, n=1, times=[0.3], shots=128)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "dlab.cli", "coherence", "--config", str(cfg)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert (tmp_path / "out" / "coherence.csv").exists()
