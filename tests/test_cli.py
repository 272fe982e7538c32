"""End-to-end runs of the config-driven command line interface."""
import dataclasses
import json
import math
import subprocess
import sys
import types
from collections import Counter

import numpy as np
import pytest

import dlab
from dlab import canonical_times, cli, load_state_text
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
    sizes = (3, 1, 2)
    for t in canonical_times():
        got = cli._compare_point((ideal, t, sizes))
        want = _all_fraction_compare(ideal, t, sizes)
        assert [r[:2] for r in got] == [r[:2] for r in want]
        assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-12
        # a noisy state falls back to every fraction: the very same rows
        assert cli._compare_point((noisy, t, sizes)) == _all_fraction_compare(noisy, t, sizes)


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


def test_sampled_cmi_seeds_count_on_across_times(tmp_path):
    # cell (i, j) of time NN draws with seed + (NN * phi_steps + i) * xi_steps + j,
    # so the second time's 2 x 3 grid draws as a first time seeded 6 later
    def grid(times, seed):
        cfg = write_config(tmp_path, times=times, sampled=True, phi_steps=2, xi_steps=3, seed=seed)
        assert main(["cmi", "--config", str(cfg)]) == EXIT_OK
        return tmp_path / "out"

    second = data_lines(grid(["t_max", "t_rec"], 5) / "cmi_t01.csv")
    assert second == data_lines(grid(["t_rec"], 11) / "cmi_t00.csv")


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
