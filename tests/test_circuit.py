"""Circuit IR, the two builders and their agreement with the closed-form state."""
import math

import numpy as np
import pytest

from dlab import (
    Circuit,
    Gate,
    GateKind,
    Scenario,
    ScmParams,
    build_condensed_circuit,
    build_full_circuit,
    canonical_times,
    circuit_from_text,
    circuit_to_text,
    ideal_global_state,
    run_statevector,
    unitary_of,
)

FULL3 = ScmParams(theta=math.pi, lam=1.0, n=3, scenario=Scenario.FULL)
COND6 = ScmParams(theta=math.pi, lam=1.0, n=6)


def overlap(a, b):
    return abs(np.vdot(a.amplitudes, b.amplitudes))


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate(GateKind.CNOT, (1, 1))
    with pytest.raises(ValueError):
        Gate(GateKind.X, (0, 1))
    with pytest.raises(ValueError):
        Gate(GateKind.RY, (0,))  # angle required
    with pytest.raises(ValueError):
        Gate(GateKind.H, (0,), angle=0.5)  # angle forbidden
    g = Gate(GateKind.RY, (2,), angle=math.pi / 3)
    assert np.allclose(g.matrix() @ g.matrix().conj().T, np.eye(2))


def test_circuit_validation_and_labels():
    with pytest.raises(ValueError):
        Circuit(1, (Gate(GateKind.CNOT, (0, 1)),))


def test_full_builder_shape():
    c = build_full_circuit(0.5, FULL3)
    assert c.num_qubits == 7 and len(c.gates) == 13
    kinds = [g.kind for g in c.gates]
    assert kinds == [
        GateKind.RY, GateKind.CNOT, GateKind.X,
        GateKind.RY, GateKind.CNOT, GateKind.X,
        GateKind.RY, GateKind.CNOT, GateKind.X,
        GateKind.H, GateKind.CZ, GateKind.CZ, GateKind.CZ,
    ]
    # pairs sit at (1+2i, 2+2i); CZs touch the ancillae, each unit's last qubit
    assert [g.qubits for g in c.gates[10:]] == [(0, 2), (0, 4), (0, 6)]
    assert [g.qubits[1] for g in c.gates[10:]] == [unit[-1] for unit in FULL3.units]
    assert c.gates[0].qubits == (1,) and c.gates[1].qubits == (1, 2)


def test_condensed_builder_shape():
    c = build_condensed_circuit(0.5, COND6)
    assert c.num_qubits == 7 and len(c.gates) == 13
    assert [g.kind for g in c.gates[:6]] == [GateKind.RY] * 6
    assert c.gates[6].kind is GateKind.H and c.gates[6].qubits == (0,)
    assert [g.qubits for g in c.gates[7:]] == [(0, i) for i in range(1, 7)]


def test_builder_guards():
    with pytest.raises(ValueError):
        build_full_circuit(0.5, COND6)
    with pytest.raises(ValueError):
        build_condensed_circuit(0.5, FULL3)
    tilted = ScmParams(theta=math.pi / 2, lam=1.0, n=1, scenario=Scenario.FULL)
    with pytest.raises(ValueError):
        build_full_circuit(0.5, tilted)


def test_circuits_match_ideal_state():
    tm = canonical_times()
    times = (0.0, tm.t_close, tm.t_max, tm.t_rec)
    for p, build in ((FULL3, build_full_circuit), (COND6, build_condensed_circuit)):
        for t in times:
            psi = run_statevector(build(t, p))
            assert overlap(psi, ideal_global_state(t, p)) > 1 - 1e-12


def test_single_pair_bell_at_t_max():
    p = ScmParams(theta=math.pi, lam=1.0, n=1)
    psi = run_statevector(build_condensed_circuit(math.log(2), p))
    bell_like = np.array([1, 1, 1, -1], dtype=complex) / 2
    assert np.max(np.abs(psi.amplitudes - bell_like)) < 1e-12


def test_unitary_of_basics():
    h = Circuit(1, (Gate(GateKind.H, (0,)),))
    assert np.allclose(unitary_of(h), np.array([[1, 1], [1, -1]]) / math.sqrt(2))
    # qubit order matters: CNOT(0,1) and CNOT(1,0) differ
    a = unitary_of(Circuit(2, (Gate(GateKind.CNOT, (0, 1)),)))
    b = unitary_of(Circuit(2, (Gate(GateKind.CNOT, (1, 0)),)))
    assert np.max(np.abs(a - b)) > 0.5
    sw = unitary_of(Circuit(2, (Gate(GateKind.SWAP, (0, 1)),)))
    assert np.allclose(sw @ a @ sw, b)
    with pytest.raises(ValueError):
        unitary_of(build_full_circuit(0.5, FULL3))  # 7 qubits exceeds the dense guard


def test_unitary_composition_order():
    # gates compose left to right: X then H equals H @ X as matrices
    c = Circuit(1, (Gate(GateKind.X, (0,)), Gate(GateKind.H, (0,))))
    hx = _FIXED_H @ _FIXED_X
    assert np.allclose(unitary_of(c), hx)


_FIXED_X = np.array([[0, 1], [1, 0]], dtype=complex)
_FIXED_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def test_text_round_trip():
    c = build_full_circuit(0.7, FULL3)
    back = circuit_from_text(circuit_to_text(c), num_qubits=c.num_qubits)
    assert back.num_qubits == c.num_qubits
    assert all(a.kind is b.kind and a.qubits == b.qubits for a, b in zip(back.gates, c.gates))
    # angles survive exactly through repr
    assert all(a.angle == b.angle for a, b in zip(back.gates, c.gates))


def test_text_parsing():
    text = "# header comment\n\nry 0 1.5707963267948966\nCNOT 0 1\n  # indented comment\nx 1\n"
    c = circuit_from_text(text)
    assert c.num_qubits == 2 and len(c.gates) == 3
    assert c.gates[0].kind is GateKind.RY and c.gates[0].angle == 1.5707963267948966
    with pytest.raises(ValueError, match="line 1"):
        circuit_from_text("BOGUS 0\n")
    with pytest.raises(ValueError, match="line 1"):
        circuit_from_text("RY 0\n")  # angle field missing
    with pytest.raises(ValueError, match="line 2"):
        circuit_from_text("H 0\nCNOT 0 1 2\n")
