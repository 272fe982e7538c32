"""Coupling maps, placement search, SWAP insertion and the zero-SWAP peephole."""
import itertools
import math

import numpy as np
import pytest

from dlab import (
    Circuit,
    CouplingMap,
    Gate,
    GateKind,
    RoutedCircuit,
    Scenario,
    ScmParams,
    build_condensed_circuit,
    build_full_circuit,
    builtin_coupling_map,
    circuit_cnot_count,
    coupling_map_from_file,
    coupling_map_from_text,
    coupling_map_to_text,
    peephole_zero_swap,
    permutation_unitary,
    replay_permutation,
    route,
    routed_statevector_equivalent,
    routed_unitary_equivalent,
)
from dlab.routing import _all_pair_paths, _route_once

T7_EDGES = frozenset({(0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6)})
LINE3 = CouplingMap(3, frozenset({(0, 1), (1, 2)}))
RING4 = CouplingMap(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))


def test_coupling_map_normalization():
    m = CouplingMap(3, frozenset({(1, 0), (2, 1), (0, 1)}))
    assert m.edges == frozenset({(0, 1), (1, 2)})
    assert m.has_edge(2, 1) and not m.has_edge(0, 2)
    assert m.neighbors(1) == (0, 2)


def test_coupling_map_validation():
    with pytest.raises(ValueError):
        CouplingMap(2, frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        CouplingMap(2, frozenset({(0, 5)}))
    with pytest.raises(ValueError):
        CouplingMap(4, frozenset({(0, 1), (2, 3)}))  # disconnected


def test_all_shortest_paths():
    t7 = builtin_coupling_map("t7")
    # a tree: exactly one shortest path between any two nodes
    for s in range(7):
        for d in range(7):
            if s != d:
                assert len(t7.all_shortest_paths(s, d)) == 1
    assert t7.all_shortest_paths(0, 6) == ((0, 1, 3, 5, 6),)
    # a cycle has two equal-length routes between opposite corners
    assert RING4.all_shortest_paths(0, 2) == ((0, 1, 2), (0, 3, 2))


def test_builtin_t7():
    t7 = builtin_coupling_map("t7")
    assert t7.num_physical == 7 and t7.edges == T7_EDGES
    assert sorted(len(t7.neighbors(q)) for q in range(7)) == [1, 1, 1, 1, 2, 3, 3]
    with pytest.raises(ValueError):
        builtin_coupling_map("grid99")


def test_map_text_round_trip(tmp_path):
    t7 = builtin_coupling_map("t7")
    back = coupling_map_from_text(coupling_map_to_text(t7))
    assert back.num_physical == 7 and back.edges == t7.edges
    commented = "# device\n3\n0 1\n\n1 2\n"
    assert coupling_map_from_text(commented).edges == LINE3.edges
    with pytest.raises(ValueError):
        coupling_map_from_text("")
    with pytest.raises(ValueError):
        coupling_map_from_text("3\n0 1 2\n")
    f = tmp_path / "map.txt"
    f.write_text(coupling_map_to_text(t7))
    assert coupling_map_from_file(f).edges == t7.edges


def test_cnot_count():
    c = Circuit(
        3,
        (
            Gate(GateKind.H, (0,)),
            Gate(GateKind.CNOT, (0, 1)),
            Gate(GateKind.CZ, (1, 2)),
            Gate(GateKind.SWAP, (0, 1)),
        ),
    )
    assert circuit_cnot_count(c) == 1 + 1 + 3


def test_route_trivial():
    c = Circuit(2, (Gate(GateKind.H, (0,)), Gate(GateKind.CNOT, (0, 1))))
    rc = route(c, CouplingMap(2, frozenset({(0, 1)})))
    assert rc.swap_count == 0 and rc.placement == {0: 0, 1: 1}
    assert [g.kind for g in rc.circuit.gates] == [GateKind.H, GateKind.CNOT]


def test_route_errors():
    c = Circuit(3, (Gate(GateKind.H, (0,)),))
    with pytest.raises(ValueError):
        route(c, CouplingMap(2, frozenset({(0, 1)})))
    with pytest.raises(ValueError):
        route(c, LINE3, placement={0: 0, 1: 1})  # must cover all logical qubits
    with pytest.raises(ValueError):
        route(c, LINE3, placement={0: 0, 1: 0, 2: 2})


def test_route_full_circuit_on_t7():
    p = ScmParams(theta=math.pi, lam=1.0, n=3, scenario=Scenario.FULL)
    c = build_full_circuit(math.log(2), p)
    t7 = builtin_coupling_map("t7")
    rc = route(c, t7)
    assert rc.swap_count > 0
    assert routed_statevector_equivalent(rc, c, atol=1e-12)
    ph = peephole_zero_swap(rc)
    assert ph.cnot_count < rc.cnot_count  # the rewrite must actually pay off
    assert routed_statevector_equivalent(ph, c, atol=1e-12)
    # routing is deterministic
    again = route(c, t7)
    assert again.placement == rc.placement
    assert again.circuit.gates == rc.circuit.gates


def test_placement_objective_matches_peephole_count():
    # the exhaustive search scores each placement by the CNOT count the
    # zero-SWAP rewrite realizes; both must agree for every placement
    t7 = builtin_coupling_map("t7")
    paths = _all_pair_paths(t7)
    for build, scenario, n in (
        (build_full_circuit, Scenario.FULL, 2),
        (build_condensed_circuit, Scenario.CONDENSED, 3),
    ):
        c = build(math.log(2), ScmParams(theta=math.pi, lam=1.0, n=n, scenario=scenario))
        for perm in itertools.permutations(range(t7.num_physical), c.num_qubits):
            placement = dict(enumerate(perm))
            objective = _route_once(c, t7, placement, paths)[3]
            realized = peephole_zero_swap(route(c, t7, placement=placement)).cnot_count
            assert objective == realized, (scenario, placement)


def test_route_condensed_star_centers_system():
    p = ScmParams(theta=math.pi, lam=1.0, n=6)
    c = build_condensed_circuit(math.log(2), p)
    rc = route(c, builtin_coupling_map("t7"))
    # the system talks to all six pairs, so it should claim a degree-3 hub
    assert rc.placement[0] in (1, 5)
    assert routed_statevector_equivalent(rc, c, atol=1e-12)


def test_route_explicit_placement():
    p = ScmParams(theta=math.pi, lam=1.0, n=2)
    c = build_condensed_circuit(0.5, p)
    rc = route(c, LINE3, placement={0: 1, 1: 0, 2: 2})
    assert rc.swap_count == 0 and rc.placement == {0: 1, 1: 0, 2: 2}
    assert routed_statevector_equivalent(rc, c, atol=1e-12)


def test_routed_circuit_validation():
    with pytest.raises(ValueError):
        RoutedCircuit(
            circuit=Circuit(3, (Gate(GateKind.CNOT, (0, 2)),)),  # not an edge
            coupling_map=LINE3,
            placement={0: 0, 1: 1, 2: 2},
            final_placement={0: 0, 1: 1, 2: 2},
            swap_count=0,
            cnot_count=1,
        )
    with pytest.raises(ValueError):
        RoutedCircuit(
            circuit=Circuit(3, ()),
            coupling_map=LINE3,
            placement={0: 0, 1: 0},
            final_placement={0: 0, 1: 0},
            swap_count=0,
            cnot_count=0,
        )


def _manual_routed(gates, cmap=LINE3):
    n = cmap.num_physical
    ident = {q: q for q in range(n)}
    return RoutedCircuit(
        circuit=Circuit(n, tuple(gates)),
        coupling_map=cmap,
        placement=ident,
        final_placement=ident,
        swap_count=sum(1 for g in gates if g.kind is GateKind.SWAP),
        cnot_count=circuit_cnot_count(Circuit(n, tuple(gates))),
    )


def test_peephole_one_zero_operand():
    rc = _manual_routed([Gate(GateKind.H, (0,)), Gate(GateKind.SWAP, (0, 1))])
    out = peephole_zero_swap(rc)
    assert [(g.kind, g.qubits) for g in out.circuit.gates] == [
        (GateKind.H, (0,)),
        (GateKind.CNOT, (0, 1)),
        (GateKind.CNOT, (1, 0)),
    ]
    assert out.swap_count == 0 and out.cnot_count == 2


def test_peephole_both_zero_dropped():
    rc = _manual_routed([Gate(GateKind.SWAP, (0, 1))])
    assert peephole_zero_swap(rc).circuit.gates == ()


def test_peephole_live_swap_untouched():
    rc = _manual_routed(
        [Gate(GateKind.H, (0,)), Gate(GateKind.H, (1,)), Gate(GateKind.SWAP, (0, 1))]
    )
    out = peephole_zero_swap(rc)
    assert out.circuit.gates[-1].kind is GateKind.SWAP and out.cnot_count == 3


def test_peephole_dataflow_rules():
    # CNOT with a still-zero control leaves the target zero
    rc = _manual_routed([Gate(GateKind.CNOT, (0, 1)), Gate(GateKind.SWAP, (1, 2))])
    out = peephole_zero_swap(rc)
    assert [g.kind for g in out.circuit.gates] == [GateKind.CNOT]
    # a live control poisons the target
    rc = _manual_routed(
        [Gate(GateKind.H, (0,)), Gate(GateKind.CNOT, (0, 1)), Gate(GateKind.SWAP, (1, 2))]
    )
    out = peephole_zero_swap(rc)
    kinds = [g.kind for g in out.circuit.gates]
    assert kinds == [GateKind.H, GateKind.CNOT, GateKind.CNOT, GateKind.CNOT]
    # CZ never clears a zero flag
    rc = _manual_routed(
        [Gate(GateKind.H, (0,)), Gate(GateKind.CZ, (0, 1)), Gate(GateKind.SWAP, (1, 2))]
    )
    out = peephole_zero_swap(rc)
    assert [g.kind for g in out.circuit.gates] == [GateKind.H, GateKind.CZ]
    # explicit known_zero overrides the all-zero default
    rc = _manual_routed([Gate(GateKind.SWAP, (0, 1))])
    out = peephole_zero_swap(rc, known_zero=set())
    assert out.circuit.gates[0].kind is GateKind.SWAP


def test_peephole_rewrite_preserves_state():
    rng = np.random.default_rng(3)
    # random circuits with scattered SWAPs: peephole output must match exactly
    for trial in range(20):
        gates = []
        for _ in range(8):
            r = rng.integers(0, 4)
            if r == 0:
                gates.append(Gate(GateKind.H, (int(rng.integers(0, 3)),)))
            elif r == 1:
                q = int(rng.integers(0, 2))
                gates.append(Gate(GateKind.CNOT, (q, q + 1)))
            elif r == 2:
                q = int(rng.integers(0, 2))
                gates.append(Gate(GateKind.SWAP, (q, q + 1)))
            else:
                gates.append(Gate(GateKind.RY, (int(rng.integers(0, 3)),), 0.7))
        rc = _manual_routed(gates)
        out = peephole_zero_swap(rc)
        from dlab import run_statevector

        a = run_statevector(rc.circuit).amplitudes
        b = run_statevector(out.circuit).amplitudes
        assert np.max(np.abs(a - b)) < 1e-12


def test_unitary_equivalence_small_device():
    p = ScmParams(theta=math.pi, lam=1.0, n=2, scenario=Scenario.FULL)
    c = build_full_circuit(0.4, p)
    cmap = CouplingMap(5, frozenset({(0, 1), (1, 2), (1, 3), (3, 4)}))
    rc = route(c, cmap)
    assert routed_unitary_equivalent(rc, c, atol=1e-10)
    assert routed_statevector_equivalent(rc, c, atol=1e-12)
    ph = peephole_zero_swap(rc)
    assert routed_statevector_equivalent(ph, c, atol=1e-12)


def test_replay_permutation():
    p = ScmParams(theta=math.pi, lam=1.0, n=2)
    c = build_condensed_circuit(0.5, p)
    rc = route(c, RING4)
    init, final = replay_permutation(rc)
    assert all(init[l] == rc.placement[l] for l in rc.placement)
    assert all(final[l] == rc.final_placement[l] for l in rc.final_placement)
    assert sorted(init) == sorted(final) == list(range(4))


def test_permutation_unitary():
    ident = permutation_unitary({0: 0, 1: 1}, 2)
    assert np.allclose(ident, np.eye(4))
    swap = permutation_unitary({0: 1, 1: 0}, 2)
    from dlab import unitary_of

    assert np.allclose(swap, unitary_of(Circuit(2, (Gate(GateKind.SWAP, (0, 1)),))))
    with pytest.raises(ValueError):
        permutation_unitary({0: 0, 1: 0}, 2)


def test_statevector_equivalence_detects_tampering():
    p = ScmParams(theta=math.pi, lam=1.0, n=2)
    c = build_condensed_circuit(0.5, p)
    rc = route(c, LINE3)
    assert routed_statevector_equivalent(rc, c)
    broken = RoutedCircuit(
        circuit=Circuit(
            rc.circuit.num_qubits,
            rc.circuit.gates + (Gate(GateKind.X, (0,)),),
            dict(rc.circuit.labels),
        ),
        coupling_map=rc.coupling_map,
        placement=dict(rc.placement),
        final_placement=dict(rc.final_placement),
        swap_count=rc.swap_count,
        cnot_count=rc.cnot_count,
    )
    assert not routed_statevector_equivalent(broken, c)
