"""Coupling maps, placement search, SWAP insertion and the zero-SWAP peephole."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    canonical_times,
    circuit_cnot_count,
    circuit_from_text,
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
from dlab.circuit import GATE_ARITY
from dlab.routing import EXHAUSTIVE_PLACEMENT_MAX, _all_pair_paths, _placements, _plan, _scores, _walk

T7_EDGES = frozenset({(0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6)})
LINE3 = CouplingMap(3, frozenset({(0, 1), (1, 2)}))
RING4 = CouplingMap(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))
RING6 = CouplingMap(6, frozenset((q, (q + 1) % 6) for q in range(6)))
GRID23 = CouplingMap(6, frozenset({(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)}))
LINE9 = CouplingMap(9, frozenset((q, q + 1) for q in range(8)))

_LOOP_CNOT_COST = {GateKind.CNOT: 1, GateKind.CZ: 1}


def _loop_swap_cost(u, v, zero):
    zu, zv = u in zero, v in zero
    if zu != zv:
        zero.discard(u if zu else v)
        zero.add(v if zu else u)
    if zu and zv:
        return 0
    return 2 if (zu or zv) else 3


def _loop_note_zero(g, zero):
    if g.kind in (GateKind.X, GateKind.H, GateKind.RY):
        zero.discard(g.qubits[0])
    elif g.kind is GateKind.CNOT:
        if g.qubits[0] not in zero:
            zero.discard(g.qubits[1])


def _loop_route_once(c, cmap, placement, paths):
    # builds a Gate per step and walks the chosen path a second time
    l2p = dict(placement)
    p2l = {p: None for p in range(cmap.num_physical)}
    for l, p in placement.items():
        p2l[p] = l
    zero = set(range(cmap.num_physical))
    gates = []
    exec_cost = 0
    for g in c.gates:
        if len(g.qubits) == 1:
            moved = Gate(g.kind, (l2p[g.qubits[0]],), g.angle)
            gates.append(moved)
            _loop_note_zero(moved, zero)
            continue
        a, b = g.qubits
        pa, pb = l2p[a], l2p[b]
        if not cmap.has_edge(pa, pb):
            best = None
            for path in paths[(pa, pb)]:
                for reverse in (False, True):
                    seq = path[::-1] if reverse else path
                    trial = set(zero)
                    cost = 0
                    for i in range(len(seq) - 2):
                        cost += _loop_swap_cost(seq[i], seq[i + 1], trial)
                    key = (cost, reverse, path)
                    if best is None or key < best[0]:
                        best = (key, seq)
            seq = best[1]
            for i in range(len(seq) - 2):
                u, v = seq[i], seq[i + 1]
                gates.append(Gate(GateKind.SWAP, (u, v)))
                exec_cost += _loop_swap_cost(u, v, zero)
                lu, lv = p2l[u], p2l[v]
                if lu is not None:
                    l2p[lu] = v
                if lv is not None:
                    l2p[lv] = u
                p2l[u], p2l[v] = lv, lu
        moved = Gate(g.kind, (l2p[a], l2p[b]), g.angle)
        gates.append(moved)
        _loop_note_zero(moved, zero)
        if g.kind is GateKind.SWAP:
            # an input SWAP costs what the zero-SWAP rewrite leaves of it
            exec_cost += _loop_swap_cost(*moved.qubits, zero)
        else:
            exec_cost += _LOOP_CNOT_COST.get(g.kind, 0)
    return gates, l2p, exec_cost


def loop_route(c, cmap, placement=None):
    """Reference: one branch per placement source, each routing and
    assembling on its own, with every candidate's gates built."""
    paths = _all_pair_paths(cmap)
    if placement is None and cmap.num_physical > EXHAUSTIVE_PLACEMENT_MAX:
        placement = {q: q for q in range(c.num_qubits)}
    if placement is not None:
        gates, l2p, _ = _loop_route_once(c, cmap, placement, paths)
    else:
        best = None
        for perm in itertools.permutations(range(cmap.num_physical), c.num_qubits):
            cand = {q: perm[q] for q in range(c.num_qubits)}
            gates, l2p, exec_cost = _loop_route_once(c, cmap, cand, paths)
            key = (exec_cost, perm)
            if best is None or key < best[0]:
                best = (key, cand, gates, l2p)
        _, placement, gates, l2p = best
    routed = Circuit(cmap.num_physical, tuple(gates))
    return RoutedCircuit(
        circuit=routed,
        coupling_map=cmap,
        placement=dict(placement),
        final_placement={l: l2p[l] for l in placement},
    )


def assert_same_routing(got, want):
    assert got.placement == want.placement
    assert got.final_placement == want.final_placement
    assert got.circuit.gates == want.circuit.gates
    assert (got.swap_count, got.cnot_count) == (want.swap_count, want.cnot_count)


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


def test_coupling_map_refuses_a_negative_node_count():
    with pytest.raises(ValueError, match="node count"):
        coupling_map_from_text("-3")
    with pytest.raises(ValueError, match="node count"):
        CouplingMap(-1, frozenset())


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
    assert routed_statevector_equivalent(rc, c)
    ph = peephole_zero_swap(rc)
    assert ph.cnot_count < rc.cnot_count  # the rewrite must actually pay off
    assert routed_statevector_equivalent(ph, c)
    # routing is deterministic
    again = route(c, t7)
    assert again.placement == rc.placement
    assert again.circuit.gates == rc.circuit.gates


def test_placement_objective_matches_peephole_count():
    # the exhaustive search scores each placement by the CNOT count the
    # zero-SWAP rewrite realizes; both must agree for every placement
    t7 = builtin_coupling_map("t7")
    for build, scenario, n in (
        (build_full_circuit, Scenario.FULL, 2),
        (build_condensed_circuit, Scenario.CONDENSED, 3),
    ):
        c = build(math.log(2), ScmParams(theta=math.pi, lam=1.0, n=n, scenario=scenario))
        perms = _placements(t7.num_physical, c.num_qubits)
        objectives = _scores(_plan(c, t7), perms).tolist()
        for perm, objective in zip(perms[:, : c.num_qubits].tolist(), objectives):
            placement = dict(enumerate(perm))
            rc = route(c, t7, placement=placement)
            assert_same_routing(rc, loop_route(c, t7, placement))
            realized = peephole_zero_swap(rc).cnot_count
            assert objective == realized, (scenario, placement)


@pytest.mark.parametrize(
    "build, scenario, n",
    [(build_full_circuit, Scenario.FULL, 3), (build_condensed_circuit, Scenario.CONDENSED, 6)],
)
def test_route_matches_the_loop_on_the_benchmark_circuits(build, scenario, n):
    # the two circuits the benchmark routes, searched exhaustively on t7
    c = build(canonical_times().t_max, ScmParams(theta=math.pi, lam=1.0, n=n, scenario=scenario))
    t7 = builtin_coupling_map("t7")
    rc = route(c, t7)
    assert_same_routing(rc, loop_route(c, t7))
    assert _walk(_plan(c, t7), tuple(rc.placement[q] for q in range(c.num_qubits)))[0] == (
        peephole_zero_swap(rc).cnot_count
    )
    assert_scores_match_the_loop(c, t7)


def assert_scores_match_the_loop(c, cmap):
    """`_scores` of every placement equals the cost the loop referee executes from it."""
    paths = _all_pair_paths(cmap)
    perms = _placements(cmap.num_physical, c.num_qubits)
    want = [_loop_route_once(c, cmap, dict(enumerate(p)), paths)[2] for p in perms[:, : c.num_qubits].tolist()]
    assert _scores(_plan(c, cmap), perms).tolist() == want


@pytest.mark.parametrize("num_physical", range(1, EXHAUSTIVE_PLACEMENT_MAX + 1))
def test_placements_are_the_permutations_padded_with_idle_slots(num_physical):
    for k in range(1, num_physical + 1):
        perms = _placements(num_physical, k).tolist()
        assert [tuple(p[:k]) for p in perms] == list(itertools.permutations(range(num_physical), k))
        assert all(p[k:] == sorted(set(range(num_physical)) - set(p[:k])) for p in perms)


@st.composite
def routing_problems(draw):
    """A random circuit over every GateKind, input SWAPs included, on 2-5
    logical qubits; a connected map of up to 6 nodes (random, or a ring or
    grid whose equal shortest paths exercise the tie-break), or the 9-node
    line that skips the exhaustive search; and sometimes an explicit
    placement."""
    cmap = draw(st.sampled_from((None, LINE9, RING4, RING6, GRID23)))
    if cmap is None:
        num = draw(st.integers(2, 6))
        edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, num)}
        pairs = list(itertools.combinations(range(num), 2))
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=6)))
        cmap = CouplingMap(num, frozenset(edges))
    n = draw(st.integers(2, min(5, cmap.num_physical)))
    gates = []
    for _ in range(draw(st.integers(1, 16))):
        kind = draw(st.sampled_from(list(GateKind)))
        qubits = tuple(draw(st.permutations(range(n)))[: GATE_ARITY[kind]])
        angle = draw(st.floats(-math.pi, math.pi)) if kind is GateKind.RY else None
        gates.append(Gate(kind, qubits, angle))
    placement = None
    if draw(st.booleans()):
        placement = dict(enumerate(draw(st.permutations(range(cmap.num_physical)))[:n]))
    return Circuit(n, tuple(gates)), cmap, placement


@settings(max_examples=100, deadline=None)
@given(routing_problems())
def test_route_matches_the_loop(problem):
    c, cmap, placement = problem
    rc = route(c, cmap, placement=placement)
    assert_same_routing(rc, loop_route(c, cmap, placement))
    # the winning score is the count the zero-SWAP rewrite realizes, input SWAPs included
    perm = tuple(rc.placement[q] for q in range(c.num_qubits))
    assert _walk(_plan(c, cmap), perm)[0] == peephole_zero_swap(rc).cnot_count
    if placement is None and cmap.num_physical <= EXHAUSTIVE_PLACEMENT_MAX:
        assert_scores_match_the_loop(c, cmap)


def test_input_swaps_are_scored_as_realized():
    line2 = CouplingMap(2, frozenset({(0, 1)}))
    for c, cmap, realized in (
        (Circuit(2, (Gate(GateKind.SWAP, (0, 1)),)), line2, 0),
        (
            Circuit(3, (Gate(GateKind.H, (0,)), Gate(GateKind.SWAP, (0, 1)), Gate(GateKind.CZ, (0, 2)))),
            LINE3,
            5,
        ),
    ):
        placement = tuple(range(c.num_qubits))
        rc = route(c, cmap, placement=dict(enumerate(placement)))
        assert _walk(_plan(c, cmap), placement)[0] == realized
        assert peephole_zero_swap(rc).cnot_count == realized


def test_swap_count_of_route_and_of_the_peephole():
    # both count every SWAP in their circuit, the input's included
    c = circuit_from_text("H 0\nH 1\nSWAP 0 1\nCNOT 0 1\n")
    rc = route(c, builtin_coupling_map("t7"))
    assert rc.swap_count == 1
    assert peephole_zero_swap(rc).swap_count == 1


def test_zero_cost_input_swaps_are_scored_free():
    # both input SWAPs meet two |0> wires and vanish, so no score charges
    # them. The identity placement must route SWAP(2, 0) past the live
    # qubit 1 at 2 CNOTs; {0: 1, 1: 0, 2: 2} needs no routing and wins with 0.
    c = Circuit(3, (Gate(GateKind.SWAP, (1, 0)), Gate(GateKind.H, (1,)), Gate(GateKind.SWAP, (2, 0))))
    perms = _placements(3, 3)
    scores = dict(zip(map(tuple, perms.tolist()), _scores(_plan(c, LINE3), perms).tolist()))
    assert scores[0, 1, 2] == 2
    rc = route(c, LINE3)
    assert rc.placement == {0: 1, 1: 0, 2: 2}
    assert_same_routing(rc, loop_route(c, LINE3))
    assert scores[1, 0, 2] == peephole_zero_swap(rc).cnot_count == 0


def test_route_builds_gates_only_for_the_winner(monkeypatch):
    c = build_condensed_circuit(math.log(2), ScmParams(theta=math.pi, lam=1.0, n=3))
    built = []
    check = Gate.__post_init__
    monkeypatch.setattr(Gate, "__post_init__", lambda g: built.append(g) or check(g))
    rc = route(c, builtin_coupling_map("t7"))
    assert built == list(rc.circuit.gates)


def test_route_condensed_star_centers_system():
    p = ScmParams(theta=math.pi, lam=1.0, n=6)
    c = build_condensed_circuit(math.log(2), p)
    rc = route(c, builtin_coupling_map("t7"))
    # the system talks to all six pairs, so it should claim a degree-3 hub
    assert rc.placement[0] in (1, 5)
    assert routed_statevector_equivalent(rc, c)


def test_route_explicit_placement():
    p = ScmParams(theta=math.pi, lam=1.0, n=2)
    c = build_condensed_circuit(0.5, p)
    rc = route(c, LINE3, placement={0: 1, 1: 0, 2: 2})
    assert rc.swap_count == 0 and rc.placement == {0: 1, 1: 0, 2: 2}
    assert routed_statevector_equivalent(rc, c)


def test_routed_circuit_validation():
    with pytest.raises(ValueError):
        RoutedCircuit(
            circuit=Circuit(3, (Gate(GateKind.CNOT, (0, 2)),)),  # not an edge
            coupling_map=LINE3,
            placement={0: 0, 1: 1, 2: 2},
            final_placement={0: 0, 1: 1, 2: 2},
        )
    with pytest.raises(ValueError):
        RoutedCircuit(
            circuit=Circuit(3, ()),
            coupling_map=LINE3,
            placement={0: 0, 1: 0},
            final_placement={0: 0, 1: 0},
        )


def _manual_routed(gates, cmap=LINE3):
    n = cmap.num_physical
    ident = {q: q for q in range(n)}
    return RoutedCircuit(
        circuit=Circuit(n, tuple(gates)),
        coupling_map=cmap,
        placement=ident,
        final_placement=ident,
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
    assert routed_unitary_equivalent(rc, c)
    assert routed_statevector_equivalent(rc, c)
    ph = peephole_zero_swap(rc)
    assert routed_statevector_equivalent(ph, c)


def test_unitary_equivalence_with_input_swaps():
    # an input SWAP is a gate of the original and relabels nothing; only the
    # SWAPs routing inserted move the slot maps
    for text in ("H 0\nH 1\nSWAP 0 1\nCNOT 0 1\n", "H 0\nH 2\nSWAP 0 1\nCNOT 1 2\nSWAP 2 0\nCZ 0 1\n"):
        c = circuit_from_text(text)
        for cmap in (LINE3, RING4):
            rc = route(c, cmap)
            assert routed_statevector_equivalent(rc, c)
            assert routed_unitary_equivalent(rc, c), (text, cmap)
            init, final = replay_permutation(rc, c)
            assert {l: final[l] for l in rc.final_placement} == rc.final_placement
    c = circuit_from_text("H 0\nH 2\nSWAP 0 1\nCNOT 1 2\nSWAP 2 0\nCZ 0 1\n")
    rc = route(c, RING4)
    assert rc.swap_count > 2  # routing inserted SWAPs beside the input's two

    def altered(circuit=rc.circuit, final_placement=rc.final_placement):
        return RoutedCircuit(circuit, rc.coupling_map, dict(rc.placement), dict(final_placement))

    tampered = altered(circuit=Circuit(rc.circuit.num_qubits, rc.circuit.gates + (Gate(GateKind.X, (0,)),)))
    assert not routed_unitary_equivalent(tampered, c)
    # a published final map that is not where the SWAPs left the qubits
    wrong = dict(rc.final_placement)
    wrong[0], wrong[1] = wrong[1], wrong[0]
    assert not routed_unitary_equivalent(altered(final_placement=wrong), c)
    # the peephole rewrote a SWAP: no longer the original plus routing SWAPs
    ph = peephole_zero_swap(rc)
    assert ph.circuit != rc.circuit and replay_permutation(ph, c) is None
    assert not routed_unitary_equivalent(ph, c) and routed_statevector_equivalent(ph, c)


def test_replay_permutation():
    p = ScmParams(theta=math.pi, lam=1.0, n=2)
    c = build_condensed_circuit(0.5, p)
    rc = route(c, RING4)
    init, final = replay_permutation(rc, c)
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


def test_permutation_unitary_is_real():
    assert permutation_unitary({0: 2, 1: 0, 2: 1}, 3).dtype == np.float64


def test_statevector_equivalence_detects_tampering():
    p = ScmParams(theta=math.pi, lam=1.0, n=2)
    c = build_condensed_circuit(0.5, p)
    rc = route(c, LINE3)
    assert routed_statevector_equivalent(rc, c)
    broken = RoutedCircuit(
        circuit=Circuit(rc.circuit.num_qubits, rc.circuit.gates + (Gate(GateKind.X, (0,)),)),
        coupling_map=rc.coupling_map,
        placement=dict(rc.placement),
        final_placement=dict(rc.final_placement),
    )
    assert not routed_statevector_equivalent(broken, c)
