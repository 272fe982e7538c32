"""Topology-aware routing onto restricted coupling maps.

Placement search is exhaustive over injective assignments (small registers
only), scored by post-decomposition CNOT count: CNOT=CZ=1, SWAP=3, except
that a SWAP whose operand is provably still |0> decomposes to 2 CNOTs (or
vanishes when both are), so the objective is the count the device actually
executes after the zero-SWAP rewrite. Connectivity violations are repaired
greedily per gate by walking one operand along a shortest path, picking the
cheapest (path, direction) under the same accounting.
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, Gate, GateKind

EXHAUSTIVE_PLACEMENT_MAX = 8

_CNOT_COST = {GateKind.CNOT: 1, GateKind.CZ: 1, GateKind.SWAP: 3}

_BUILTIN_MAPS = {
    # 7-node T-shaped device: a 0-1-2 arm, a 1-3-5 spine and a 4-5-6 arm.
    "t7": (7, ((0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6))),
}


@dataclass(frozen=True)
class CouplingMap:
    """Undirected connectivity graph over physical qubits."""

    num_physical: int
    edges: frozenset[tuple[int, int]]
    _adj: dict[int, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        norm = set()
        for e in self.edges:
            u, v = e
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            if not (0 <= u < self.num_physical and 0 <= v < self.num_physical):
                raise ValueError(f"edge {e} outside {self.num_physical} nodes")
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(norm))
        adj = {q: [] for q in range(self.num_physical)}
        for u, v in norm:
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "_adj", {q: tuple(sorted(ns)) for q, ns in adj.items()})
        if self.num_physical > 0:
            seen = {0}
            queue = deque([0])
            while queue:
                for nb in self._adj[queue.popleft()]:
                    if nb not in seen:
                        seen.add(nb)
                        queue.append(nb)
            if len(seen) != self.num_physical:
                raise ValueError("coupling map is not connected")

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    def neighbors(self, q: int) -> tuple[int, ...]:
        return self._adj[q]

    def all_shortest_paths(self, src: int, dst: int) -> tuple[tuple[int, ...], ...]:
        """Every shortest path src->dst, sorted lexicographically."""
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in self.neighbors(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        if dst not in dist:
            raise ValueError(f"no path from {src} to {dst}")
        found = []

        def back(node, acc):
            if node == src:
                found.append((src, *acc))
                return
            for u in self.neighbors(node):
                if dist.get(u, -1) == dist[node] - 1:
                    back(u, [node, *acc])

        back(dst, [])
        return tuple(sorted(found))


def builtin_coupling_map(name: str) -> CouplingMap:
    if name not in _BUILTIN_MAPS:
        raise ValueError(f"unknown coupling map {name!r}, available: {sorted(_BUILTIN_MAPS)}")
    n, edges = _BUILTIN_MAPS[name]
    return CouplingMap(n, frozenset(edges))


def coupling_map_from_text(text: str) -> CouplingMap:
    """First line is the node count, then one `u v` edge per line."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty coupling map text")
    num = int(lines[0])
    edges = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        edges.add((int(parts[0]), int(parts[1])))
    return CouplingMap(num, frozenset(edges))


def coupling_map_to_text(cmap: CouplingMap) -> str:
    lines = [str(cmap.num_physical)]
    lines += [f"{u} {v}" for u, v in sorted(cmap.edges)]
    return "\n".join(lines) + "\n"


def coupling_map_from_file(path) -> CouplingMap:
    with open(path, "r", encoding="utf-8") as fh:
        return coupling_map_from_text(fh.read())


def circuit_cnot_count(c: Circuit) -> int:
    return sum(_CNOT_COST.get(g.kind, 0) for g in c.gates)


@dataclass(frozen=True)
class RoutedCircuit:
    """Routing result: hardware-conformant circuit plus the qubit bookkeeping.

    `placement` maps each logical qubit to its initial physical slot,
    `final_placement` to where routing SWAPs left it.
    """

    circuit: Circuit
    coupling_map: CouplingMap
    placement: dict[int, int]
    final_placement: dict[int, int]
    swap_count: int
    cnot_count: int

    def __post_init__(self):
        for g in self.circuit.gates:
            if len(g.qubits) == 2 and not self.coupling_map.has_edge(*g.qubits):
                raise ValueError(f"gate {g} not on a coupling edge")
        for name, mapping in (("placement", self.placement), ("final_placement", self.final_placement)):
            if len(set(mapping.values())) != len(mapping):
                raise ValueError(f"{name} is not injective")
            if any(not 0 <= p < self.coupling_map.num_physical for p in mapping.values()):
                raise ValueError(f"{name} targets a slot outside the device")
        if set(self.placement) != set(self.final_placement):
            raise ValueError("placement and final_placement cover different logical qubits")


def _swap_exec_cost(u: int, v: int, zero: set[int]) -> int:
    """Executable CNOTs for SWAP(u, v) given which slots are still |0>, and
    the |0> flags updated in place (a SWAP always just exchanges them)."""
    zu, zv = u in zero, v in zero
    if zu != zv:
        zero.discard(u if zu else v)
        zero.add(v if zu else u)
    if zu and zv:
        return 0
    return 2 if (zu or zv) else 3


def _note_zero(g: Gate, zero: set[int]) -> None:
    if g.kind in (GateKind.X, GateKind.H, GateKind.RY):
        zero.discard(g.qubits[0])
    elif g.kind is GateKind.CNOT:
        if g.qubits[0] not in zero:
            zero.discard(g.qubits[1])
    # CZ on |0> x anything is the identity, flags survive


def _route_once(c: Circuit, cmap: CouplingMap, placement: dict[int, int], paths):
    """Greedy walk: per non-adjacent gate, try every shortest path in both
    directions and keep the cheapest under zero-SWAP accounting. Returns the
    gate list, the final logical->physical map, the SWAP tally and the
    executable CNOT count used as the placement objective."""
    l2p = dict(placement)
    p2l = {p: None for p in range(cmap.num_physical)}
    for l, p in placement.items():
        p2l[p] = l
    zero = set(range(cmap.num_physical))
    gates = []
    swaps = 0
    exec_cost = 0
    for g in c.gates:
        if len(g.qubits) == 1:
            moved = Gate(g.kind, (l2p[g.qubits[0]],), g.angle)
            gates.append(moved)
            _note_zero(moved, zero)
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
                        cost += _swap_exec_cost(seq[i], seq[i + 1], trial)
                    key = (cost, reverse, path)
                    if best is None or key < best[0]:
                        best = (key, seq)
            seq = best[1]
            for i in range(len(seq) - 2):
                u, v = seq[i], seq[i + 1]
                gates.append(Gate(GateKind.SWAP, (u, v)))
                swaps += 1
                exec_cost += _swap_exec_cost(u, v, zero)
                lu, lv = p2l[u], p2l[v]
                if lu is not None:
                    l2p[lu] = v
                if lv is not None:
                    l2p[lv] = u
                p2l[u], p2l[v] = lv, lu
        moved = Gate(g.kind, (l2p[a], l2p[b]), g.angle)
        gates.append(moved)
        _note_zero(moved, zero)
        exec_cost += _CNOT_COST.get(g.kind, 0)
    return gates, l2p, swaps, exec_cost


def _assemble(c, cmap, placement, gates, l2p, swaps):
    labels = {l2p[q]: role for q, role in c.labels.items()}
    routed = Circuit(cmap.num_physical, tuple(gates), labels)
    return RoutedCircuit(
        circuit=routed,
        coupling_map=cmap,
        placement=dict(placement),
        final_placement={l: l2p[l] for l in placement},
        swap_count=swaps,
        cnot_count=circuit_cnot_count(routed),
    )


def _all_pair_paths(cmap: CouplingMap):
    return {
        (s, d): cmap.all_shortest_paths(s, d)
        for s in range(cmap.num_physical)
        for d in range(cmap.num_physical)
        if s != d
    }


def route(c: Circuit, cmap: CouplingMap, *, placement: dict[int, int] | None = None) -> RoutedCircuit:
    """Map `c` onto `cmap`. Without an explicit placement, every injective
    assignment is tried on devices of up to 8 qubits and the cheapest routed
    circuit wins, cost being the executable CNOT count after the zero-SWAP
    rewrite (ties broken by lexicographic placement). The returned circuit
    keeps its SWAPs intact; `peephole_zero_swap` realizes the discount."""
    if c.num_qubits > cmap.num_physical:
        raise ValueError(
            f"circuit needs {c.num_qubits} qubits but the device has {cmap.num_physical}"
        )
    paths = _all_pair_paths(cmap)
    if placement is not None:
        if set(placement) != set(range(c.num_qubits)):
            raise ValueError("placement must cover exactly the logical qubits")
        if len(set(placement.values())) != len(placement):
            raise ValueError("placement is not injective")
        gates, l2p, swaps, _ = _route_once(c, cmap, placement, paths)
        return _assemble(c, cmap, placement, gates, l2p, swaps)
    if cmap.num_physical > EXHAUSTIVE_PLACEMENT_MAX:
        # big devices: skip the exhaustive search, keep the identity seed
        placement = {q: q for q in range(c.num_qubits)}
        gates, l2p, swaps, _ = _route_once(c, cmap, placement, paths)
        return _assemble(c, cmap, placement, gates, l2p, swaps)
    best = None
    for perm in itertools.permutations(range(cmap.num_physical), c.num_qubits):
        cand = {q: perm[q] for q in range(c.num_qubits)}
        gates, l2p, swaps, exec_cost = _route_once(c, cmap, cand, paths)
        key = (exec_cost, perm)
        if best is None or key < best[0]:
            best = (key, cand, gates, l2p, swaps)
    _, placement, gates, l2p, swaps = best
    return _assemble(c, cmap, placement, gates, l2p, swaps)


def peephole_zero_swap(rc: RoutedCircuit, known_zero: set[int] | None = None) -> RoutedCircuit:
    """Rewrite SWAPs with one operand provably in |0>: two CNOTs do the job.

    Zero-ness is tracked by forward dataflow from initialization (every slot
    starts in |0>). A SWAP between two zero slots is dropped outright.
    """
    zero = set(range(rc.circuit.num_qubits)) if known_zero is None else set(known_zero)
    gates = []
    for g in rc.circuit.gates:
        if g.kind is GateKind.SWAP:
            a, b = g.qubits
            src, dst = (b, a) if a in zero else (a, b)
            # the placement objective's SWAP cost is the rewrite: 0 drops it,
            # 2 means dst is |0> (CNOT(src,dst) copies, CNOT(dst,src) clears
            # the source), 3 keeps it
            cost = _swap_exec_cost(a, b, zero)
            if cost == 2:
                gates.append(Gate(GateKind.CNOT, (src, dst)))
                gates.append(Gate(GateKind.CNOT, (dst, src)))
            elif cost == 3:
                gates.append(g)
            continue
        gates.append(g)
        _note_zero(g, zero)
    circuit = Circuit(rc.circuit.num_qubits, tuple(gates), dict(rc.circuit.labels))
    return RoutedCircuit(
        circuit=circuit,
        coupling_map=rc.coupling_map,
        placement=dict(rc.placement),
        final_placement=dict(rc.final_placement),
        swap_count=sum(1 for g in gates if g.kind is GateKind.SWAP),
        cnot_count=circuit_cnot_count(circuit),
    )


def replay_permutation(rc: RoutedCircuit) -> tuple[dict[int, int], dict[int, int]]:
    """Initial and final slot maps with idle slots padded in as extra logical
    ids, recovered by replaying the SWAP gates. Only meaningful before
    `peephole_zero_swap` rewrites SWAPs away."""
    num_logical = len(rc.placement)
    init = dict(rc.placement)
    used = set(init.values())
    pad = num_logical
    for p in range(rc.coupling_map.num_physical):
        if p not in used:
            init[pad] = p
            pad += 1
    p2l = {p: l for l, p in init.items()}
    for g in rc.circuit.gates:
        if g.kind is GateKind.SWAP:
            a, b = g.qubits
            p2l[a], p2l[b] = p2l[b], p2l[a]
    final = {l: p for p, l in p2l.items()}
    return init, final


def permutation_unitary(mapping: dict[int, int], num_qubits: int) -> np.ndarray:
    """Matrix sending the state of logical register x to slot register y with
    y[mapping[l]] = x[l]. `mapping` must be a bijection on range(num_qubits)."""
    if sorted(mapping) != list(range(num_qubits)) or sorted(mapping.values()) != list(
        range(num_qubits)
    ):
        raise ValueError("mapping must be a bijection on the register")
    dim = 2**num_qubits
    mat = np.zeros((dim, dim), dtype=complex)
    for x in range(dim):
        y = 0
        for l in range(num_qubits):
            bit = (x >> (num_qubits - 1 - l)) & 1
            y |= bit << (num_qubits - 1 - mapping[l])
        mat[y, x] = 1.0
    return mat


def routed_statevector_equivalent(rc: RoutedCircuit, original: Circuit, atol: float = 1e-12) -> bool:
    """Check |psi_routed> equals the permuted original state with idle slots
    in |0>. Valid before and after the zero-SWAP peephole."""
    from .simulator import run_statevector

    psi = run_statevector(original).amplitudes
    phi = run_statevector(rc.circuit).amplitudes
    num_physical = rc.coupling_map.num_physical
    mapping = dict(rc.final_placement)
    used = set(mapping.values())
    pad = original.num_qubits
    for p in range(num_physical):
        if p not in used:
            mapping[pad] = p
            pad += 1
    full = psi.reshape([2] * original.num_qubits)
    for _ in range(num_physical - original.num_qubits):
        full = np.stack([full, np.zeros_like(full)], axis=-1)
    inv = {p: l for l, p in mapping.items()}
    expected = np.transpose(full, axes=[inv[p] for p in range(num_physical)]).reshape(-1)
    return bool(np.max(np.abs(phi - expected)) <= atol)


def routed_unitary_equivalent(rc: RoutedCircuit, original: Circuit, atol: float = 1e-10) -> bool:
    """Exact operator check U_routed = P_final (U_orig x I_idle) P_init^-1.

    Needs SWAPs intact (pre-peephole) and a device small enough for dense
    unitaries."""
    from .circuit import unitary_of

    init, final = replay_permutation(rc)
    num_physical = rc.coupling_map.num_physical
    u_orig = unitary_of(original)
    pad_dim = 2 ** (num_physical - original.num_qubits)
    u_ext = np.kron(u_orig, np.eye(pad_dim, dtype=complex))
    p_init = permutation_unitary(init, num_physical)
    p_final = permutation_unitary(final, num_physical)
    u_routed = unitary_of(rc.circuit)
    expected = p_final @ u_ext @ p_init.conj().T
    return bool(np.max(np.abs(u_routed - expected)) <= atol)
