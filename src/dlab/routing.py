"""Topology-aware routing onto restricted coupling maps.

Placement search is exhaustive over injective assignments (small registers
only), scored by post-decomposition CNOT count: CNOT=CZ=1, SWAP=3, except
that a SWAP, inserted or in the input, whose operand is provably still |0>
decomposes to 2 CNOTs (or vanishes when both are), so the objective is the
count the device actually executes after the zero-SWAP rewrite.
Connectivity violations are repaired greedily per gate by walking one
operand along a shortest path, picking the cheapest (path, direction) under
the same accounting.

The search stays exact while doing little per placement, in the spirit of
exact qubit allocation with pruning (Siraichi et al., "Qubit allocation",
CGO 2018; Zulehner, Paler and Wille, IEEE TCAD 38(7), 2019). The |0> flags
and each gate's own cost do not depend on the placement and are computed
once per `route` call; a path choice is memoised on (source slot, target
slot, slot |0> flags); a walk stops as soon as it cannot beat the best
score so far; and only the winner is walked again to emit its gates.
"""
from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, Gate, GateKind
from .qstate import PureState

EXHAUSTIVE_PLACEMENT_MAX = 8
# largest entry deviation each routed-equivalence check accepts
_STATEVECTOR_ATOL = 1e-12
_UNITARY_ATOL = 1e-10

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
        if self.num_physical > 0 and len(self._distances(0)) != self.num_physical:
            raise ValueError("coupling map is not connected")

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    def neighbors(self, q: int) -> tuple[int, ...]:
        return self._adj[q]

    def _distances(self, src: int) -> dict[int, int]:
        """Hop count from `src` to every node reachable from it (breadth first)."""
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in self.neighbors(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    def all_shortest_paths(self, src: int, dst: int) -> tuple[tuple[int, ...], ...]:
        """Every shortest path src->dst, sorted lexicographically."""
        dist = self._distances(src)
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

    @property
    def cnot_count(self) -> int:
        return circuit_cnot_count(self.circuit)


def _swap_exec_cost(u: int, v: int, zero: int) -> tuple[int, int]:
    """Executable CNOTs for SWAP(u, v) given the |0> flags `zero` (bit u set
    while wire u is provably |0>), and the flags after it: a SWAP always
    just exchanges them."""
    zu, zv = zero >> u & 1, zero >> v & 1
    if zu != zv:
        zero ^= 1 << u | 1 << v
    return (3, 2, 0)[zu + zv], zero


def _note_zero(kind: GateKind, qubits: tuple[int, ...], zero: int) -> int:
    """|0> flags after a non-SWAP gate: a 1-qubit gate clears its wire, a
    CNOT clears its target unless its control is still |0>, and CZ on
    |0> x anything is the identity."""
    if kind is GateKind.CNOT:
        if not zero >> qubits[0] & 1:
            zero &= ~(1 << qubits[1])
    elif kind is not GateKind.CZ:
        zero &= ~(1 << qubits[0])
    return zero


def _choose_path(paths: tuple[tuple[int, ...], ...], zero: int):
    """Cheapest way to bring the ends of `paths` (every shortest path
    between two slots) next to each other, with `zero` the slots' |0>
    flags: each path in both directions, the operand at its start swapped
    along it, scored by `_swap_exec_cost`; ties go to the forward direction,
    then the least path. Returns the SWAP cost, the slots whose occupants
    move, the slot each one lands on, the SWAPs and where the two operands
    end up."""
    best = None
    for path in paths:
        for reverse in (False, True):
            seq = path[::-1] if reverse else path
            trial, cost = zero, 0
            for u, v in zip(seq, seq[1:-1]):
                c, trial = _swap_exec_cost(u, v, trial)
                cost += c
            key = (cost, reverse, path)
            if best is None or key < best[0]:
                best = (key, seq)
    (cost, reverse, _), seq = best
    # the mover lands next to the other operand; everyone it passes steps back
    ends = (seq[-1], seq[-2]) if reverse else (seq[-2], seq[-1])
    return cost, seq[:-1], (seq[-2], *seq[:-2]), tuple(zip(seq, seq[1:-1])), ends


@dataclass
class _Plan:
    """What every walk of one `route` call shares.

    The |0> flags follow a wire's content, and routing SWAPs move content
    with its flag, so the flags of the logical qubits (idle slots padded in
    as extra ids, always |0>) evolve the same way under every placement.
    They are computed here once, by `_note_zero` and `_swap_exec_cost`, and
    so is every gate's own cost: CNOT = CZ = 1, an input SWAP what the
    zero-SWAP rewrite leaves of it. The only cost a placement changes is
    that of the routing SWAPs.

    `ops` holds one (first logical qubit, second or -1, logical qubits
    still |0> before the gate, Gate) per gate and `routed_ops` the 2-qubit
    ones; `fixed` is the gates' own cost; `adjacent[p]` has bit q set when
    (p, q) is an edge; `memo` maps (source slot, target slot, slot |0>
    flags) to `_choose_path`'s answer.
    """

    ops: tuple
    routed_ops: tuple
    fixed: int
    num_physical: int
    adjacent: tuple[int, ...]
    paths: dict
    memo: dict = field(default_factory=dict)


def _plan(c: Circuit, cmap: CouplingMap) -> _Plan:
    zero = (1 << cmap.num_physical) - 1
    fixed = 0
    ops = []
    for g in c.gates:
        live = tuple(l for l in range(cmap.num_physical) if zero >> l & 1)
        ops.append((g.qubits[0], g.qubits[1] if len(g.qubits) == 2 else -1, live, g))
        if g.kind is GateKind.SWAP:
            cost, zero = _swap_exec_cost(*g.qubits, zero)
            fixed += cost
        else:
            fixed += _CNOT_COST.get(g.kind, 0)
            zero = _note_zero(g.kind, g.qubits, zero)
    adjacent = tuple(sum(1 << q for q in cmap.neighbors(p)) for p in range(cmap.num_physical))
    return _Plan(
        ops=tuple(ops),
        routed_ops=tuple(op for op in ops if op[1] >= 0),
        fixed=fixed,
        num_physical=cmap.num_physical,
        adjacent=adjacent,
        paths=_all_pair_paths(cmap),
    )


def _walk(plan: _Plan, perm: tuple[int, ...], bound: float = math.inf, out: list | None = None):
    """Greedy walk of the plan's circuit from `perm` (logical qubit l starts
    on slot perm[l]), scored by the CNOT count the device executes after the
    zero-SWAP rewrite. A non-adjacent gate first moves one operand along
    the `_choose_path` answer for its slots and the slots' |0> flags.

    Routing SWAPs cost at least 0, so the walk gives up, returning None,
    as soon as its score can no longer fall below `bound`. Otherwise it
    returns the score, the final slot of every logical qubit (idle slots
    padded in as extra ids) and the number of inserted SWAPs, and appends
    the routed (kind, physical qubits, angle) triples to `out` if given:
    only then are 1-qubit gates visited at all."""
    budget = bound - plan.fixed
    if budget <= 0:
        return None
    memo, paths, adjacent = plan.memo, plan.paths, plan.adjacent
    num_physical = plan.num_physical
    l2p = list(perm)
    if len(l2p) < num_physical:
        l2p += sorted(set(range(num_physical)).difference(perm))
    p2l = sorted(range(num_physical), key=l2p.__getitem__)
    routed = swaps = 0
    for a, b, live, gate in plan.routed_ops if out is None else plan.ops:
        pa = l2p[a]
        if b < 0:
            out.append((gate.kind, (pa,), gate.angle))
            continue
        pb = l2p[b]
        if not adjacent[pa] >> pb & 1:
            zero = 0
            for l in live:
                zero |= 1 << l2p[l]
            key = (pa, pb, zero)
            choice = memo.get(key)
            if choice is None:
                choice = memo[key] = _choose_path(paths[pa, pb], zero)
            cost, src, dst, inserted, (pa, pb) = choice
            routed += cost
            if routed >= budget:
                return None
            for l, p in zip([p2l[s] for s in src], dst):
                l2p[l] = p
                p2l[p] = l
            swaps += len(inserted)
            if out is not None:
                out.extend((GateKind.SWAP, uv, None) for uv in inserted)
        if out is not None:
            out.append((gate.kind, (pa, pb), gate.angle))
    return plan.fixed + routed, l2p, swaps


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
    rewrite (ties broken by lexicographic placement); larger devices keep
    the identity placement. The returned circuit keeps its SWAPs intact;
    `peephole_zero_swap` realizes the discount, and `swap_count` counts the
    SWAPs routing inserted.

    The candidates are only scored, each walk stopping once it cannot beat
    the best score so far (a later placement wins only with a strictly
    lower one); the winner is walked once more to emit its gates."""
    if c.num_qubits > cmap.num_physical:
        raise ValueError(
            f"circuit needs {c.num_qubits} qubits but the device has {cmap.num_physical}"
        )
    if placement is not None:
        if set(placement) != set(range(c.num_qubits)):
            raise ValueError("placement must cover exactly the logical qubits")
        if len(set(placement.values())) != len(placement):
            raise ValueError("placement is not injective")
        if any(not 0 <= p < cmap.num_physical for p in placement.values()):
            raise ValueError("placement targets a slot outside the device")
        candidates = [tuple(placement[q] for q in range(c.num_qubits))]
    elif cmap.num_physical > EXHAUSTIVE_PLACEMENT_MAX:
        candidates = [tuple(range(c.num_qubits))]
    else:
        candidates = itertools.permutations(range(cmap.num_physical), c.num_qubits)
    plan = _plan(c, cmap)
    best, winner = math.inf, None
    for perm in candidates:
        walk = _walk(plan, perm, best)
        if walk is not None:
            best, winner = walk[0], perm
    out = []
    _, l2p, swaps = _walk(plan, winner, out=out)
    routed = Circuit(cmap.num_physical, tuple(Gate(kind, qubits, angle) for kind, qubits, angle in out))
    return RoutedCircuit(
        circuit=routed,
        coupling_map=cmap,
        placement=dict(enumerate(winner)),
        final_placement={q: l2p[q] for q in range(c.num_qubits)},
        swap_count=swaps,
    )


def peephole_zero_swap(rc: RoutedCircuit) -> RoutedCircuit:
    """Rewrite SWAPs with one operand provably in |0>: two CNOTs do the job.

    Zero-ness is tracked by forward dataflow from initialization (every slot
    starts in |0>). A SWAP between two zero slots is dropped outright.
    """
    zero = (1 << rc.circuit.num_qubits) - 1
    gates = []
    for g in rc.circuit.gates:
        if g.kind is GateKind.SWAP:
            a, b = g.qubits
            src, dst = (b, a) if zero >> a & 1 else (a, b)
            # the placement objective's SWAP cost is the rewrite: 0 drops it,
            # 2 means dst is |0> (CNOT(src,dst) copies, CNOT(dst,src) clears
            # the source), 3 keeps it
            cost, zero = _swap_exec_cost(a, b, zero)
            if cost == 2:
                gates.append(Gate(GateKind.CNOT, (src, dst)))
                gates.append(Gate(GateKind.CNOT, (dst, src)))
            elif cost == 3:
                gates.append(g)
            continue
        gates.append(g)
        zero = _note_zero(g.kind, g.qubits, zero)
    circuit = Circuit(rc.circuit.num_qubits, tuple(gates))
    return RoutedCircuit(
        circuit=circuit,
        coupling_map=rc.coupling_map,
        placement=dict(rc.placement),
        final_placement=dict(rc.final_placement),
        swap_count=sum(1 for g in gates if g.kind is GateKind.SWAP),
    )


def _padded(mapping: dict[int, int], num_physical: int) -> dict[int, int]:
    """`mapping` with each idle slot, in slot order, taken by one more
    logical id counting up from len(mapping)."""
    used = set(mapping.values())
    idle = [p for p in range(num_physical) if p not in used]
    return mapping | dict(zip(itertools.count(len(mapping)), idle))


def replay_permutation(rc: RoutedCircuit) -> tuple[dict[int, int], dict[int, int]]:
    """Initial and final slot maps with idle slots padded in as extra logical
    ids, recovered by replaying the SWAP gates. Only meaningful before
    `peephole_zero_swap` rewrites SWAPs away."""
    init = _padded(rc.placement, rc.coupling_map.num_physical)
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
    eye = np.eye(dim, dtype=complex).reshape([2] * num_qubits + [dim])
    return _to_slots(eye, mapping).reshape(dim, dim)


def _to_slots(a: np.ndarray, mapping: dict[int, int]) -> np.ndarray:
    """`a` with its leading register axes permuted so that logical qubit l's
    axis becomes axis mapping[l]; any further axes stay behind them."""
    inv = {p: l for l, p in mapping.items()}
    n = len(mapping)
    return np.transpose(a, [inv[p] for p in range(n)] + list(range(n, a.ndim)))


def routed_statevector_equivalent(rc: RoutedCircuit, original: Circuit) -> bool:
    """Check |psi_routed> equals the permuted original state with idle slots
    in |0>. Valid before and after the zero-SWAP peephole."""
    from .simulator import run_statevector

    psi = run_statevector(original).amplitudes
    phi = run_statevector(rc.circuit).amplitudes
    num_physical = rc.coupling_map.num_physical
    mapping = _padded(rc.final_placement, num_physical)
    idle = PureState.zero(num_physical - original.num_qubits).amplitudes
    full = np.kron(psi, idle).reshape([2] * num_physical)
    expected = _to_slots(full, mapping).reshape(-1)
    return bool(np.max(np.abs(phi - expected)) <= _STATEVECTOR_ATOL)


def routed_unitary_equivalent(rc: RoutedCircuit, original: Circuit) -> bool:
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
    return bool(np.max(np.abs(u_routed - expected)) <= _UNITARY_ATOL)
