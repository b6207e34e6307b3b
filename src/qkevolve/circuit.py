"""Ideal statevector simulation of the evolved feature-map circuits.

Conventions fixed here and relied on everywhere else:

- Basis ordering: qubit 0 is the most significant bit of the state index, so
  |q0 q1 .. q_{M-1}> lives at index sum_i q_i * 2^(M-1-i).
- Grid rotations apply exp(-i*a*sigma_axis) with a = theta * x_k for
  input-parameterized gates and a = theta for fixed ones.
- A CNOT gene in row i controls on qubit i and targets qubit (i+1) mod M.
  On a single-qubit grid a CNOT gene degenerates to an identity.
- Kernel values are Re<Phi(x)|Phi(x')>, the real part of the full complex
  inner product; `evolve.train_individual` forms the Gram as F F'^T, one real
  product of the stacked amplitudes F = [Re S, Im S].

`evaluate_states` is the one simulation path, and it never applies a gate to
the full 2^M state. The CNOTs join qubits into clusters (union-find over their
control/target pairs); each cluster evolves on its own 2^k amplitudes, runs of
rotations on one qubit are fused into one per-sample 2x2 block before they
touch a cluster, and the full state is the outer product of the cluster
states. A CNOT-free circuit, the kind the fitness pressure favours, is thus M
independent one-qubit states; a fully entangled one is a single cluster.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .genome import (
    PARAM_KINDS,
    ROTATION_AXIS,
    CircuitGenome,
    GateKind,
    angle_text,
)

class Census(NamedTuple):
    """Per-kind gate counts; one count per grid cell, so they sum to M*N."""

    n_local: int
    n_cnot: int
    n_identity: int


@dataclass(frozen=True)
class CircuitOp:
    """One executable gate. feature_index is set only for input-parameterized
    rotations; target only for CNOTs."""

    kind: GateKind
    qubit: int
    theta: float
    target: int | None = None
    feature_index: int | None = None


@dataclass(frozen=True)
class FeatureMapCircuit:
    """A lowered genome, one op per grid cell in scan order. `census` counts
    the kinds in `ops` on each read, so no stored count can disagree with it."""

    ops: tuple[CircuitOp, ...]
    n_qubits: int
    input_dim: int

    @property
    def census(self) -> Census:
        n_cnot = sum(op.kind is GateKind.CNOT for op in self.ops)
        n_identity = sum(op.kind is GateKind.IDENTITY for op in self.ops)
        return Census(len(self.ops) - n_cnot - n_identity, n_cnot, n_identity)


def axis_rotation(axis: str, angles) -> np.ndarray:
    """exp(-i*a*sigma_axis) for an angle or an array of angles. The matrix
    axes come first: the output shape is (2, 2) + angles.shape."""
    angles = np.asarray(angles, dtype=float)
    c, s = np.cos(angles), np.sin(angles)
    u = np.zeros((2, 2) + angles.shape, dtype=complex)
    if axis == "x":
        u[0, 0] = u[1, 1] = c
        u[0, 1] = u[1, 0] = -1j * s
    elif axis == "y":
        u[0, 0] = u[1, 1] = c
        u[0, 1] = -s
        u[1, 0] = s
    elif axis == "z":
        u[0, 0] = c - 1j * s
        u[1, 1] = c + 1j * s
    else:
        raise ValueError(f"unknown rotation axis {axis!r}")
    return u


def build_feature_map(genome: CircuitGenome, input_dim: int) -> FeatureMapCircuit:
    """Lower a genome to an executable gate list.

    The grid is scanned layer-major (layer by layer, top to bottom), matching
    the bitstring fill order. Each parameterized rotation consumes the next
    input feature, cycling modulo input_dim, so gene position selects which
    variables the classifier reads.
    """
    if input_dim < 1:
        raise ValueError("input_dim must be >= 1")
    m = genome.n_qubits
    ops = []
    slots = itertools.count()  # parameterized rotations seen so far
    for layer in range(genome.n_layers):
        for row in range(m):
            gene = genome.grid[row][layer]
            kind = gene.kind
            if kind is GateKind.CNOT and m == 1:
                kind = GateKind.IDENTITY
            target = (row + 1) % m if kind is GateKind.CNOT else None
            feature_index = next(slots) % input_dim if kind in PARAM_KINDS else None
            ops.append(CircuitOp(kind, row, gene.angle, target=target, feature_index=feature_index))
    return FeatureMapCircuit(ops=tuple(ops), n_qubits=m, input_dim=input_dim)


def _apply_2x2(u: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Per-sample 2x2 blocks u (2, 2, n) acting on axis 1 of states (a, 2, b, n),
    written out elementwise; the sample axis is last so every product runs
    over contiguous samples."""
    return u[:, 0, None] * states[:, :1] + u[:, 1, None] * states[:, 1:]


def _cnot_permutation(k: int, control: int, target: int) -> np.ndarray:
    """Index map of a CNOT on a k-qubit register whose position 0 is the most
    significant bit: new_state = state[perm]."""
    idx = np.arange(1 << k)
    return idx ^ (((idx >> (k - 1 - control)) & 1) << (k - 1 - target))


def evaluate_states(circuit: FeatureMapCircuit, xs: np.ndarray) -> np.ndarray:
    """Feature-map states for a batch of inputs; returns (n, 2^M) amplitudes.

    The gates run in scan order. Each qubit keeps a pending per-sample 2x2
    product of its rotations since its last CNOT; the product is applied to
    the qubit's cluster state only when a CNOT touches the qubit, or at the
    end. A CNOT is an index permutation of its cluster's amplitudes. Cluster
    states are stored as (2^k, n), samples last.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if xs.shape[1] != circuit.input_dim:
        raise ValueError(
            f"input dimension mismatch: circuit expects {circuit.input_dim}, got {xs.shape[1]}"
        )
    n, m = xs.shape[0], circuit.n_qubits

    # Every rotation's per-sample block, from one gather; a fixed rotation
    # reads an appended column of ones. Layout (2, 2, gate, sample).
    rotations = [op for op in circuit.ops if op.kind in ROTATION_AXIS]
    columns = [circuit.input_dim if op.feature_index is None else op.feature_index for op in rotations]
    features = np.concatenate([xs, np.ones((n, 1))], axis=1).T
    angles = np.array([op.theta for op in rotations])[:, None] * features[columns]
    blocks = np.empty((2, 2, len(rotations), n), dtype=complex)
    for axis in "xyz":
        sel = [g for g, op in enumerate(rotations) if ROTATION_AXIS[op.kind] == axis]
        if sel:
            blocks[:, :, sel] = axis_rotation(axis, angles[sel])

    parent = list(range(m))

    def find(q: int) -> int:
        while parent[q] != q:
            q = parent[q]
        return q

    for op in circuit.ops:
        if op.kind is GateKind.CNOT:
            parent[find(op.qubit)] = find(op.target)
    clusters: dict[int, list[int]] = {}
    for q in range(m):
        clusters.setdefault(find(q), []).append(q)
    members = list(clusters.values())
    home = {q: (c, pos) for c, qubits in enumerate(members) for pos, q in enumerate(qubits)}
    states = []
    for qubits in members:
        state = np.zeros((1 << len(qubits), n), dtype=complex)
        state[0] = 1.0
        states.append(state)
    pending: list[np.ndarray | None] = [None] * m

    def flush(q: int) -> None:
        if pending[q] is not None:
            c, pos = home[q]
            shaped = states[c].reshape(1 << pos, 2, -1, n)
            states[c] = _apply_2x2(pending[q], shaped).reshape(-1, n)
            pending[q] = None

    g = 0
    for op in circuit.ops:
        if op.kind is GateKind.CNOT:
            flush(op.qubit)
            flush(op.target)
            c, control = home[op.qubit]
            target = home[op.target][1]
            states[c] = states[c][_cnot_permutation(len(members[c]), control, target)]
        elif op.kind is not GateKind.IDENTITY:
            u, q = blocks[:, :, g], op.qubit
            pending[q] = u if pending[q] is None else _apply_2x2(u, pending[q][None])[0]
            g += 1
    for q in range(m):
        flush(q)

    full = states[0]
    for state in states[1:]:
        full = (full[:, None] * state[None]).reshape(-1, n)
    order = [q for qubits in members for q in qubits]
    axes = [m, *np.argsort(order)]
    return full.reshape((2,) * m + (n,)).transpose(axes).reshape(n, 1 << m)


def complexity(circuit: FeatureMapCircuit) -> float:
    """Weighted gate count per qubit: local rotations weigh 1, CNOTs 2,
    identities 0."""
    census = circuit.census
    return (census.n_local + 2 * census.n_cnot) / circuit.n_qubits


def diagram(circuit: FeatureMapCircuit) -> str:
    """Text rendering, one line per qubit and one column per layer.

    Cells show the cell's own gene: 'Rx(x3·3π/8)' for parameterized rotations,
    'Rz(5π/4)' for fixed ones, '●' for a CNOT control and '—' for identity.
    A cell targeted by the CNOT in the row above is prefixed with '⊕' (the
    target cell still applies its own gate, in scan order).
    """
    m, ops = circuit.n_qubits, circuit.ops
    n_layers = len(ops) // m
    cells = [["" for _ in range(n_layers)] for _ in range(m)]
    targets = set()
    for g, op in enumerate(ops):
        layer, row = divmod(g, m)
        if op.kind is GateKind.IDENTITY:
            text = "—"
        elif op.kind is GateKind.CNOT:
            text = "●"
            targets.add((op.target, layer))
        else:
            name = f"R{ROTATION_AXIS[op.kind]}"
            if op.feature_index is not None:
                text = f"{name}(x{op.feature_index}·{angle_text(round(op.theta * 8 / np.pi))})"
            else:
                text = f"{name}({angle_text(round(op.theta * 8 / np.pi))})"
        cells[row][layer] = text
    for (row, layer) in targets:
        cell = cells[row][layer]
        cells[row][layer] = "⊕" if cell == "—" else "⊕" + cell
    widths = [max(len(cells[r][l]) for r in range(m)) for l in range(n_layers)]
    lines = []
    for r in range(m):
        rendered = "  ".join(cells[r][l].ljust(widths[l]) for l in range(n_layers))
        lines.append(f"q{r}: {rendered}".rstrip())
    return "\n".join(lines)
