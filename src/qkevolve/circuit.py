"""Ideal statevector simulation of the evolved feature-map circuits.

Conventions fixed here and relied on everywhere else:

- Basis ordering: qubit 0 is the most significant bit of the state index, so
  |q0 q1 .. q_{M-1}> lives at index sum_i q_i * 2^(M-1-i).
- Grid rotations apply exp(-i*a*sigma_axis) with a = theta * x_k for
  input-parameterized gates and a = theta for fixed ones. The textbook
  half-angle primitives rx/ry/rz (= exp(-i*theta*sigma/2)) are exposed as
  constants-of-reference only; evolved circuits never use them directly.
- A CNOT gene in row i controls on qubit i and targets qubit (i+1) mod M.
  On a single-qubit grid a CNOT gene degenerates to an identity.
- Kernel values are Re<Phi(x)|Phi(x')>, the real part taken after the full
  complex inner product (and, for the per-qubit factorized form, after the
  complex product across qubits).
"""

from __future__ import annotations

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

CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
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
    ops: tuple[CircuitOp, ...]
    n_qubits: int
    input_dim: int
    census: Census


@dataclass(eq=False)
class KernelMatrix:
    """Gram block of Re<Phi(row_i)|Phi(col_j)> values."""

    values: np.ndarray
    row_points: np.ndarray
    col_points: np.ndarray


def _rotation_block(axis: str, angles: np.ndarray) -> np.ndarray:
    """exp(-i*a*sigma_axis) for a batch of angles; output shape angles.shape + (2, 2)."""
    angles = np.asarray(angles, dtype=float)
    c, s = np.cos(angles), np.sin(angles)
    u = np.zeros(angles.shape + (2, 2), dtype=complex)
    if axis == "x":
        u[..., 0, 0] = c
        u[..., 1, 1] = c
        u[..., 0, 1] = -1j * s
        u[..., 1, 0] = -1j * s
    elif axis == "y":
        u[..., 0, 0] = c
        u[..., 1, 1] = c
        u[..., 0, 1] = -s
        u[..., 1, 0] = s
    elif axis == "z":
        u[..., 0, 0] = np.exp(-1j * angles)
        u[..., 1, 1] = np.exp(1j * angles)
    else:
        raise ValueError(f"unknown rotation axis {axis!r}")
    return u


def axis_rotation(axis: str, angle: float) -> np.ndarray:
    """The 2x2 unitary exp(-i*angle*sigma_axis)."""
    return _rotation_block(axis, np.float64(angle))


def rx(theta: float) -> np.ndarray:
    """Half-angle primitive exp(-i*theta*sigma_x/2)."""
    return axis_rotation("x", theta / 2.0)


def ry(theta: float) -> np.ndarray:
    return axis_rotation("y", theta / 2.0)


def rz(theta: float) -> np.ndarray:
    return axis_rotation("z", theta / 2.0)


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
    n_local = n_cnot = n_identity = 0
    param_count = 0
    for layer in range(genome.n_layers):
        for row in range(m):
            gene = genome.grid[row][layer]
            kind = gene.kind
            if kind is GateKind.CNOT and m == 1:
                kind = GateKind.IDENTITY
            if kind is GateKind.IDENTITY:
                n_identity += 1
                ops.append(CircuitOp(kind=GateKind.IDENTITY, qubit=row, theta=gene.angle))
            elif kind is GateKind.CNOT:
                n_cnot += 1
                ops.append(
                    CircuitOp(kind=kind, qubit=row, theta=gene.angle, target=(row + 1) % m)
                )
            elif kind in PARAM_KINDS:
                n_local += 1
                ops.append(
                    CircuitOp(
                        kind=kind,
                        qubit=row,
                        theta=gene.angle,
                        feature_index=param_count % input_dim,
                    )
                )
                param_count += 1
            else:
                n_local += 1
                ops.append(CircuitOp(kind=kind, qubit=row, theta=gene.angle))
    return FeatureMapCircuit(
        ops=tuple(ops),
        n_qubits=m,
        input_dim=input_dim,
        census=Census(n_local, n_cnot, n_identity),
    )


def zero_state(n_qubits: int) -> np.ndarray:
    state = np.zeros(1 << n_qubits, dtype=complex)
    state[0] = 1.0
    return state


def _apply_single_batch(states: np.ndarray, u: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    batch = states.shape[0]
    shaped = states.reshape(batch, 1 << qubit, 2, -1)
    if u.ndim == 2:
        out = np.einsum("ab,xibj->xiaj", u, shaped)
    else:
        out = np.einsum("xab,xibj->xiaj", u, shaped)
    return out.reshape(batch, 1 << n_qubits)


def _apply_cnot_batch(states: np.ndarray, control: int, target: int, n_qubits: int) -> np.ndarray:
    idx = np.arange(1 << n_qubits)
    on = ((idx >> (n_qubits - 1 - control)) & 1) == 1
    src = idx ^ (1 << (n_qubits - 1 - target))
    out = states.copy()
    out[:, on] = states[:, src[on]]
    return out


def _apply_op_batch(
    states: np.ndarray, op: CircuitOp, xs: np.ndarray | None, n_qubits: int
) -> np.ndarray:
    if op.kind is GateKind.IDENTITY:
        return states
    if op.kind is GateKind.CNOT:
        return _apply_cnot_batch(states, op.qubit, op.target, n_qubits)
    axis = ROTATION_AXIS[op.kind]
    if op.feature_index is None:
        u = axis_rotation(axis, op.theta)
    else:
        if xs is None:
            raise ValueError("parameterized gate needs an input feature value")
        u = _rotation_block(axis, op.theta * xs[:, op.feature_index])
    return _apply_single_batch(states, u, op.qubit, n_qubits)


def apply_gate(state: np.ndarray, op: CircuitOp, feature: float | None = None) -> np.ndarray:
    """Apply one gate to a single statevector; `feature` is the x_k value for
    parameterized rotations and ignored otherwise."""
    state = np.asarray(state, dtype=complex)
    n_qubits = int(state.size).bit_length() - 1
    if 1 << n_qubits != state.size:
        raise ValueError("statevector length must be a power of two")
    xs = None
    if op.feature_index is not None:
        if feature is None:
            raise ValueError("parameterized gate needs an input feature value")
        xs = np.zeros((1, op.feature_index + 1))
        xs[0, op.feature_index] = feature
    return _apply_op_batch(state[None, :], op, xs, n_qubits)[0]


def evaluate_states(circuit: FeatureMapCircuit, xs: np.ndarray) -> np.ndarray:
    """Feature-map states for a batch of inputs; returns (n, 2^M) amplitudes."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if xs.shape[1] != circuit.input_dim:
        raise ValueError(
            f"input dimension mismatch: circuit expects {circuit.input_dim}, got {xs.shape[1]}"
        )
    states = np.zeros((xs.shape[0], 1 << circuit.n_qubits), dtype=complex)
    states[:, 0] = 1.0
    for op in circuit.ops:
        states = _apply_op_batch(states, op, xs, circuit.n_qubits)
    return states


def evaluate_state(circuit: FeatureMapCircuit, x: np.ndarray) -> np.ndarray:
    """State U(x)|0..0> for a single input vector."""
    return evaluate_states(circuit, np.asarray(x, dtype=float)[None, :])[0]


def kernel(circuit: FeatureMapCircuit, x: np.ndarray, x_other: np.ndarray) -> float:
    """Re<Phi(x)|Phi(x')>."""
    sx = evaluate_state(circuit, x)
    sy = evaluate_state(circuit, x_other)
    return float(np.vdot(sx, sy).real)


def kernel_matrix(
    circuit: FeatureMapCircuit, x_rows: np.ndarray, x_cols: np.ndarray | None = None
) -> KernelMatrix:
    """Gram block between two point sets; when the sets are the same object
    the statevectors are computed once and reused."""
    x_rows = np.atleast_2d(np.asarray(x_rows, dtype=float))
    s_rows = evaluate_states(circuit, x_rows)
    if x_cols is None or x_cols is x_rows:
        x_cols = x_rows
        s_cols = s_rows
    else:
        x_cols = np.atleast_2d(np.asarray(x_cols, dtype=float))
        s_cols = evaluate_states(circuit, x_cols)
    values = (s_rows.conj() @ s_cols.T).real
    return KernelMatrix(values=values, row_points=x_rows, col_points=x_cols)


def product_kernel(circuit: FeatureMapCircuit, x: np.ndarray, x_other: np.ndarray) -> float:
    """Kernel of an entanglement-free circuit as a product of per-qubit
    2-dimensional kernels, Re taken after the complex product. This is the
    quantum-inspired evaluation path: no 2^M state is ever formed."""
    if circuit.census.n_cnot:
        raise ValueError("product_kernel requires a CNOT-free circuit")
    x = np.asarray(x, dtype=float)
    x_other = np.asarray(x_other, dtype=float)
    if x.shape != (circuit.input_dim,) or x_other.shape != (circuit.input_dim,):
        raise ValueError("input dimension mismatch")
    total = 1.0 + 0.0j
    for q in range(circuit.n_qubits):
        sx = np.array([1.0, 0.0], dtype=complex)
        sy = np.array([1.0, 0.0], dtype=complex)
        for op in circuit.ops:
            if op.qubit != q or op.kind is GateKind.IDENTITY:
                continue
            axis = ROTATION_AXIS[op.kind]
            if op.feature_index is None:
                u = axis_rotation(axis, op.theta)
                sx = u @ sx
                sy = u @ sy
            else:
                sx = axis_rotation(axis, op.theta * x[op.feature_index]) @ sx
                sy = axis_rotation(axis, op.theta * x_other[op.feature_index]) @ sy
        total *= np.vdot(sx, sy)
    return float(total.real)


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
