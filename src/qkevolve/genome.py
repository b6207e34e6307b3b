"""Bitstring encoding and decoding of evolved circuit genomes.

A genome is a flat string of bits: an optional 7-bit dimensionality header
followed by one 7-bit field per grid cell, filled layer by layer (layer 0
qubits 0..M-1, then layer 1, and so on). Within a gate field the first three
bits select the gate type and the last four select the rotation angle as a
multiple of pi/8. Genomes serialize to a plain line of '0'/'1' characters,
MSB of each field first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

GATE_BITS = 7
HEADER_BITS = 7  # six bits carry the component count, the seventh is spare
PCA_COMPONENT_BITS = 6
MAX_PCA_COMPONENTS = 2 ** PCA_COMPONENT_BITS


class EncodingMode(Enum):
    """Whether the genome carries a leading PCA-component header. The values
    are the config's `mode` spellings."""

    PCA_HEADER = "pca"
    FIXED_FEATURES = "external"


class GateKind(Enum):
    RX_PARAM = "rx_param"
    RY_PARAM = "ry_param"
    RZ_PARAM = "rz_param"
    CNOT = "cnot"
    IDENTITY = "identity"
    RX_FIXED = "rx_fixed"
    RY_FIXED = "ry_fixed"
    RZ_FIXED = "rz_fixed"


# 3-bit gate codes, indexed by the code value read MSB-first.
KIND_BY_CODE = (
    GateKind.RX_PARAM,   # 000
    GateKind.RY_PARAM,   # 001
    GateKind.RZ_FIXED,   # 010
    GateKind.RZ_PARAM,   # 011
    GateKind.IDENTITY,   # 100
    GateKind.CNOT,       # 101
    GateKind.RX_FIXED,   # 110
    GateKind.RY_FIXED,   # 111
)

PARAM_KINDS = frozenset({GateKind.RX_PARAM, GateKind.RY_PARAM, GateKind.RZ_PARAM})
ROTATION_AXIS = {
    GateKind.RX_PARAM: "x",
    GateKind.RY_PARAM: "y",
    GateKind.RZ_PARAM: "z",
    GateKind.RX_FIXED: "x",
    GateKind.RY_FIXED: "y",
    GateKind.RZ_FIXED: "z",
}


@dataclass(frozen=True)
class GateGene:
    """One decoded grid cell: a gate type plus its n*pi/8 angle step.

    angle_step is populated for every kind, including CNOT and IDENTITY
    where it is carried but ignored, so that encoding is lossless.
    """

    kind: GateKind
    angle_step: int

    def __post_init__(self):
        if not 1 <= self.angle_step <= 16:
            raise ValueError(f"angle_step must be in [1, 16], got {self.angle_step}")

    @property
    def angle(self) -> float:
        return self.angle_step * math.pi / 8.0


def angle_text(angle_step: int) -> str:
    """Pretty form of angle_step*pi/8, e.g. 3 -> '3π/8', 8 -> 'π', 16 -> '2π'."""
    frac = Fraction(angle_step, 8)
    num = "π" if frac.numerator == 1 else f"{frac.numerator}π"
    return num if frac.denominator == 1 else f"{num}/{frac.denominator}"


# A field's value is its bits read MSB-first: gate code * 16 + angle value.
_GENE_WEIGHTS = 1 << np.arange(GATE_BITS - 1, -1, -1)
_HEADER_WEIGHTS = _GENE_WEIGHTS[-PCA_COMPONENT_BITS:]
# All 128 decodable genes, indexed by field value.
_GENES = np.array(
    [GateGene(kind, value + 1) for kind in KIND_BY_CODE for value in range(16)], dtype=object
)


@dataclass(frozen=True)
class CircuitGenome:
    """Decoded individual: an M x N grid of gate genes, rows are qubits."""

    grid: tuple[tuple[GateGene, ...], ...]
    pca_components: int | None = None

    def __post_init__(self):
        widths = {len(row) for row in self.grid}
        if len(widths) != 1 or 0 in widths:
            raise ValueError("grid must be a nonempty rectangular matrix")
        if self.pca_components is not None and not 1 <= self.pca_components <= MAX_PCA_COMPONENTS:
            raise ValueError(f"pca_components out of range: {self.pca_components}")

    @property
    def n_qubits(self) -> int:
        return len(self.grid)

    @property
    def n_layers(self) -> int:
        return len(self.grid[0])


def genome_length(m_qubits: int, n_layers: int, mode: EncodingMode) -> int:
    """Bit length of an individual for an M x N grid in the given mode."""
    length = m_qubits * n_layers * GATE_BITS
    if mode is EncodingMode.PCA_HEADER:
        length += HEADER_BITS
    return length


def _as_bits(bits) -> np.ndarray:
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError("bitstring must be one-dimensional")
    if arr.size and arr.max() > 1:
        raise ValueError("bitstring elements must be 0 or 1")
    return arr


def decode_genome(bits, m_qubits: int, n_layers: int, mode: EncodingMode) -> CircuitGenome:
    """Decode a full bitstring into a genome.

    In PCA_HEADER mode the leading 7 bits are stripped; the first six of them,
    read as an unsigned integer v, give pca_components = v + 1 (so the all-ones
    header requests the maximum of 64 components and the all-zeros header
    requests one). The spare seventh bit is ignored. The remaining fields fill
    the grid layer-major.
    """
    arr = _as_bits(bits)
    expected = genome_length(m_qubits, n_layers, mode)
    if arr.size != expected:
        raise ValueError(
            f"genome length mismatch: expected {expected} bits for "
            f"M={m_qubits}, N={n_layers}, {mode.value}, got {arr.size}"
        )
    pca_components = None
    if mode is EncodingMode.PCA_HEADER:
        pca_components = int(arr[:PCA_COMPONENT_BITS] @ _HEADER_WEIGHTS) + 1
        arr = arr[HEADER_BITS:]
    genes = _GENES[arr.reshape(-1, GATE_BITS) @ _GENE_WEIGHTS]  # layer-major
    return CircuitGenome(
        grid=tuple(tuple(genes[row::m_qubits]) for row in range(m_qubits)),
        pca_components=pca_components,
    )


def bits_to_line(bits) -> str:
    """Serialize a bitstring to its '0'/'1' text form."""
    return "".join(str(int(b)) for b in _as_bits(bits))


def line_to_bits(line: str) -> np.ndarray:
    stripped = line.strip()
    if not stripped or set(stripped) - {"0", "1"}:
        raise ValueError("genome line must be a nonempty string of '0'/'1' characters")
    return np.frombuffer(stripped.encode("ascii"), dtype=np.uint8) - ord("0")


def random_bits(length: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, 2, size=length, dtype=np.uint8)
