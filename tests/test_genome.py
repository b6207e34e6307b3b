import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkevolve.genome import (
    MAX_PCA_COMPONENTS,
    CircuitGenome,
    EncodingMode,
    GateGene,
    GateKind,
    angle_text,
    bits_to_line,
    decode_genome,
    genome_length,
    line_to_bits,
    random_bits,
)

from oracles import encode_genome

# The complete 3-bit gate table and 4-bit angle table, written out in full so
# the decoder is pinned cell-for-cell.
GATE_TABLE = {
    "000": GateKind.RX_PARAM,
    "001": GateKind.RY_PARAM,
    "011": GateKind.RZ_PARAM,
    "101": GateKind.CNOT,
    "100": GateKind.IDENTITY,
    "110": GateKind.RX_FIXED,
    "111": GateKind.RY_FIXED,
    "010": GateKind.RZ_FIXED,
}
ANGLE_TABLE = {
    "0000": 1, "0001": 2, "0010": 3, "0011": 4,
    "0100": 5, "0101": 6, "0110": 7, "0111": 8,
    "1000": 9, "1001": 10, "1010": 11, "1011": 12,
    "1100": 13, "1101": 14, "1110": 15, "1111": 16,
}


def bits_of(text):
    return np.array([int(ch) for ch in text], dtype=np.uint8)


def decode_field(bits):
    """One 7-bit field through the pipeline's decoder, as a 1x1 grid."""
    return decode_genome(bits, 1, 1, EncodingMode.FIXED_FEATURES).grid[0][0]


class TestDecodeTable:
    def test_all_128_patterns(self):
        for gate_code, kind in GATE_TABLE.items():
            for angle_code, step in ANGLE_TABLE.items():
                gene = decode_field(bits_of(gate_code + angle_code))
                assert gene.kind is kind
                assert gene.angle_step == step

    @pytest.mark.parametrize(
        "code,kind,angle",
        [
            ("0000111", GateKind.RX_PARAM, np.pi),
            ("1010000", GateKind.CNOT, None),
            ("0101111", GateKind.RZ_FIXED, 2 * np.pi),
        ],
    )
    def test_reference_examples(self, code, kind, angle):
        gene = decode_field(bits_of(code))
        assert gene.kind is kind
        if angle is not None:
            assert gene.angle == pytest.approx(angle, abs=1e-15)

    def test_decode_is_total(self):
        for value in range(128):
            bits = [(value >> (6 - b)) & 1 for b in range(7)]
            decode_field(bits)  # must not raise

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            decode_field([0, 1, 0])


class TestGenomeLength:
    @pytest.mark.parametrize(
        "m,n,mode,expected",
        [
            (6, 11, EncodingMode.PCA_HEADER, 469),
            (1, 1, EncodingMode.FIXED_FEATURES, 7),
            (2, 3, EncodingMode.PCA_HEADER, 49),
        ],
    )
    def test_examples(self, m, n, mode, expected):
        assert genome_length(m, n, mode) == expected

    @given(st.integers(1, 12), st.integers(1, 12))
    def test_strictly_monotone(self, m, n):
        for mode in EncodingMode:
            base = genome_length(m, n, mode)
            assert genome_length(m + 1, n, mode) > base
            assert genome_length(m, n + 1, mode) > base


class TestDecodeGenome:
    def test_all_zero_single_gate(self):
        genome = decode_genome(np.zeros(7, dtype=np.uint8), 1, 1, EncodingMode.FIXED_FEATURES)
        assert genome.grid == ((GateGene(GateKind.RX_PARAM, 1),),)
        assert genome.pca_components is None

    def test_header_extremes(self):
        grid = "0" * 14
        top = decode_genome(bits_of("1111110" + grid), 1, 2, EncodingMode.PCA_HEADER)
        bottom = decode_genome(bits_of("0000000" + grid), 1, 2, EncodingMode.PCA_HEADER)
        assert top.pca_components == MAX_PCA_COMPONENTS == 64
        assert bottom.pca_components == 1

    def test_spare_header_bit_ignored(self):
        grid = "0" * 7
        a = decode_genome(bits_of("0101010" + grid), 1, 1, EncodingMode.PCA_HEADER)
        b = decode_genome(bits_of("0101011" + grid), 1, 1, EncodingMode.PCA_HEADER)
        assert a == b
        assert a.pca_components == 0b010101 + 1

    def test_layer_major_fill(self):
        # layer 0: Rx(x), Ry(x); layer 1: Rz(x), Identity  (M=2, N=2)
        fields = ["0000000", "0010000", "0110000", "1000000"]
        genome = decode_genome(bits_of("".join(fields)), 2, 2, EncodingMode.FIXED_FEATURES)
        assert genome.grid[0][0].kind is GateKind.RX_PARAM
        assert genome.grid[1][0].kind is GateKind.RY_PARAM
        assert genome.grid[0][1].kind is GateKind.RZ_PARAM
        assert genome.grid[1][1].kind is GateKind.IDENTITY

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            decode_genome(np.zeros(14, dtype=np.uint8), 1, 2, EncodingMode.PCA_HEADER)

    @pytest.mark.parametrize("mode", list(EncodingMode))
    @pytest.mark.parametrize("m, n", [(0, 3), (3, 0)])
    def test_empty_grid_rejected(self, m, n, mode):
        with pytest.raises(ValueError, match="nonempty rectangular"):
            decode_genome(np.zeros(genome_length(m, n, mode), dtype=np.uint8), m, n, mode)


class TestEncodeGenome:
    def test_single_gate(self):
        genome = CircuitGenome(grid=((GateGene(GateKind.RX_PARAM, 1),),))
        assert bits_to_line(encode_genome(genome, EncodingMode.FIXED_FEATURES)) == "0000000"

    def test_max_components_header(self):
        genome = CircuitGenome(grid=((GateGene(GateKind.RX_PARAM, 1),),), pca_components=64)
        line = bits_to_line(encode_genome(genome, EncodingMode.PCA_HEADER))
        assert line.startswith("111111")
        assert line[6] == "0"

    @pytest.mark.parametrize("mode", list(EncodingMode))
    def test_round_trip_random_genomes(self, mode):
        rng = np.random.default_rng(11)
        length = genome_length(2, 3, mode)
        for _ in range(1000):
            bits = random_bits(length, rng)
            genome = decode_genome(bits, 2, 3, mode)
            again = decode_genome(encode_genome(genome, mode), 2, 3, mode)
            assert again == genome

    def test_bits_round_trip_with_zero_spare_bit(self):
        rng = np.random.default_rng(12)
        length = genome_length(2, 2, EncodingMode.PCA_HEADER)
        for _ in range(200):
            bits = random_bits(length, rng)
            bits[6] = 0  # spare header bit is re-emitted as 0
            genome = decode_genome(bits, 2, 2, EncodingMode.PCA_HEADER)
            assert np.array_equal(encode_genome(genome, EncodingMode.PCA_HEADER), bits)

    def test_mode_mismatch_rejected(self):
        genome = CircuitGenome(grid=((GateGene(GateKind.CNOT, 2),),), pca_components=5)
        with pytest.raises(ValueError):
            encode_genome(genome, EncodingMode.FIXED_FEATURES)
        bare = CircuitGenome(grid=((GateGene(GateKind.CNOT, 2),),))
        with pytest.raises(ValueError):
            encode_genome(bare, EncodingMode.PCA_HEADER)


@given(st.integers(1, 4), st.integers(1, 4), st.sampled_from(list(EncodingMode)), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_encode_decode_identity_property(m, n, mode, seed):
    rng = np.random.default_rng(seed)
    bits = random_bits(genome_length(m, n, mode), rng)
    genome = decode_genome(bits, m, n, mode)
    assert decode_genome(encode_genome(genome, mode), m, n, mode) == genome
    assert genome.n_qubits == m and genome.n_layers == n


class TestSerialization:
    def test_line_round_trip(self):
        rng = np.random.default_rng(5)
        bits = random_bits(49, rng)
        assert np.array_equal(line_to_bits(bits_to_line(bits)), bits)

    def test_bad_characters_rejected(self):
        with pytest.raises(ValueError):
            line_to_bits("0012")
        with pytest.raises(ValueError):
            line_to_bits("")


def test_angle_text_formats():
    assert angle_text(1) == "π/8"
    assert angle_text(3) == "3π/8"
    assert angle_text(4) == "π/2"
    assert angle_text(8) == "π"
    assert angle_text(10) == "5π/4"
    assert angle_text(16) == "2π"
