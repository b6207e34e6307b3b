import numpy as np
import pytest

from qkevolve.circuit import (
    axis_rotation,
    build_feature_map,
    complexity,
    diagram,
    evaluate_states,
)
from qkevolve.genome import KIND_BY_CODE, CircuitGenome, GateGene, GateKind

from conftest import gram, random_genome
from oracles import CNOT_MATRIX, expm_rotation, gate_matrix, product_kernel, reference_states


def genome_of(kinds_and_steps, pca=None):
    """Build a genome from a row-major nested list of (kind, step) pairs."""
    grid = tuple(tuple(GateGene(k, s) for k, s in row) for row in kinds_and_steps)
    return CircuitGenome(grid=grid, pca_components=pca)


IDENT = (GateKind.IDENTITY, 1)
E0 = np.array([1.0, 0.0], dtype=complex)


def state_of(circ, x):
    return evaluate_states(circ, np.asarray(x, dtype=float)[None, :])[0]


def kernel(circ, x, x_other):
    return float(gram(circ, np.asarray(x)[None, :], np.asarray(x_other)[None, :])[0, 0])


class TestBuildFeatureMap:
    def test_all_identity_census_and_state(self):
        genome = genome_of([[IDENT] * 3, [IDENT] * 3])
        circ = build_feature_map(genome, 4)
        assert circ.census == (0, 0, 6)
        state = state_of(circ, np.zeros(4))
        expected = np.kron(E0, E0)
        assert np.allclose(state, expected, atol=1e-12)

    def test_sequential_feature_assignment(self):
        genome = genome_of([[(GateKind.RX_PARAM, 2), (GateKind.RY_PARAM, 4)]])
        circ = build_feature_map(genome, 2)
        assert [op.feature_index for op in circ.ops] == [0, 1]
        assert [op.theta for op in circ.ops] == pytest.approx([np.pi / 4, np.pi / 2])

    def test_feature_indices_cycle_modulo_d(self):
        genome = genome_of([[(GateKind.RX_PARAM, 2), (GateKind.RY_PARAM, 4)]])
        circ = build_feature_map(genome, 1)
        # modulo rule: count the parameterized gates, indices cycle over d=1
        assert [op.feature_index for op in circ.ops] == [0, 0]

    def test_fixed_gates_carry_no_feature(self):
        genome = genome_of([[(GateKind.RX_FIXED, 2), (GateKind.RX_PARAM, 2)]])
        circ = build_feature_map(genome, 3)
        assert circ.ops[0].feature_index is None
        assert circ.ops[1].feature_index == 0

    def test_cnot_targets_next_row_with_wraparound(self):
        genome = genome_of([[(GateKind.CNOT, 1)], [IDENT], [(GateKind.CNOT, 1)]])
        circ = build_feature_map(genome, 1)
        cnots = [op for op in circ.ops if op.kind is GateKind.CNOT]
        assert [(op.qubit, op.target) for op in cnots] == [(0, 1), (2, 0)]

    def test_single_qubit_cnot_demotes_to_identity(self):
        genome = genome_of([[(GateKind.CNOT, 1), (GateKind.CNOT, 5)]])
        circ = build_feature_map(genome, 1)
        assert circ.census == (0, 0, 2)
        assert all(op.kind is GateKind.IDENTITY for op in circ.ops)

    def test_census_sums_to_grid_size(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 8))
            genome, _ = random_genome(rng, m, n)
            circ = build_feature_map(genome, 2)
            assert sum(circ.census) == m * n

    def test_rejects_zero_input_dim(self):
        with pytest.raises(ValueError):
            build_feature_map(genome_of([[IDENT]]), 0)


class TestApplyGate:
    def test_cnot_matrix_action_on_basis_states(self):
        # Rx(pi/2) = -i*X prepares each basis state up to a global phase
        for basis in range(4):
            flips = [(basis >> 1) & 1, basis & 1]
            prep = [(GateKind.RX_FIXED, 4) if f else IDENT for f in flips]
            genome = genome_of([[prep[0], (GateKind.CNOT, 1)], [prep[1], IDENT]])
            circ = build_feature_map(genome, 1)
            phase = (-1j) ** sum(flips)
            out = state_of(circ, np.zeros(1))
            assert np.allclose(out, phase * CNOT_MATRIX[:, basis], atol=1e-15)
        cnot_op = build_feature_map(genome_of([[(GateKind.CNOT, 1)], [IDENT]]), 1).ops[0]
        assert np.array_equal(gate_matrix(cnot_op, 2), CNOT_MATRIX)

    def test_fixed_pi_rotation_gives_global_phase(self):
        circ = build_feature_map(genome_of([[(GateKind.RX_FIXED, 8)]]), 1)
        out = state_of(circ, np.zeros(1))
        assert np.allclose(out, -E0, atol=1e-12)
        assert np.allclose(np.abs(out) ** 2, [1.0, 0.0], atol=1e-12)

    def test_quarter_pi_closed_form(self):
        out = axis_rotation("x", np.pi / 4) @ E0
        assert np.allclose(out, [np.cos(np.pi / 4), -1j * np.sin(np.pi / 4)], atol=1e-12)

    def test_rotations_match_expm_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            axis = rng.choice(list("xyz"))
            angle = float(rng.uniform(-7, 7))
            assert np.allclose(axis_rotation(axis, angle), expm_rotation(axis, angle), atol=1e-12)

    def test_batched_rotations_match_scalar(self):
        angles = np.random.default_rng(9).uniform(-7, 7, size=(3, 4))
        for axis in "xyz":
            blocks = axis_rotation(axis, angles)
            assert blocks.shape == (2, 2, 3, 4)
            assert np.array_equal(blocks[:, :, 2, 1], axis_rotation(axis, angles[2, 1]))

    def test_param_gate_requires_feature(self):
        circ = build_feature_map(genome_of([[(GateKind.RX_PARAM, 4)]]), 1)
        with pytest.raises(ValueError):
            evaluate_states(circ, np.zeros((1, 0)))
        with pytest.raises(ValueError):
            gate_matrix(circ.ops[0], 1)
        out = state_of(circ, np.array([0.5]))
        a = (np.pi / 2) * 0.5
        assert np.allclose(out, [np.cos(a), -1j * np.sin(a)], atol=1e-12)

    def test_same_axis_rotations_compose_by_adding_angles(self):
        # a fused run of two rotations about one axis is one rotation by the sum
        for kind, fixed, axis in (
            (GateKind.RX_PARAM, GateKind.RX_FIXED, "x"),
            (GateKind.RY_PARAM, GateKind.RY_FIXED, "y"),
            (GateKind.RZ_PARAM, GateKind.RZ_FIXED, "z"),
        ):
            circ = build_feature_map(genome_of([[(kind, 3), (fixed, 5)]]), 1)
            for x in (-0.7, 0.0, 0.4):
                angle = 3 * np.pi / 8 * x + 5 * np.pi / 8
                expected = axis_rotation(axis, angle) @ E0
                assert np.allclose(state_of(circ, np.array([x])), expected, atol=1e-12)


class TestEvaluateState:
    def test_single_param_gate_closed_form(self):
        genome = genome_of([[(GateKind.RX_PARAM, 3)]])
        circ = build_feature_map(genome, 1)
        theta = 3 * np.pi / 8
        for x in (-1.0, 0.2, 0.9):
            state = state_of(circ, np.array([x]))
            assert np.allclose(state, [np.cos(theta * x), -1j * np.sin(theta * x)], atol=1e-12)

    def test_unitarity_on_random_circuits(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            m, n = int(rng.integers(1, 7)), int(rng.integers(1, 12))
            genome, _ = random_genome(rng, m, n)
            circ = build_feature_map(genome, 3)
            xs = rng.uniform(-1, 1, size=(2, 3))
            norms = np.linalg.norm(evaluate_states(circ, xs), axis=1)
            assert np.allclose(norms, 1.0, atol=1e-10)

    def test_batch_matches_single(self):
        # q1 has only fixed rotations and joins q0's cluster at the CNOT; q3
        # has only fixed rotations and no CNOT, so it is flushed at the end;
        # q2 fuses a fixed block into a per-sample one
        fixed_qubits = genome_of(
            [
                [(GateKind.RX_PARAM, 3), (GateKind.RY_PARAM, 5), (GateKind.CNOT, 1), (GateKind.RZ_FIXED, 3)],
                [(GateKind.RX_FIXED, 2), (GateKind.RY_FIXED, 9), (GateKind.RZ_FIXED, 4), (GateKind.RX_FIXED, 6)],
                [(GateKind.RZ_PARAM, 7), (GateKind.RX_FIXED, 11), IDENT, (GateKind.RY_PARAM, 1)],
                [(GateKind.RY_FIXED, 5), (GateKind.RZ_FIXED, 13), (GateKind.RX_FIXED, 1), IDENT],
            ]
        )
        rng = np.random.default_rng(23)
        for genome in (random_genome(rng, 3, 4)[0], fixed_qubits):
            circ = build_feature_map(genome, 2)
            xs = rng.uniform(-1, 1, size=(5, 2))
            batch = evaluate_states(circ, xs)
            for i in range(5):
                assert np.array_equal(batch[i], state_of(circ, xs[i]))

    def test_dimension_mismatch(self):
        circ = build_feature_map(genome_of([[IDENT]]), 2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            evaluate_states(circ, np.zeros((1, 3)))


class TestKernel:
    def test_self_kernel_is_one(self):
        rng = np.random.default_rng(31)
        genome, _ = random_genome(rng, 2, 3)
        circ = build_feature_map(genome, 2)
        x = rng.uniform(-1, 1, 2)
        assert kernel(circ, x, x) == pytest.approx(1.0, abs=1e-10)

    def test_single_qubit_cosine_closed_form(self):
        rng = np.random.default_rng(37)
        for step in (1, 4, 9):
            genome = genome_of([[(GateKind.RX_PARAM, step)]])
            circ = build_feature_map(genome, 1)
            theta = step * np.pi / 8
            for _ in range(20):
                x, xp = rng.uniform(-1, 1, 2)
                expected = np.cos(theta * (x - xp))
                assert kernel(circ, np.array([x]), np.array([xp])) == pytest.approx(expected, abs=1e-10)

    def test_identity_circuit_kernel_is_one(self):
        circ = build_feature_map(genome_of([[IDENT, IDENT]]), 2)
        assert kernel(circ, np.array([0.3, -1.0]), np.array([0.9, 0.5])) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            genome, _ = random_genome(rng, 2, 4)
            circ = build_feature_map(genome, 3)
            x, xp = rng.uniform(-1, 1, (2, 3))
            assert kernel(circ, x, xp) == pytest.approx(kernel(circ, xp, x), abs=1e-12)


class TestKernelMatrix:
    def test_gram_properties(self):
        rng = np.random.default_rng(43)
        genome, _ = random_genome(rng, 3, 5)
        circ = build_feature_map(genome, 2)
        xs = rng.uniform(-1, 1, size=(5, 2))
        km = gram(circ, xs)
        assert np.allclose(km, km.T, atol=1e-10)
        assert np.allclose(np.diag(km), 1.0, atol=1e-10)
        assert np.linalg.eigvalsh(km).min() >= -1e-8
        assert np.all(np.abs(km) <= 1 + 1e-10)

    def test_matches_pairwise_kernel(self):
        rng = np.random.default_rng(47)
        genome, _ = random_genome(rng, 2, 3)
        circ = build_feature_map(genome, 2)
        rows = rng.uniform(-1, 1, size=(3, 2))
        cols = rng.uniform(-1, 1, size=(4, 2))
        km = gram(circ, rows, cols)
        s_rows, s_cols = reference_states(circ, rows), reference_states(circ, cols)
        for i in range(3):
            for j in range(4):
                assert km[i, j] == pytest.approx(float(np.vdot(s_rows[i], s_cols[j]).real), abs=1e-12)

    def test_single_point(self):
        circ = build_feature_map(genome_of([[(GateKind.RY_PARAM, 5)]]), 1)
        km = gram(circ, np.array([[0.4]]))
        assert km.shape == (1, 1)
        assert km[0, 0] == pytest.approx(1.0, abs=1e-12)


class TestProductKernel:
    def test_matches_full_simulation_on_cnot_free_circuits(self):
        rng = np.random.default_rng(53)
        done = 0
        while done < 50:
            m, n = int(rng.integers(1, 5)), int(rng.integers(1, 7))
            genome, _ = random_genome(rng, m, n)
            circ = build_feature_map(genome, 3)
            if circ.census.n_cnot:
                continue
            x, xp = rng.uniform(-1, 1, (2, 3))
            assert product_kernel(circ, x, xp) == pytest.approx(kernel(circ, x, xp), abs=1e-10)
            done += 1

    def test_single_qubit_equals_kernel(self):
        genome = genome_of([[(GateKind.RZ_PARAM, 7), (GateKind.RX_FIXED, 2)]])
        circ = build_feature_map(genome, 1)
        x, xp = np.array([0.25]), np.array([-0.75])
        assert product_kernel(circ, x, xp) == pytest.approx(kernel(circ, x, xp), abs=1e-12)

    def test_identity_rows_give_one(self):
        circ = build_feature_map(genome_of([[IDENT], [IDENT]]), 1)
        assert product_kernel(circ, np.array([0.4]), np.array([-0.1])) == 1.0

    def test_rejects_entangling_circuit(self):
        genome = genome_of([[(GateKind.CNOT, 1)], [IDENT]])
        circ = build_feature_map(genome, 1)
        with pytest.raises(ValueError, match="CNOT-free"):
            product_kernel(circ, np.array([0.0]), np.array([0.0]))


LOCAL_KINDS = [k for k in KIND_BY_CODE if k is not GateKind.CNOT]
FIXED_KINDS = (GateKind.RX_FIXED, GateKind.RY_FIXED, GateKind.RZ_FIXED)


def grid_with_cnots(rng, m, n, cnot_cells, kinds=LOCAL_KINDS):
    """Random m x n grid of the given local kinds, with CNOTs at the listed
    (row, layer) cells."""
    rows = []
    for r in range(m):
        row = []
        for l in range(n):
            kind = GateKind.CNOT if (r, l) in cnot_cells else kinds[int(rng.integers(len(kinds)))]
            row.append((kind, int(rng.integers(1, 17))))
        rows.append(row)
    return genome_of(rows)


class TestOracleEquivalence:
    """evaluate_states against the dense per-gate reference simulator."""

    def assert_matches(self, circ, rng, batches=(1, 5)):
        for size in batches:
            xs = rng.uniform(-2, 2, size=(size, circ.input_dim))
            got = evaluate_states(circ, xs)
            assert got.shape == (size, 1 << circ.n_qubits)
            assert np.max(np.abs(got - reference_states(circ, xs))) <= 1e-12

    def test_random_entangled_circuits(self):
        rng = np.random.default_rng(61)
        entangled = 0
        for _ in range(60):
            m, n = int(rng.integers(1, 7)), int(rng.integers(1, 12))
            genome, _ = random_genome(rng, m, n)
            circ = build_feature_map(genome, 3)
            entangled += circ.census.n_cnot > 0
            self.assert_matches(circ, rng)
        assert entangled >= 30

    def test_wraparound_cnot_forms_non_contiguous_cluster(self):
        # only row M-1 entangles: cluster {0, M-1}, the rest stay singletons
        rng = np.random.default_rng(67)
        for m in (2, 3, 5, 6):
            circ = build_feature_map(grid_with_cnots(rng, m, 4, {(m - 1, 1)}), 2)
            assert [(op.qubit, op.target) for op in circ.ops if op.kind is GateKind.CNOT] == [(m - 1, 0)]
            self.assert_matches(circ, rng)

    def test_several_clusters(self):
        # clusters {1, 2}, {4, 5, 0} and the singleton {3} on six qubits
        rng = np.random.default_rng(71)
        for _ in range(5):
            cells = {(1, 0), (4, 2), (5, 3), (1, 5)}
            self.assert_matches(build_feature_map(grid_with_cnots(rng, 6, 6, cells), 4), rng)

    def test_single_qubit_with_demoted_cnot(self):
        rng = np.random.default_rng(73)
        genome = genome_of(
            [[(GateKind.CNOT, 3), (GateKind.RY_PARAM, 5), (GateKind.CNOT, 1), (GateKind.RZ_FIXED, 2)]]
        )
        circ = build_feature_map(genome, 1)
        assert circ.census.n_cnot == 0
        self.assert_matches(circ, rng)

    def test_all_identity_and_fixed_only_grids(self):
        rng = np.random.default_rng(79)
        for m in (1, 3, 6):
            identity = build_feature_map(genome_of([[IDENT] * 3] * m), 2)
            self.assert_matches(identity, rng)
            fixed = grid_with_cnots(rng, m, 5, {(0, 2)} if m > 1 else set(), kinds=FIXED_KINDS)
            self.assert_matches(build_feature_map(fixed, 2), rng)

    def test_x_independent_circuit_gives_every_row_one_state(self):
        # no parameterized gate: every rotation is one block shared by all rows
        rng = np.random.default_rng(83)
        for m, cells in ((2, {(0, 1)}), (3, {(0, 0), (2, 3)}), (5, {(1, 2), (4, 4)})):
            circ = build_feature_map(grid_with_cnots(rng, m, 5, cells, kinds=FIXED_KINDS), 3)
            assert circ.census.n_cnot == len(cells)
            assert all(op.feature_index is None for op in circ.ops)
            xs = rng.uniform(-2, 2, size=(6, 3))
            got = evaluate_states(circ, xs)
            assert np.array_equal(got, np.broadcast_to(got[0], got.shape))
            assert np.max(np.abs(got - reference_states(circ, xs))) <= 1e-12


class TestComplexity:
    def test_mixed_counts(self):
        genome = genome_of(
            [
                [(GateKind.RX_PARAM, 1), (GateKind.RY_FIXED, 2), IDENT],
                [(GateKind.RZ_PARAM, 3), (GateKind.CNOT, 1), IDENT],
            ]
        )
        circ = build_feature_map(genome, 2)
        assert circ.census == (3, 1, 2)
        assert complexity(circ) == pytest.approx(2.5)

    def test_all_identity_is_zero(self):
        circ = build_feature_map(genome_of([[IDENT] * 4] * 3), 1)
        assert complexity(circ) == 0.0

    def test_paper_scale_local_only(self):
        grid = [[(GateKind.RX_FIXED, 1)] * 11 for _ in range(6)]
        circ = build_feature_map(genome_of(grid), 1)
        assert complexity(circ) == pytest.approx(11.0)

    def test_identity_replacement_never_increases(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            genome, _ = random_genome(rng, 3, 4)
            base = complexity(build_feature_map(genome, 2))
            r, l = int(rng.integers(3)), int(rng.integers(4))
            grid = [list(row) for row in genome.grid]
            grid[r][l] = GateGene(GateKind.IDENTITY, 1)
            mutated = CircuitGenome(grid=tuple(tuple(row) for row in grid))
            assert complexity(build_feature_map(mutated, 2)) <= base


def test_gate_algebra_half_angle_composition():
    for theta in (0.3, 1.7, np.pi):
        for axis in "xyz":
            half = axis_rotation(axis, theta / 2)
            assert np.allclose(half @ half, axis_rotation(axis, theta), atol=1e-12)


class TestDiagram:
    def test_layout_and_cells(self):
        genome = genome_of(
            [
                [(GateKind.RX_PARAM, 3), (GateKind.CNOT, 1)],
                [(GateKind.RZ_FIXED, 10), IDENT],
            ]
        )
        text = diagram(build_feature_map(genome, 2))
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("q0:")
        assert "Rx(x0·3π/8)" in lines[0]
        assert "●" in lines[0]
        assert "Rz(5π/4)" in lines[1]
        assert "⊕" in lines[1]

    def test_identity_cell_rendering(self):
        text = diagram(build_feature_map(genome_of([[IDENT]]), 1))
        assert "—" in text
