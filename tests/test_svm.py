import logging

import numpy as np
import pytest

from qkevolve.svm import SvmConfig, TrainedQSVM, accuracy, fit, predict

from oracles import decision, dual_objective, qp_bruteforce, reference_fit


def random_psd_kernel(rng, n, unit_diag=True):
    a = rng.normal(size=(n, n + 2))
    k = a @ a.T
    if unit_diag:
        d = np.sqrt(np.diag(k))
        k = k / np.outer(d, d)
    return k


def kernel_with_spectrum(rng, eigenvalues):
    """Q diag(eigenvalues) Q^T, made exactly symmetric as `fit` expects: the
    product alone is symmetric only to rounding."""
    q, _ = np.linalg.qr(rng.normal(size=(len(eigenvalues), len(eigenvalues))))
    k = (q * eigenvalues) @ q.T
    return (k + k.T) / 2


def assert_same_model(got, want):
    assert got.dual_coefs.tobytes() == want.dual_coefs.tobytes()
    assert got.bias == want.bias
    assert got.signed_duals.tobytes() == want.signed_duals.tobytes()


def random_labels(rng, n):
    y = rng.choice([-1.0, 1.0], size=n)
    if np.unique(y).size < 2:
        y[0] = -y[0]
    return y


class TestFit:
    def test_two_symmetric_points(self):
        model = fit(np.eye(2), np.array([1.0, -1.0]))
        assert model.dual_coefs[0] == pytest.approx(model.dual_coefs[1])
        assert model.n_support == 2
        assert decision(model, np.array([1.0, 0.0])) > 0
        assert decision(model, np.array([0.0, 1.0])) < 0

    def test_dual_optimum_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            k = random_psd_kernel(rng, n)
            y = random_labels(rng, n)
            c = float(rng.choice([0.5, 1.0, 2.0]))
            model = fit(k, y, SvmConfig(c_reg=c))
            _, best = qp_bruteforce(k, y, c)
            assert dual_objective(model.dual_coefs, k, y) == pytest.approx(best, abs=1e-4)

    def test_all_bounded_duals_take_the_midpoint_bias(self):
        # both duals end at C, so no margin vector fixes b; the residuals
        # 1 - 0.1 and -1 + 0.4 bound it and the midpoint is taken
        model = fit(np.diag([1.0, 4.0]), [1, -1], SvmConfig(c_reg=0.1))
        assert np.array_equal(model.dual_coefs, [0.1, 0.1])
        assert model.bias == pytest.approx(0.15)

    def test_kkt_invariants_property_suite(self):
        # 200 random instances, n <= 30: box, equality, margin conditions
        rng = np.random.default_rng(103)
        for _ in range(200):
            n = int(rng.integers(2, 31))
            k = random_psd_kernel(rng, n, unit_diag=bool(rng.integers(2)))
            y = random_labels(rng, n)
            # tol pinned below the default, so the margin check stays at 2e-6
            config = SvmConfig(c_reg=float(rng.choice([0.5, 1.0, 4.0])), tol=1e-6)
            model = fit(k, y, config)
            alpha = model.dual_coefs
            assert not np.signbit(alpha).any()
            assert np.all(alpha >= -1e-12)
            assert np.all(alpha <= config.c_reg + 1e-12)
            assert abs(float(alpha @ y)) < 1e-8
            on_margin = (alpha > 1e-8) & (alpha < config.c_reg - 1e-8)
            if on_margin.any():
                scores = k @ (alpha * y) + model.bias
                assert np.max(np.abs(y[on_margin] * scores[on_margin] - 1.0)) < 2 * config.tol

    def test_separable_cosine_kernel_reaches_full_training_accuracy(self):
        rng = np.random.default_rng(107)
        x = np.concatenate([rng.uniform(-1, -0.2, 10), rng.uniform(0.2, 1, 10)])
        y = np.array([-1.0] * 10 + [1.0] * 10)
        theta = np.pi / 8
        k = np.cos(theta * (x[:, None] - x[None, :]))
        model = fit(k, y)
        assert accuracy(predict(model, k), y) == 1.0
        sub = np.array([0, 1, 2, 3, 10, 11, 12, 13])  # oracle cross-check at oracle-tractable size
        small = fit(k[np.ix_(sub, sub)], y[sub])
        _, best = qp_bruteforce(k[np.ix_(sub, sub)], y[sub], 1.0)
        assert dual_objective(small.dual_coefs, k[np.ix_(sub, sub)], y[sub]) == pytest.approx(
            best, abs=1e-4
        )

    def test_deterministic(self):
        rng = np.random.default_rng(109)
        k = random_psd_kernel(rng, 15)
        y = random_labels(rng, 15)
        m1, m2 = fit(k, y), fit(k, y)
        assert np.array_equal(m1.dual_coefs, m2.dual_coefs)
        assert m1.bias == m2.bias

    def test_kernel_scaling_invariance_of_predictions(self):
        rng = np.random.default_rng(113)
        x = np.concatenate([rng.uniform(-1, -0.3, 8), rng.uniform(0.3, 1, 8)])
        y = np.array([-1.0] * 8 + [1.0] * 8)
        k = np.cos((np.pi / 8) * (x[:, None] - x[None, :]))
        base = predict(fit(k, y, SvmConfig(c_reg=1.0)), k)
        for scale in (0.25, 4.0):
            scaled = predict(fit(scale * k, y, SvmConfig(c_reg=1.0 / scale)), scale * k)
            assert np.array_equal(base, scaled)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            fit(np.eye(3), np.ones(3))

    def test_non_finite_kernel_rejected(self):
        k = np.eye(2)
        k[0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            fit(k, np.array([1.0, -1.0]))

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            fit(np.eye(2), np.array([0.0, 1.0]))

    def test_indefinite_kernel_solved_as_given(self, caplog):
        k = np.eye(4)
        k[0, 1] = k[1, 0] = 1.5  # min eigenvalue -0.5
        y = np.array([1.0, -1.0, 1.0, -1.0])
        with caplog.at_level(logging.WARNING, logger="qkevolve.svm"):
            got = fit(k, y)
        assert caplog.records == []
        assert np.all((got.dual_coefs >= 0.0) & (got.dual_coefs <= 1.0))
        assert abs(float(got.dual_coefs @ y)) < 1e-12
        assert np.isfinite(got.bias)
        assert_same_model(got, reference_fit(k, y))

    def test_bit_identical_to_reference_solver(self):
        # random PSD kernels of every rank, unit and raw diagonals, every
        # C and a short, medium and unlimited step budget; every tenth kernel
        # is shifted to a -3e-8 floor, slightly indefinite, and solved as given
        rng = np.random.default_rng(211)
        for case in range(300):
            n = int(rng.integers(2, 41))
            a = rng.normal(size=(n, int(rng.integers(1, n + 1))))
            k = a @ a.T
            if rng.integers(2):
                d = np.sqrt(np.diag(k))
                k = k / np.outer(d, d)
            if case % 10 == 0:
                k = k - 3e-8 * np.eye(n)
            y = random_labels(rng, n)
            config = SvmConfig(
                c_reg=float(rng.choice([0.01, 0.1, 0.5, 1.0, 4.0])),
                max_passes=int(rng.choice([1, 3, 100_000])),
            )
            got = fit(k, y, config)
            assert_same_model(got, reference_fit(k, y, config))
            # the stored beta predicts as the labels times |beta| did
            scores = k @ (got.dual_coefs * y) + got.bias
            assert np.array_equal(predict(got, k), np.where(scores >= 0.0, 1, -1))

    def test_tiny_negative_eigenvalue_returns_unclamped_without_warning(self, caplog):
        rng = np.random.default_rng(227)
        k = kernel_with_spectrum(rng, np.concatenate([[-5e-9], rng.uniform(0.5, 2.0, 11)]))
        assert np.linalg.eigvalsh(k)[0] == pytest.approx(-5e-9, rel=1e-3)
        y = random_labels(rng, 12)
        with caplog.at_level(logging.WARNING, logger="qkevolve.svm"):
            assert_same_model(fit(k, y), reference_fit(k, y))
        assert caplog.records == []

    def test_large_scale_kernel_matches_reference_solver(self):
        rng = np.random.default_rng(229)
        k = 1e8 * random_psd_kernel(rng, 10)
        y = random_labels(rng, 10)
        got = fit(k, y, SvmConfig(c_reg=1e-8))
        assert_same_model(got, reference_fit(k, y, SvmConfig(c_reg=1e-8)))

    def test_exhausted_max_passes_warns_with_the_remaining_gap(self, caplog):
        rng = np.random.default_rng(233)
        k = random_psd_kernel(rng, 20)
        y = random_labels(rng, 20)
        with caplog.at_level(logging.WARNING, logger="qkevolve.svm"):
            got = fit(k, y, SvmConfig(max_passes=1))
        (record,) = caplog.records
        assert record.name == "qkevolve.svm"
        assert "max_passes=1" in record.getMessage()
        assert "violation" in record.getMessage()
        assert "worst-case" not in record.getMessage()
        assert_same_model(got, reference_fit(k, y, SvmConfig(max_passes=1)))
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="qkevolve.svm"):
            fit(k, y)
        assert caplog.records == []


class TestDecision:
    def test_zero_coefs_returns_bias(self):
        model = TrainedQSVM(signed_duals=np.zeros(3), bias=0.5, regularization=1.0)
        assert decision(model, np.array([0.2, 0.4, 0.6])) == 0.5

    def test_margin_support_vectors_sit_at_unit_decision(self):
        rng = np.random.default_rng(127)
        x = np.concatenate([rng.uniform(-1, -0.3, 10), rng.uniform(0.3, 1, 10)])
        y = np.array([-1.0] * 10 + [1.0] * 10)
        k = np.cos((np.pi / 8) * (x[:, None] - x[None, :]))
        model = fit(k, y)
        margin = (model.dual_coefs > 1e-8) & (model.dual_coefs < 1.0 - 1e-8)
        assert margin.any()
        for i in np.flatnonzero(margin):
            assert abs(y[i] * decision(model, k[i]) - 1.0) < 1e-5

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(131)
        alpha, labels = rng.uniform(0, 1, 6), rng.choice([-1.0, 1.0], 6)
        model = TrainedQSVM(alpha * labels, bias=float(rng.normal()), regularization=1.0)
        row = rng.normal(size=6)
        by_hand = sum(alpha[i] * labels[i] * row[i] for i in range(6)) + model.bias
        assert decision(model, row) == pytest.approx(by_hand, abs=1e-12)

    def test_row_length_checked(self):
        model = fit(np.eye(2), np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            decision(model, np.ones(3))


class TestPredict:
    def test_sign_of_decision(self):
        model = fit(np.eye(2), np.array([1.0, -1.0]))
        preds = predict(model, np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert preds.tolist() == [1, -1]

    def test_tie_goes_positive(self):
        model = TrainedQSVM(signed_duals=np.zeros(2), bias=0.0, regularization=1.0)
        assert predict(model, np.zeros((1, 2)))[0] == 1


class TestAccuracy:
    def test_examples(self):
        assert accuracy([1, -1, 1], [1, -1, 1]) == 1.0
        assert accuracy([1, -1], [-1, 1]) == 0.0
        assert accuracy([1, 1, -1, -1], [1, 1, -1, 1]) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            accuracy([1], [1, -1])
