import numpy as np
import pytest

from qkevolve.baseline import (
    MlpModel,
    evaluate,
    init_model,
    loss_and_grads,
    train,
)

from oracles import forward, mlp_numeric_grads


def blobs(rng, n_per_class=40, gap=2.0, scale=0.5):
    x0 = rng.normal(loc=(-gap, -gap), scale=scale, size=(n_per_class, 2))
    x1 = rng.normal(loc=(gap, gap), scale=scale, size=(n_per_class, 2))
    x = np.vstack([x0, x1])
    y = np.array([0] * n_per_class + [1] * n_per_class)
    perm = rng.permutation(y.size)
    return x[perm], y[perm]


class TestForward:
    def test_zero_parameters_give_uniform_probabilities(self):
        model = MlpModel(
            w1=np.zeros((3, 6)), b1=np.zeros(6), w2=np.zeros((6, 2)), b2=np.zeros(2)
        )
        assert np.allclose(forward(model, np.array([1.0, -2.0, 3.0])), [0.5, 0.5])

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(1)
        model = init_model(4, seed=2)
        for _ in range(20):
            probs = forward(model, rng.normal(size=4))
            assert np.all(probs > 0)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_dead_relu_region_depends_only_on_output_bias(self):
        model = MlpModel(
            w1=np.ones((2, 6)),
            b1=np.full(6, -100.0),  # hidden pre-activations all negative
            w2=np.random.default_rng(3).normal(size=(6, 2)),
            b2=np.array([1.0, -1.0]),
        )
        p1 = forward(model, np.array([0.1, 0.2]))
        p2 = forward(model, np.array([-3.0, 0.5]))
        assert np.allclose(p1, p2, atol=1e-15)
        expected = np.exp([1.0, -1.0]) / np.exp([1.0, -1.0]).sum()
        assert np.allclose(p1, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            forward(init_model(4), np.zeros(5))


class TestGradients:
    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            n, d, h = int(rng.integers(2, 6)), int(rng.integers(1, 5)), int(rng.integers(2, 5))
            model = init_model(d, hidden_dim=h, seed=trial)
            xs = rng.normal(size=(n, d))
            y = rng.integers(0, 2, n)
            y[0] = 0
            y[-1] = 1
            _, analytic = loss_and_grads(model, xs, y)
            numeric = mlp_numeric_grads(model, xs, y, h=1e-5)
            for key in analytic:
                num = numeric[key]
                rel = np.abs(analytic[key] - num) / np.maximum(
                    1.0, np.maximum(np.abs(analytic[key]), np.abs(num))
                )
                assert rel.max() <= 1e-4


class TestTrain:
    def test_separable_blobs_reach_train_accuracy(self):
        rng = np.random.default_rng(11)
        x, y = blobs(rng)
        model = train(x, y, lr=0.01, epochs=100, seed=0)
        assert evaluate(model, x, y) >= 0.95

    def test_zero_learning_rate_keeps_parameters(self):
        rng = np.random.default_rng(13)
        x, y = blobs(rng, n_per_class=10)
        reference = init_model(2, seed=4)
        model = train(x, y, lr=0.0, epochs=10, seed=4)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(model, name), getattr(reference, name))

    @pytest.mark.parametrize("lr", [0.01, 0.001])
    def test_loss_decreases_over_first_epochs(self, lr):
        rng = np.random.default_rng(17)
        x, y = blobs(rng)
        model = train(x, y, lr=lr, epochs=10, seed=1)
        assert model.loss_history[-1] < model.loss_history[0]
        assert model.loss_history.size == 10

    def test_same_seed_identical_parameters(self):
        rng = np.random.default_rng(19)
        x, y = blobs(rng, n_per_class=15)
        m1 = train(x, y, lr=0.01, epochs=20, seed=5)
        m2 = train(x, y, lr=0.01, epochs=20, seed=5)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(m1, name), getattr(m2, name))

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            train(np.zeros((4, 2)), np.array([0, 1, 2, 1]), lr=0.01, epochs=1)


class TestEvaluate:
    def perfect_model(self):
        # routes logit mass to the class matching the sign of x0
        return MlpModel(
            w1=np.array([[1.0, -1.0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0]]).astype(float),
            b1=np.zeros(6),
            w2=np.array([[0.0, 10.0], [10.0, 0.0], [0, 0], [0, 0], [0, 0], [0, 0]]),
            b2=np.zeros(2),
        )

    def test_perfect_model_scores_one(self):
        x = np.array([[1.0, 0], [2.0, 0], [-1.0, 0], [-0.5, 0]])
        y = np.array([1, 1, 0, 0])
        assert evaluate(self.perfect_model(), x, y) == 1.0

    def test_constant_model_on_balanced_set(self):
        model = MlpModel(
            w1=np.zeros((2, 6)), b1=np.zeros(6), w2=np.zeros((6, 2)), b2=np.array([1.0, 0.0])
        )
        x = np.zeros((10, 2))
        y = np.array([0, 1] * 5)
        assert evaluate(model, x, y) == 0.5

    def test_five_point_confusion_fixture(self):
        x = np.array([[2.0, 0], [1.0, 0], [-1.0, 0], [-2.0, 0], [3.0, 0]])
        y = np.array([1, 0, 0, 0, 1])
        # perfect_model predicts [1, 1, 0, 0, 1] -> 4 of 5 correct
        assert evaluate(self.perfect_model(), x, y) == pytest.approx(0.8)
