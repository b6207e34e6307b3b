"""Classical comparison model: one-hidden-layer ReLU MLP with a two-neuron
softmax output, trained full-batch by Adam on cross-entropy.

The two-neuron output realizes binary cross-entropy over softmax classes;
labels are {0, 1}. `train` uses a hidden width of 6 to keep the parameter
count comparable to the evolved quantum models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class MlpModel:
    w1: np.ndarray  # input_dim x hidden
    b1: np.ndarray
    w2: np.ndarray  # hidden x 2
    b2: np.ndarray
    loss_history: np.ndarray | None = None

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[1]


def init_model(input_dim: int, hidden_dim: int = 6, seed: int = 0) -> MlpModel:
    """Seeded uniform init in +-1/sqrt(fan_in) for each layer."""
    rng = np.random.default_rng(seed)
    lim1 = 1.0 / np.sqrt(input_dim)
    lim2 = 1.0 / np.sqrt(hidden_dim)
    return MlpModel(
        w1=rng.uniform(-lim1, lim1, size=(input_dim, hidden_dim)),
        b1=rng.uniform(-lim1, lim1, size=hidden_dim),
        w2=rng.uniform(-lim2, lim2, size=(hidden_dim, 2)),
        b2=rng.uniform(-lim2, lim2, size=2),
    )


def _forward_batch(model: MlpModel, xs: np.ndarray):
    pre = xs @ model.w1 + model.b1
    hidden = np.maximum(pre, 0.0)
    logits = hidden @ model.w2 + model.b2
    return pre, hidden, logits


def loss_and_grads(model: MlpModel, xs: np.ndarray, y: np.ndarray):
    """Mean cross-entropy over the batch and its analytic parameter gradients."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    y = np.asarray(y, dtype=int).ravel()
    n = y.size
    pre, hidden, logits = _forward_batch(model, xs)
    top = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - top)  # one exponential gives both log Z and the softmax
    z = e.sum(axis=1, keepdims=True)
    log_z = np.log(z[:, 0]) + top[:, 0]
    loss = float(np.mean(log_z - logits[np.arange(n), y]))

    d_logits = e / z
    d_logits[np.arange(n), y] -= 1.0
    d_logits /= n
    d_w2 = hidden.T @ d_logits
    d_b2 = d_logits.sum(axis=0)
    d_hidden = d_logits @ model.w2.T
    d_pre = d_hidden * (pre > 0)
    d_w1 = xs.T @ d_pre
    d_b1 = d_pre.sum(axis=0)
    return loss, {"w1": d_w1, "b1": d_b1, "w2": d_w2, "b2": d_b2}


def check_training_params(lr: float, epochs: int) -> None:
    """The one rule for the training settings: a negative rate would ascend
    the loss, a rate of 0 would report the untrained initial model, and an
    infinite one would make the loss NaN."""
    if not 0.0 < lr < math.inf:
        raise ValueError("baseline_lr must be positive and finite")
    if epochs < 1:
        raise ValueError("baseline_epochs must be at least 1")


def train(
    x_train: np.ndarray,
    y_train: np.ndarray,
    lr: float,
    epochs: int = 100,
    seed: int = 0,
) -> MlpModel:
    """Full-batch Adam; the per-epoch loss curve is stored on the model."""
    check_training_params(lr, epochs)
    xs = np.atleast_2d(np.asarray(x_train, dtype=float))
    y = np.asarray(y_train, dtype=int).ravel()
    if not np.all(np.isin(y, (0, 1))):
        raise ValueError("labels must be 0 or 1")
    model = init_model(xs.shape[1], seed=seed)
    params = {"w1": model.w1, "b1": model.b1, "w2": model.w2, "b2": model.b2}
    m_state = {k: np.zeros_like(v) for k, v in params.items()}
    v_state = {k: np.zeros_like(v) for k, v in params.items()}
    losses = np.zeros(epochs)
    for epoch in range(epochs):
        loss, grads = loss_and_grads(model, xs, y)
        losses[epoch] = loss
        t = epoch + 1
        for key, grad in grads.items():
            m_state[key] = ADAM_BETA1 * m_state[key] + (1 - ADAM_BETA1) * grad
            v_state[key] = ADAM_BETA2 * v_state[key] + (1 - ADAM_BETA2) * grad**2
            m_hat = m_state[key] / (1 - ADAM_BETA1**t)
            v_hat = v_state[key] / (1 - ADAM_BETA2**t)
            params[key] -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    model.loss_history = losses
    return model


def evaluate(model: MlpModel, x_test: np.ndarray, y_test: np.ndarray) -> float:
    """Fraction of argmax predictions matching the {0, 1} labels."""
    xs = np.atleast_2d(np.asarray(x_test, dtype=float))
    y = np.asarray(y_test, dtype=int).ravel()
    _, _, logits = _forward_batch(model, xs)
    return float(np.mean(logits.argmax(axis=1) == y))
