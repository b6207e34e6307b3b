"""Soft-margin SVM trained on a precomputed kernel matrix.

Solves the standard dual

    max_a  sum_i a_i - 1/2 sum_ij a_i a_j y_i y_j K_ij
    s.t.   0 <= a_i <= C,   sum_i a_i y_i = 0

with a deterministic maximal-violating-pair working-set method (sequential
pairwise optimization; no randomness, so a (K, y, config) triple always yields
the same model). The decision function is f(x) = sum_i a_i y_i K(x_i, x) + b
and predictions are its sign, with sign(0) mapped to +1.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

SUPPORT_TOL = 1e-8
# Gram matrices from the statevector simulator are PSD up to rounding. A tiny
# negative floor is repaired with a diagonal shift; anything clearly negative
# means the kernel pipeline is broken and evaluation must not proceed.
PSD_CLAMP_TOL = 1e-8
PSD_ABORT_TOL = 1e-4


@dataclass
class SvmConfig:
    c_reg: float = 1.0
    tol: float = 1e-6
    max_passes: int = 100_000

    def __post_init__(self):
        if self.c_reg <= 0:
            raise ValueError("c_reg must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass
class TrainedQSVM:
    dual_coefs: np.ndarray
    labels: np.ndarray
    bias: float
    support_mask: np.ndarray
    regularization: float

    @property
    def n_support(self) -> int:
        return int(self.support_mask.sum())

    def summary(self) -> dict:
        """JSON-ready digest for run reports."""
        return {
            "dual_coefs": self.dual_coefs.tolist(),
            "bias": self.bias,
            "n_support": self.n_support,
            "regularization": self.regularization,
        }


def _psd_clamp(k: np.ndarray) -> np.ndarray:
    eig_min = float(np.linalg.eigvalsh(k)[0])
    if eig_min < -PSD_ABORT_TOL:
        raise RuntimeError(
            f"kernel matrix min eigenvalue {eig_min:.3e} is far below zero; "
            "this indicates a simulator bug, not rounding"
        )
    if eig_min < -PSD_CLAMP_TOL:
        log.warning("clamping kernel PSD violation: min eigenvalue %.3e", eig_min)
        k = k + (-eig_min) * np.eye(k.shape[0])
    return k


def fit(k_train, y, config: SvmConfig | None = None) -> TrainedQSVM:
    """Train on an n x n kernel matrix and labels in {-1, +1}. Raises
    ValueError on single-class labels or non-finite kernels."""
    config = config or SvmConfig()
    k = np.asarray(k_train, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n = y.size
    if k.shape != (n, n):
        raise ValueError(f"kernel shape {k.shape} does not match {n} labels")
    if not np.isfinite(k).all():
        raise ValueError("kernel matrix contains non-finite entries")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if np.unique(y).size < 2:
        raise ValueError("training requires both classes")
    k = _psd_clamp(k)

    c_reg, tol = config.c_reg, config.tol
    q = k * np.outer(y, y)
    alpha = np.zeros(n)
    grad = -np.ones(n)  # gradient of 1/2 a'Qa - sum(a)

    for _ in range(config.max_passes):
        yg = -(y * grad)  # equals y_i - f_i(without bias)
        up = ((y > 0) & (alpha < c_reg)) | ((y < 0) & (alpha > 0.0))
        low = ((y > 0) & (alpha > 0.0)) | ((y < 0) & (alpha < c_reg))
        if not up.any() or not low.any():
            break
        up_idx = np.flatnonzero(up)
        low_idx = np.flatnonzero(low)
        i = up_idx[np.argmax(yg[up_idx])]
        j = low_idx[np.argmin(yg[low_idx])]
        violation = yg[i] - yg[j]
        if violation <= tol:
            break
        quad = k[i, i] + k[j, j] - 2.0 * k[i, j]
        if quad <= 0.0:
            quad = 1e-12
        bound_i = (c_reg - alpha[i]) if y[i] > 0 else alpha[i]
        bound_j = alpha[j] if y[j] > 0 else (c_reg - alpha[j])
        t = min(violation / quad, bound_i, bound_j)
        if t <= 0.0:
            break
        new_i = alpha[i] + y[i] * t
        new_j = alpha[j] - y[j] * t
        # land exactly on the box when a bound is the binding constraint
        if t == bound_i:
            new_i = c_reg if y[i] > 0 else 0.0
        if t == bound_j:
            new_j = 0.0 if y[j] > 0 else c_reg
        d_i, d_j = new_i - alpha[i], new_j - alpha[j]
        alpha[i], alpha[j] = new_i, new_j
        grad += q[:, i] * d_i + q[:, j] * d_j

    margin = (alpha > SUPPORT_TOL) & (alpha < c_reg - SUPPORT_TOL)
    scores = k @ (alpha * y)
    residual = y - scores
    if margin.any():
        bias = float(residual[margin].mean())
    else:
        # midpoint of the bias interval allowed by the bound variables
        up = ((y > 0) & (alpha < c_reg)) | ((y < 0) & (alpha > 0.0))
        low = ((y > 0) & (alpha > 0.0)) | ((y < 0) & (alpha < c_reg))
        lo = residual[up].max() if up.any() else None
        hi = residual[low].min() if low.any() else None
        if lo is not None and hi is not None:
            bias = 0.5 * (lo + hi)
        else:
            bias = float(lo if lo is not None else (hi if hi is not None else 0.0))

    return TrainedQSVM(
        dual_coefs=alpha,
        labels=y,
        bias=float(bias),
        support_mask=alpha > SUPPORT_TOL,
        regularization=c_reg,
    )


def predict(model: TrainedQSVM, k_test) -> np.ndarray:
    """Signs of the decision values for a q x n_train kernel block; ties at
    exactly zero go to +1."""
    k = np.atleast_2d(np.asarray(k_test, dtype=float))
    if k.shape[1] != model.dual_coefs.size:
        raise ValueError("kernel block width does not match the training set")
    scores = k @ (model.dual_coefs * model.labels) + model.bias
    return np.where(scores >= 0.0, 1, -1)


def accuracy(pred, truth) -> float:
    pred = np.asarray(pred).ravel()
    truth = np.asarray(truth).ravel()
    if pred.size == 0 or pred.size != truth.size:
        raise ValueError("predictions and truth must be nonempty and equal-length")
    return float(np.mean(pred == truth))
