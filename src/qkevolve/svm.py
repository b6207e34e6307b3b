"""Soft-margin SVM trained on a precomputed kernel matrix.

Solves the standard dual

    max_a  sum_i a_i - 1/2 sum_ij a_i a_j y_i y_j K_ij
    s.t.   0 <= a_i <= C,   sum_i a_i y_i = 0

with deterministic maximal-violating-pair steps (Keerthi et al., Neural Comput.
13, 2001) on the signed duals b_i = y_i a_i in [min(0, y_i C), max(0, y_i C)]:
no y_i y_j K_ij matrix is formed, and since negation is exact and rounding is
sign-symmetric, every step gives the floats of the a-form. No randomness, so a
(K, y, config) triple always yields the same model. Running out of max_passes
above tol logs a warning with the remaining violation. The model keeps the signed
duals b, and predictions are the sign of f(x) = sum_i b_i K(x_i, x) + bias, with
sign(0) mapped to +1.

K is used as given, with no PSD or symmetry check: the pipeline forms it as one
real product F F^T of the stacked amplitudes (`evolve.train_individual`), so it
is bitwise symmetric and PSD up to rounding. On an indefinite K, each step's
curvature is floored at 1e-12 (LIBSVM's tau; Chen, Fan & Lin, IEEE TNN 17(4),
2006), which keeps every step finite and the duals feasible.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

SUPPORT_TOL = 1e-8


@dataclass
class SvmConfig:
    c_reg: float = 1.0
    tol: float = 1e-6
    max_passes: int = 100_000

    def __post_init__(self):
        if not 0 < self.c_reg < math.inf:  # also rejects NaN
            raise ValueError("c_reg must be positive and finite")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if self.max_passes < 1:
            raise ValueError("max_passes must be at least 1")


@dataclass
class TrainedQSVM:
    signed_duals: np.ndarray  # beta = y * alpha, the duals the solver steps
    bias: float
    regularization: float

    @property
    def dual_coefs(self) -> np.ndarray:
        """alpha = |beta|; abs also turns a -0.0 dual into 0.0."""
        return np.abs(self.signed_duals)

    @property
    def n_support(self) -> int:
        return int((self.dual_coefs > SUPPORT_TOL).sum())

    def summary(self) -> dict:
        """JSON-ready digest for run reports."""
        return {
            "dual_coefs": self.dual_coefs.tolist(),
            "bias": self.bias,
            "n_support": self.n_support,
            "regularization": self.regularization,
        }


def fit(k_train, y, config: SvmConfig | None = None) -> TrainedQSVM:
    """Train on an n x n kernel matrix and labels in {-1, +1}. K is expected
    to be symmetric and PSD, as the pipeline's K = F F^T is by construction;
    neither is checked, and each step reads row k[i] as the column k[:, i].
    Raises ValueError on a shape mismatch, non-finite kernels, labels outside
    {-1, +1} or single-class labels."""
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

    c_reg, tol = config.c_reg, config.tol
    # Scalars live in Python floats, which round exactly as numpy's float64.
    signed_c = (y * c_reg).tolist()
    lo = [min(0.0, v) for v in signed_c]
    hi = [max(0.0, v) for v in signed_c]
    beta = [0.0] * n  # signed duals y * alpha, each boxed in [lo, hi]
    diag = k.diagonal().tolist()
    # Working sets as additive penalties: 0 where beta < hi (up) or beta > lo
    # (low), -inf/+inf elsewhere, so yg + penalty masks exactly as np.where.
    up_pen = np.where(y > 0, 0.0, -np.inf)
    low_pen = np.where(y < 0, 0.0, np.inf)
    yg = y.copy()  # y_i - f_i without bias, i.e. minus y_i times the dual gradient
    buf, step_j = np.empty(n), np.empty(n)  # buf holds the masked scores, then the i term

    for passes in range(config.max_passes + 1):
        i = int(np.add(yg, up_pen, out=buf).argmax())
        j = int(np.add(yg, low_pen, out=buf).argmin())
        violation = yg.item(i) - yg.item(j)
        if violation <= tol:
            break
        if passes == config.max_passes:
            log.warning(
                "SMO stopped at max_passes=%d with KKT violation %.3e above tol %.1e",
                passes, violation, tol,
            )
            break
        quad = diag[i] + diag[j] - 2.0 * k.item(i, j)
        if quad <= 0.0:
            quad = 1e-12
        beta_i, beta_j = beta[i], beta[j]
        bound_i, bound_j = hi[i] - beta_i, beta_j - lo[j]
        t = min(violation / quad, bound_i, bound_j)
        if t <= 0.0:
            break
        # land exactly on the box when a bound is the binding constraint
        new_i = hi[i] if t == bound_i else beta_i + t
        new_j = lo[j] if t == bound_j else beta_j - t
        np.multiply(k[i], new_i - beta_i, out=buf)
        np.multiply(k[j], new_j - beta_j, out=step_j)
        np.add(buf, step_j, out=buf)
        np.subtract(yg, buf, out=yg)
        beta[i], beta[j] = new_i, new_j
        up_pen[i] = 0.0 if new_i < hi[i] else -np.inf
        low_pen[i] = 0.0 if new_i > lo[i] else np.inf
        up_pen[j] = 0.0 if new_j < hi[j] else -np.inf
        low_pen[j] = 0.0 if new_j > lo[j] else np.inf

    beta = np.array(beta)
    alpha = np.abs(beta)
    residual = y - k @ beta
    margin = (alpha > SUPPORT_TOL) & (alpha < c_reg - SUPPORT_TOL)
    if margin.any():
        bias = residual[margin].mean()
    else:
        # midpoint of the bias interval allowed by the bound variables
        bias = 0.5 * (residual[up_pen == 0.0].max() + residual[low_pen == 0.0].min())

    return TrainedQSVM(signed_duals=beta, bias=float(bias), regularization=c_reg)


def predict(model: TrainedQSVM, k_test) -> np.ndarray:
    """Signs of the decision values for a q x n_train kernel block; ties at
    exactly zero go to +1."""
    k = np.atleast_2d(np.asarray(k_test, dtype=float))
    if k.shape[1] != model.signed_duals.size:
        raise ValueError("kernel block width does not match the training set")
    scores = k @ model.signed_duals + model.bias
    return np.where(scores >= 0.0, 1, -1)


def accuracy(pred, truth) -> float:
    pred = np.asarray(pred).ravel()
    truth = np.asarray(truth).ravel()
    if pred.size == 0 or pred.size != truth.size:
        raise ValueError("predictions and truth must be nonempty and equal-length")
    return float(np.mean(pred == truth))
