"""Soft-margin SVM trained on a precomputed kernel matrix.

Solves the standard dual

    max_a  sum_i a_i - 1/2 sum_ij a_i a_j y_i y_j K_ij
    s.t.   0 <= a_i <= C,   sum_i a_i y_i = 0

with deterministic maximal-violating-pair steps (Keerthi et al., Neural Comput.
13, 2001) on the signed duals b_i = y_i a_i in [min(0, y_i C), max(0, y_i C)]:
no y_i y_j K_ij matrix is formed, and since negation is exact and rounding is
sign-symmetric, every step gives the floats of the a-form. No randomness, so a
(K, y, config) triple always yields the same model. Running out of max_passes
above tol logs a warning with the remaining violation. Predictions are the sign of
f(x) = sum_i a_i y_i K(x_i, x) + b, with sign(0) mapped to +1.

Before solving, K is checked for PSD. A Cholesky factorization of K shifted by
PSD_CLAMP_TOL/2 certifies lambda_min(K) > -PSD_CLAMP_TOL when its backward
error bound is small enough; otherwise, or when it fails, `eigvalsh` decides
between returning K, clamping it and aborting.
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
        if self.max_passes < 1:
            raise ValueError("max_passes must be at least 1")


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
    """K itself when its min eigenvalue is at least -PSD_CLAMP_TOL, K shifted up
    to PSD when it is only slightly below; RuntimeError when far below."""
    n = k.shape[0]
    # Cholesky certificate: the computed factor of A is exact for some A + E
    # with ||E||_2 <= (n+1) n (eps/2) max A_ii to first order (Higham, Accuracy
    # and Stability of Numerical Algorithms, Thm 10.3). When (n+1) n eps
    # max(1, max|K_ii|) is below PSD_CLAMP_TOL/8, factoring K + (PSD_CLAMP_TOL/2) I
    # proves lambda_min(K) > -PSD_CLAMP_TOL, where the rule below returns K as is.
    error_bound = (n + 1) * n * np.finfo(float).eps * max(1.0, np.abs(k.diagonal()).max())
    if error_bound < PSD_CLAMP_TOL / 8:
        shifted = k.copy()
        shifted.flat[:: n + 1] += PSD_CLAMP_TOL / 2
        try:
            np.linalg.cholesky(shifted)
            return k
        except np.linalg.LinAlgError:
            pass
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
    columns = k.T.copy()  # k[:, i] contiguously; rows of k may differ in the last bit
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
        np.multiply(columns[i], new_i - beta_i, out=buf)
        np.multiply(columns[j], new_j - beta_j, out=step_j)
        np.add(buf, step_j, out=buf)
        np.subtract(yg, buf, out=yg)
        beta[i], beta[j] = new_i, new_j
        up_pen[i] = 0.0 if new_i < hi[i] else -np.inf
        low_pen[i] = 0.0 if new_i > lo[i] else np.inf
        up_pen[j] = 0.0 if new_j < hi[j] else -np.inf
        low_pen[j] = 0.0 if new_j > lo[j] else np.inf

    beta = np.array(beta)
    alpha = np.abs(beta)  # abs also turns a -0.0 dual into 0.0
    residual = y - k @ beta
    margin = (alpha > SUPPORT_TOL) & (alpha < c_reg - SUPPORT_TOL)
    if margin.any():
        bias = residual[margin].mean()
    else:
        # midpoint of the bias interval allowed by the bound variables
        bias = 0.5 * (residual[up_pen == 0.0].max() + residual[low_pen == 0.0].min())

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
